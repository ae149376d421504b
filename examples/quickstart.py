"""Quickstart: write labeling functions, denoise them, train an end model.

Runs the full Snorkel workflow of the paper's Figure 2 on a small synthetic
chemical-disease corpus: write LFs -> apply them -> fit the generative label
model -> train a noise-aware discriminative model -> evaluate on a held-out
test set.  Run with ``python examples/quickstart.py``.
"""

from repro import GenerativeModel, LFAnalysis, LFApplier, labeling_function
from repro.baselines import hand_supervision_baseline
from repro.datasets import load_task
from repro.discriminative import NoiseAwareLogisticRegression, RelationFeaturizer
from repro.evaluation import BinaryScorer
from repro.types import NEGATIVE, POSITIVE


# ---------------------------------------------------------------------------
# 1. Hand-written labeling functions (paper Example 2.3 style).
# ---------------------------------------------------------------------------
@labeling_function(source_type="pattern")
def lf_causes(x):
    """Vote positive when 'causes' appears between the chemical and disease."""
    return POSITIVE if "causes" in [w.lower() for w in x.words_between()] else None


@labeling_function(source_type="pattern")
def lf_treats(x):
    """Vote negative when treatment language appears between the spans."""
    between = [w.lower() for w in x.words_between()]
    return NEGATIVE if ("treats" in between or "treatment" in between) else None


@labeling_function(source_type="structure")
def lf_far_apart(x):
    """Arguments separated by many tokens are rarely causally related."""
    return NEGATIVE if x.token_distance() > 12 else None


def LINT_LFS():
    """Hand-written LFs plus the task suite, for ``python -m repro.analysis``."""
    return [lf_causes, lf_treats, lf_far_apart] + load_task("cdr", scale=0.05, seed=0).lfs


def main() -> None:
    # 2. Load a small synthetic CDR-style task; take its curated LF suite plus ours.
    task = load_task("cdr", scale=0.08, seed=0)
    lfs = [lf_causes, lf_treats, lf_far_apart] + task.lfs[:12]

    train = task.split_candidates("train")
    test = task.split_candidates("test")

    # 3. Apply the LFs and inspect them.
    applier = LFApplier(lfs)
    label_matrix = applier.apply(train)
    print(LFAnalysis(label_matrix).summary_table(task.split_gold("train")))
    print(f"\nlabel density d_Lambda = {label_matrix.label_density():.2f}")

    # 4. Fit the generative label model (no ground truth used).
    label_model = GenerativeModel(epochs=10).fit(label_matrix)
    probabilistic_labels = label_model.predict_proba(label_matrix)

    # 5. Train a noise-aware discriminative model on candidate features.
    featurizer = RelationFeaturizer(num_features=1024).fit()
    end_model = NoiseAwareLogisticRegression(epochs=30, seed=0)
    end_model.fit(featurizer.transform(train), probabilistic_labels)

    # 6. Evaluate on the blind test split and compare against hand supervision.
    scorer = BinaryScorer()
    report = scorer.score_probabilities(
        task.split_gold("test"), end_model.predict_proba(featurizer.transform(test))
    )
    hand = hand_supervision_baseline(task, epochs=30)
    print(
        f"\nSnorkel end model:  P={report.precision:.2f} "
        f"R={report.recall:.2f} F1={report.f1:.2f}"
    )
    print(f"Hand supervision :  F1={hand.f1:.2f}")


if __name__ == "__main__":
    main()
