"""Crowdsourcing as weak supervision: each crowd worker is a labeling function.

Reproduces the paper's Crowd task: 102 simulated workers grade weather tweets
into five sentiment classes; the k-ary *generative* label model (the same
factor-graph model the binary tasks use) denoises their votes and a softmax
text classifier is trained on the resulting posteriors so it can classify
tweets no worker ever saw.  The classic Dawid-Skene estimator is run as a
cross-check baseline.
Run with ``python examples/crowdsourcing_sentiment.py``.
"""

from repro.datasets import load_task
from repro.discriminative.featurizers import HashingVectorizer
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.labeling import LFApplier
from repro.labelmodel import GenerativeModel, MultiClassMajorityVoter
from repro.labelmodel.dawid_skene import DawidSkeneModel


def LINT_LFS():
    """The crowd-worker LF suite, for ``python -m repro.analysis`` self-linting."""
    return load_task("crowd", scale=0.25, seed=0).lfs


def main() -> None:
    task = load_task("crowd", scale=1.0, seed=0)
    train = task.split_candidates("train")
    test = task.split_candidates("test")
    print(f"{len(train)} training tweets, {len(test)} test tweets, {len(task.lfs)} worker LFs")

    matrix = LFApplier(task.lfs).apply(train)
    # The task publishes its latent sentiment skew; supplying it as the
    # class balance exercises the known-prior path (omit it and the k-ary EM
    # re-estimates a damped prior vector instead).
    label_model = GenerativeModel(epochs=20, class_balance=task.metadata["class_prior"]).fit(matrix)
    posteriors = label_model.predict_proba(matrix)  # (m, 5) class distributions

    gold_train = task.split_gold("train")
    mv_accuracy = float(
        (MultiClassMajorityVoter(task.cardinality).predict(matrix) == gold_train).mean()
    )
    gm_labels = label_model.predict(matrix)
    gm_accuracy = float((gm_labels == gold_train).mean())
    dawid_skene = DawidSkeneModel(cardinality=task.cardinality, seed=0).fit(matrix)
    ds_labels = dawid_skene.predict()
    ds_accuracy = float((ds_labels == gold_train).mean())
    agreement = float((ds_labels == gm_labels).mean())
    print(
        f"Worker-vote aggregation on train: majority vote {mv_accuracy:.3f}, "
        f"generative model {gm_accuracy:.3f}, Dawid-Skene {ds_accuracy:.3f} "
        f"(GM/DS agreement {agreement:.3f})"
    )

    vectorizer = HashingVectorizer(num_features=512, ngram_range=(1, 1)).fit()
    end_model = NoiseAwareSoftmaxRegression(num_classes=task.cardinality, epochs=60, seed=0)
    end_model.fit(vectorizer.transform([c.sentence.words for c in train]), posteriors)
    accuracy = end_model.score(
        vectorizer.transform([c.sentence.words for c in test]), task.split_gold("test")
    )
    print(f"Text model accuracy on unseen tweets: {accuracy:.3f}")


if __name__ == "__main__":
    main()
