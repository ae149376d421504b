"""Cross-modal weak supervision: text-report LFs supervise an image classifier.

The labeling functions read only the synthetic radiology *reports*; the end
model sees only the paired "image" feature vectors (the ResNet substitute) —
the paper's Section 4.1.2 radiology setting.
Run with ``python examples/crossmodal_radiology.py``.
"""


from repro.datasets import load_task
from repro.discriminative.image import ImageFeatureClassifier, extract_image_features
from repro.evaluation import roc_auc
from repro.labeling import LFApplier
from repro.labelmodel import GenerativeModel
from repro.types import POSITIVE


def LINT_LFS():
    """The report-LF suite, for ``python -m repro.analysis`` self-linting."""
    return load_task("radiology", scale=0.05, seed=0).lfs


def main() -> None:
    task = load_task("radiology", scale=0.1, seed=0)
    train = task.split_candidates("train")
    test = task.split_candidates("test")
    print(f"{len(train)} training reports, {len(test)} test reports, {len(task.lfs)} report LFs")

    label_matrix = LFApplier(task.lfs).apply(train)
    label_model = GenerativeModel(epochs=10).fit(label_matrix)
    soft_labels = label_model.predict_proba(label_matrix)

    image_model = ImageFeatureClassifier(epochs=60, seed=0)
    image_model.fit(extract_image_features(train), soft_labels)
    snorkel_auc = roc_auc(task.split_gold("test"), image_model.predict_proba_candidates(test))

    hand_model = ImageFeatureClassifier(epochs=60, seed=0)
    hand_model.fit(
        extract_image_features(train), (task.split_gold("train") == POSITIVE).astype(float)
    )
    hand_auc = roc_auc(task.split_gold("test"), hand_model.predict_proba_candidates(test))

    print(f"Snorkel-supervised image classifier AUC: {snorkel_auc:.3f}")
    print(f"Hand-supervised   image classifier AUC: {hand_auc:.3f}")


if __name__ == "__main__":
    main()
