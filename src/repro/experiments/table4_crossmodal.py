"""Table 4: cross-modal tasks.

* Radiology: LFs over report text produce probabilistic labels; an image
  feature classifier (the ResNet substitute) is trained on them and evaluated
  by ROC AUC on the test split, against the same classifier trained on gold
  labels.
* Crowd: crowd workers are LFs and the task runs through the *main*
  :class:`repro.pipeline.SnorkelPipeline` — the k-ary generative model
  produces class posteriors and the noise-aware softmax text classifier
  trains on them — evaluated by accuracy against the same classifier trained
  on gold labels.  The standalone Dawid–Skene estimator is kept as a
  cross-check baseline: the driver also reports how often its hard labels
  agree with the generative model's on the training split.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.datasets.base import load_task
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.image import ImageFeatureClassifier, extract_image_features
from repro.discriminative.softmax import NoiseAwareSoftmaxRegression
from repro.evaluation.metrics import roc_auc
from repro.labeling.applier import LFApplier
from repro.labelmodel.dawid_skene import DawidSkeneModel
from repro.labelmodel.generative import GenerativeModel
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline
from repro.types import POSITIVE


@dataclass
class CrossModalResult:
    """Table-4 rows: Snorkel vs hand supervision on each cross-modal task."""

    radiology_snorkel_auc: float
    radiology_hand_auc: float
    crowd_snorkel_accuracy: float
    crowd_hand_accuracy: float
    #: Fraction of training tweets where the generative model's hard label
    #: matches standalone Dawid–Skene's (the cross-check baseline).
    crowd_dawid_skene_agreement: float


def run(
    radiology_scale: float = 0.08,
    crowd_scale: float = 1.0,
    seed: int = 0,
    epochs: int = 40,
) -> CrossModalResult:
    """Run both cross-modal pipelines and return the Table-4 numbers.

    The crowd task runs through the main pipeline; the radiology task trains
    on pre-extracted image features, outside it.
    """
    radiology_snorkel, radiology_hand = _radiology(radiology_scale, seed, epochs)
    crowd_snorkel, crowd_hand, crowd_agreement = _crowd(crowd_scale, seed, epochs)
    return CrossModalResult(
        radiology_snorkel_auc=radiology_snorkel,
        radiology_hand_auc=radiology_hand,
        crowd_snorkel_accuracy=crowd_snorkel,
        crowd_hand_accuracy=crowd_hand,
        crowd_dawid_skene_agreement=crowd_agreement,
    )


def _radiology(scale: float, seed: int, epochs: int) -> tuple[float, float]:
    task = load_task("radiology", scale=scale, seed=seed)
    train = task.split_candidates("train")
    test = task.split_candidates("test")
    matrix = LFApplier(task.lfs).apply(train)
    label_model = GenerativeModel(epochs=10).fit(matrix)
    soft_labels = label_model.predict_proba(matrix)

    train_features = extract_image_features(train)
    test_features = extract_image_features(test)
    gold_test = task.split_gold("test")

    snorkel_model = ImageFeatureClassifier(epochs=epochs, seed=seed)
    snorkel_model.fit(train_features, soft_labels)
    snorkel_auc = roc_auc(gold_test, snorkel_model.predict_proba(test_features))

    hand_model = ImageFeatureClassifier(epochs=epochs, seed=seed)
    hand_model.fit(train_features, (task.split_gold("train") == POSITIVE).astype(float))
    hand_auc = roc_auc(gold_test, hand_model.predict_proba(test_features))
    return snorkel_auc, hand_auc


def _crowd(scale: float, seed: int, epochs: int) -> tuple[float, float, float]:
    """The crowd task through the main pipeline, with a Dawid–Skene cross-check.

    The workers are (conditionally) independent graders, so the optimizer's
    correlation sweep is skipped (``use_optimizer=False`` trains the
    independent generative model directly) — exactly the modeling the paper
    applies to crowdsourced labels.
    """
    task = load_task("crowd", scale=scale, seed=seed)
    # One featurizer instance shared by the pipeline and the hand-supervision
    # baseline, so the Snorkel-vs-hand rows compare on identical features
    # (config.num_features only shapes the pipeline's *default* featurizer
    # and is left alone here).
    featurizer = RelationFeaturizer(num_features=512).fit()
    config = PipelineConfig(
        use_optimizer=False,
        generative_epochs=20,
        discriminative_epochs=epochs,
        seed=seed,
    )
    result = SnorkelPipeline(config=config, featurizer=featurizer).run(task)
    snorkel_accuracy = result.discriminative_test_report.accuracy

    # Cross-check: the standalone Dawid-Skene estimator on the same label
    # matrix should largely agree with the factor-graph model's hard labels.
    dawid_skene = DawidSkeneModel(cardinality=task.cardinality, seed=seed)
    dawid_skene.fit(result.label_matrix)
    generative_labels = result.generative_model.predict(result.label_matrix)
    agreement = float((dawid_skene.predict() == generative_labels).mean())

    # Hand supervision: the same featurizer and end model, trained on gold.
    train = task.split_candidates("train")
    test = task.split_candidates("test")
    train_features = featurizer.transform(list(train))
    test_features = featurizer.transform(list(test))
    hand_model = NoiseAwareSoftmaxRegression(
        num_classes=task.cardinality, epochs=epochs, seed=seed
    )
    hand_model.fit(train_features, task.split_gold("train"))
    hand_accuracy = hand_model.score(test_features, task.split_gold("test"))
    return snorkel_accuracy, hand_accuracy, agreement


def format_table(result: CrossModalResult) -> str:
    """Render Table 4 as text (plus the Dawid-Skene cross-check line)."""
    lines = [
        f"{'Task':<22}{'Snorkel (Disc.)':>18}{'Hand Supervision':>18}",
        "-" * 58,
        f"{'Radiology (AUC)':<22}{100 * result.radiology_snorkel_auc:>18.1f}"
        f"{100 * result.radiology_hand_auc:>18.1f}",
        f"{'Crowd (Acc)':<22}{100 * result.crowd_snorkel_accuracy:>18.1f}"
        f"{100 * result.crowd_hand_accuracy:>18.1f}",
        "",
        "Crowd label-model cross-check: generative model vs Dawid-Skene "
        f"agreement {100 * result.crowd_dawid_skene_agreement:.1f}%",
    ]
    return "\n".join(lines)
