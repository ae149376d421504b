"""Synthetic task datasets emulating the paper's six applications.

The real deployments use PubMed abstracts, EHR notes, news articles, OpenI
radiology reports, and CrowdFlower annotations, none of which can be shipped
offline.  Each module here generates a seeded synthetic substitute with the
same statistical structure the corresponding application exercises (entity
pairs planted with a controlled positive rate, cue phrases correlated with
the gold relation, noisy knowledge bases for distant supervision, correlated
labeling-function families, crowd workers of varying accuracy, and paired
"image" features for the cross-modal task).

Use :func:`repro.datasets.base.load_task` / ``registered_tasks`` to construct
a task by name.
"""

from repro.datasets.base import TaskDataset, TaskSummary, load_task, registered_tasks
from repro.datasets.synthetic import (
    PlantedLF,
    PlantedSuite,
    SyntheticMatrixResult,
    generate_correlated_label_matrix,
    generate_label_matrix,
)

__all__ = [
    "TaskDataset",
    "TaskSummary",
    "load_task",
    "registered_tasks",
    "PlantedLF",
    "PlantedSuite",
    "SyntheticMatrixResult",
    "generate_label_matrix",
    "generate_correlated_label_matrix",
]
