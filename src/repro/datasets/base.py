"""Task dataset containers and the task registry.

A :class:`TaskDataset` bundles everything an end-to-end experiment needs:
the materialized candidates per split, their gold labels (used for evaluation
only), the task's labeling-function suite (optionally grouped by source
type), and summary statistics matching the paper's Table 2 / Table 7 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from repro.context.candidates import Candidate
from repro.exceptions import DatasetError
from repro.labeling.lf import LabelingFunction
from repro.types import POSITIVE

SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class TaskSummary:
    """Summary statistics of a task (the paper's Table 2 and Table 7 rows)."""

    name: str
    num_lfs: int
    positive_fraction: Optional[float]
    num_documents: int
    num_candidates: int
    split_sizes: dict[str, int]


@dataclass
class TaskDataset:
    """A fully constructed weak-supervision task.

    Attributes
    ----------
    name:
        Task name (``"cdr"``, ``"chem"``, ``"ehr"``, ``"spouses"``,
        ``"radiology"``, ``"crowd"``).
    candidates:
        Mapping from split name to the list of candidates in that split.
    gold:
        Mapping from split name to the gold label vector (evaluation only —
        the training split's gold labels are never given to the pipeline).
    lfs:
        The task's labeling functions.
    distant_supervision_lfs:
        The subset of LFs used by the distant-supervision-only baseline
        (Table 3's first column); empty for tasks without a KB.
    cardinality:
        Number of classes (2 except the Crowd task).
    num_documents:
        Number of source documents the candidates were extracted from.
    metadata:
        Free-form extras (e.g. the synthetic KB, true relation pairs).
    """

    name: str
    candidates: dict[str, list[Candidate]]
    gold: dict[str, np.ndarray]
    lfs: list[LabelingFunction]
    distant_supervision_lfs: list[LabelingFunction] = field(default_factory=list)
    cardinality: int = 2
    num_documents: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for split in self.candidates:
            if split not in SPLITS:
                raise DatasetError(f"unknown split {split!r}; expected one of {SPLITS}")
            if split in self.gold and len(self.gold[split]) != len(self.candidates[split]):
                raise DatasetError(
                    f"split {split!r} has {len(self.candidates[split])} candidates but "
                    f"{len(self.gold[split])} gold labels"
                )

    # ------------------------------------------------------------------- access
    def split_candidates(self, split: str) -> list[Candidate]:
        """Candidates of one split."""
        try:
            return self.candidates[split]
        except KeyError:
            raise DatasetError(f"task {self.name!r} has no split {split!r}") from None

    def stream_candidates(self, split: str) -> Iterator[Candidate]:
        """One split's candidates as a one-shot iterator.

        The streaming entry point for the labeling execution engine: feed
        this iterator to :meth:`repro.labeling.applier.LFApplier.apply` and
        the candidate list is consumed chunk by chunk rather than handed
        over as one materialized sequence.  (Task datasets hold their
        candidates in memory today, so this is the list's own iterator, with
        no Python frame per candidate; consumers written against an iterator
        keep working when a split is backed by out-of-core storage.)
        """
        return iter(self.split_candidates(split))

    def split_gold(self, split: str) -> np.ndarray:
        """Gold labels of one split."""
        try:
            return self.gold[split]
        except KeyError:
            raise DatasetError(
                f"task {self.name!r} has no gold labels for split {split!r}"
            ) from None

    def lfs_by_type(self) -> dict[str, list[LabelingFunction]]:
        """Group the LF suite by source type (for the Table 6 ablation)."""
        groups: dict[str, list[LabelingFunction]] = {}
        for lf in self.lfs:
            groups.setdefault(lf.source_type, []).append(lf)
        return groups

    def summary(self) -> TaskSummary:
        """Build the Table 2 / Table 7 style summary row."""
        train_gold = self.gold.get("train")
        if self.cardinality == 2 and train_gold is not None and train_gold.size:
            positive_fraction = float((train_gold == POSITIVE).mean())
        else:
            positive_fraction = None
        return TaskSummary(
            name=self.name,
            num_lfs=len(self.lfs),
            positive_fraction=positive_fraction,
            num_documents=self.num_documents,
            num_candidates=len(self.candidates.get("train", [])),
            split_sizes={split: len(items) for split, items in self.candidates.items()},
        )


# --------------------------------------------------------------------- registry
_TASK_BUILDERS: dict[str, Callable[..., TaskDataset]] = {}


def register_task(name: str) -> Callable[[Callable[..., TaskDataset]], Callable[..., TaskDataset]]:
    """Decorator registering a task builder under ``name``."""

    def decorate(builder: Callable[..., TaskDataset]) -> Callable[..., TaskDataset]:
        _TASK_BUILDERS[name] = builder
        return builder

    return decorate


def registered_tasks() -> list[str]:
    """Names of all registered tasks (importing the task modules lazily)."""
    _import_task_modules()
    return sorted(_TASK_BUILDERS)


def load_task(name: str, scale: float = 1.0, seed: int = 0, **kwargs) -> TaskDataset:
    """Build a registered task dataset.

    Parameters
    ----------
    name:
        Registered task name.
    scale:
        Multiplier on the default corpus size (use < 1 for fast tests).
    seed:
        RNG seed; the same (name, scale, seed) always produces the same task.
    """
    _import_task_modules()
    try:
        builder = _TASK_BUILDERS[name]
    except KeyError:
        raise DatasetError(
            f"unknown task {name!r}; registered tasks are {sorted(_TASK_BUILDERS)}"
        ) from None
    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    return builder(scale=scale, seed=seed, **kwargs)


def _import_task_modules() -> None:
    """Import the task modules so their ``register_task`` decorators run."""
    from repro.datasets import cdr, chem, crowd, ehr, radiology, spouses  # noqa: F401
