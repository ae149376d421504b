"""Labeling-function analysis: the feedback loop of LF development.

``LFAnalysis`` computes, per labeling function, the statistics Snorkel's
notebook interface reports to users while they iterate: coverage, overlap
(how often another LF also votes), conflict (how often another LF disagrees),
and — when a small labeled development set is available — empirical accuracy.

Every statistic is a vectorized reduction over the CSR entries of Λ
(:attr:`repro.labeling.matrix.LabelMatrix.csr`), O(nnz) whatever the
matrix's backing: a row overlaps when it holds at least two votes and
conflicts when its smallest and largest vote differ, and an LF's overlap /
conflict / accuracy is the share of its entries that sit in such a row (or
match the gold label).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.labeling.matrix import LabelMatrix
from repro.types import validate_ground_truth


@dataclass(frozen=True)
class LFSummary:
    """Per-LF summary statistics."""

    name: str
    coverage: float
    overlap: float
    conflict: float
    polarity: tuple[int, ...]
    empirical_accuracy: Optional[float] = None
    num_labeled: int = 0


class LFAnalysis:
    """Compute coverage / overlap / conflict / accuracy summaries for Λ."""

    def __init__(self, label_matrix: LabelMatrix) -> None:
        self.label_matrix = label_matrix

    def _conflict_rows(self) -> np.ndarray:
        """Mask of rows whose votes disagree (smallest vote ≠ largest vote)."""
        csr = self.label_matrix.csr
        voted = np.flatnonzero(csr.row_nnz())
        # Empty rows own no entries, so the voted rows' start offsets cut
        # ``data`` into exactly one segment per voted row.
        starts = csr.indptr[voted]
        conflicts = np.zeros(csr.shape[0], dtype=bool)
        conflicts[voted] = np.minimum.reduceat(csr.data, starts) != np.maximum.reduceat(
            csr.data, starts
        )
        return conflicts

    def _lf_share(self, entry_mask: np.ndarray, empty: float) -> np.ndarray:
        """Per-LF fraction of its entries selected by ``entry_mask`` (``empty`` if none)."""
        csr = self.label_matrix.csr
        hits = np.bincount(csr.indices[entry_mask], minlength=csr.shape[1])
        votes = csr.col_nnz()
        return np.divide(hits, votes, out=np.full(csr.shape[1], empty), where=votes > 0)

    # ------------------------------------------------------------- matrix-level
    def coverage(self) -> float:
        """Fraction of candidates receiving at least one label."""
        return self.label_matrix.coverage()

    def label_density(self) -> float:
        """Mean non-abstaining labels per candidate."""
        return self.label_matrix.label_density()

    def overlap_fraction(self) -> float:
        """Fraction of candidates labeled by at least two LFs."""
        overlaps = self.label_matrix.csr.row_nnz() >= 2
        return float(overlaps.mean()) if overlaps.size else 0.0

    def conflict_fraction(self) -> float:
        """Fraction of candidates where two non-abstaining LFs disagree."""
        conflicts = self._conflict_rows()
        return float(conflicts.mean()) if conflicts.size else 0.0

    # ----------------------------------------------------------------- per-LF
    def lf_coverages(self) -> np.ndarray:
        """Per-LF coverage."""
        return self.label_matrix.lf_coverage()

    def lf_overlaps(self) -> np.ndarray:
        """Per-LF fraction of its labeled candidates also labeled by another LF."""
        csr = self.label_matrix.csr
        return self._lf_share((csr.row_nnz() >= 2)[csr.entry_rows()], empty=0.0)

    def lf_conflicts(self) -> np.ndarray:
        """Per-LF fraction of its labeled candidates where some other LF disagrees."""
        entry_rows = self.label_matrix.csr.entry_rows()
        return self._lf_share(self._conflict_rows()[entry_rows], empty=0.0)

    def lf_empirical_accuracies(
        self, gold_labels: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Per-LF accuracy on non-abstained candidates w.r.t. gold labels.

        LFs that never vote on the labeled set get accuracy ``nan``.
        """
        gold = validate_ground_truth(gold_labels, cardinality=self.label_matrix.cardinality)
        if gold.shape[0] != self.label_matrix.num_candidates:
            raise ValueError(
                f"gold labels have length {gold.shape[0]}, expected "
                f"{self.label_matrix.num_candidates}"
            )
        csr = self.label_matrix.csr
        return self._lf_share(csr.data == gold[csr.entry_rows()], empty=np.nan)

    def summary(
        self, gold_labels: Optional[Sequence[int] | np.ndarray] = None
    ) -> list[LFSummary]:
        """Full per-LF summary table."""
        coverages = self.lf_coverages()
        overlaps = self.lf_overlaps()
        conflicts = self.lf_conflicts()
        polarities = self.label_matrix.lf_polarity()
        accuracies = (
            self.lf_empirical_accuracies(gold_labels) if gold_labels is not None else None
        )
        num_labeled = len(gold_labels) if gold_labels is not None else 0
        summaries = []
        for j, name in enumerate(self.label_matrix.lf_names):
            summaries.append(
                LFSummary(
                    name=name,
                    coverage=float(coverages[j]),
                    overlap=float(overlaps[j]),
                    conflict=float(conflicts[j]),
                    polarity=tuple(polarities[j]),
                    empirical_accuracy=(
                        None
                        if accuracies is None or np.isnan(accuracies[j])
                        else float(accuracies[j])
                    ),
                    num_labeled=num_labeled,
                )
            )
        return summaries

    def summary_table(
        self, gold_labels: Optional[Sequence[int] | np.ndarray] = None
    ) -> str:
        """Human-readable summary table (the notebook-style LF report)."""
        rows = self.summary(gold_labels)
        header = f"{'LF':<40}{'Cov.':>8}{'Overlap':>10}{'Conflict':>10}{'Acc.':>8}"
        lines = [header, "-" * len(header)]
        for row in rows:
            empirical = row.empirical_accuracy
            accuracy = f"{empirical:.2f}" if empirical is not None else "  -"
            lines.append(
                f"{row.name:<40}{row.coverage:>8.2f}{row.overlap:>10.2f}"
                f"{row.conflict:>10.2f}{accuracy:>8}"
            )
        return "\n".join(lines)
