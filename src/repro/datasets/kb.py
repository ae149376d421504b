"""Synthetic knowledge bases for distant supervision.

The paper's deployments align candidates against external KBs (CTD, MetaCyc,
DBpedia), whose subsets have different accuracy and coverage (Example 2.4).
:func:`build_noisy_kb` constructs the synthetic equivalent from the planted
ground-truth relation set: a "positive" subset covering part of the true
pairs with some false entries mixed in, and a "negative" subset asserting
pairs that (mostly) do not hold — exactly the structure the Ontology LF
generator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import DatasetError
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class KnowledgeBase:
    """A named collection of relation subsets (canonical-id pairs)."""

    name: str
    subsets: dict[str, list[tuple[str, str]]] = field(default_factory=dict)

    def subset(self, subset_name: str) -> list[tuple[str, str]]:
        """Pairs asserted by one subset."""
        try:
            return self.subsets[subset_name]
        except KeyError:
            raise DatasetError(
                f"knowledge base {self.name!r} has no subset {subset_name!r}; "
                f"available: {sorted(self.subsets)}"
            ) from None

    def size(self) -> int:
        """Total number of asserted pairs across subsets."""
        return sum(len(pairs) for pairs in self.subsets.values())


def build_noisy_kb(
    name: str,
    true_pairs: Iterable[tuple[str, str]],
    all_pairs: Iterable[tuple[str, str]],
    positive_subset: str = "causes",
    negative_subset: str = "treats",
    coverage: float = 0.6,
    precision: float = 0.85,
    negative_coverage: float = 0.3,
    negative_precision: float = 0.85,
    seed: SeedLike = 0,
) -> KnowledgeBase:
    """Build a two-subset KB from the planted relation ground truth.

    Parameters
    ----------
    true_pairs:
        Canonical-id pairs for which the relation truly holds.
    all_pairs:
        The universe of candidate pairs (true and false).
    coverage:
        Fraction of true pairs included in the positive subset.
    precision:
        Fraction of the positive subset's entries that are actually true
        (the rest are sampled from the false pairs — KB noise).
    negative_coverage:
        Fraction of false pairs included in the negative ("treats"-style)
        subset.
    negative_precision:
        Fraction of the negative subset's entries that are actually false.
    """
    for value, label in ((coverage, "coverage"), (precision, "precision"),
                         (negative_coverage, "negative_coverage"),
                         (negative_precision, "negative_precision")):
        if not 0.0 <= value <= 1.0:
            raise DatasetError(f"{label} must lie in [0, 1], got {value}")
    rng = ensure_rng(seed)
    true_set = {tuple(pair) for pair in true_pairs}
    universe = [tuple(pair) for pair in all_pairs]
    false_pairs = [pair for pair in universe if pair not in true_set]
    true_list = sorted(true_set)

    def sample(pairs: Sequence[tuple[str, str]], fraction: float) -> list[tuple[str, str]]:
        if not pairs or fraction <= 0.0:
            return []
        count = max(1, int(round(fraction * len(pairs))))
        indices = rng.choice(len(pairs), size=min(count, len(pairs)), replace=False)
        return [pairs[int(i)] for i in indices]

    covered_true = sample(true_list, coverage)
    if precision < 1.0 and covered_true:
        num_noise = int(round(len(covered_true) * (1.0 - precision) / max(precision, 1e-9)))
        covered_true = covered_true + sample(false_pairs, num_noise / max(len(false_pairs), 1))
    covered_false = sample(false_pairs, negative_coverage)
    if negative_precision < 1.0 and covered_false:
        num_noise = int(
            round(len(covered_false) * (1.0 - negative_precision) / max(negative_precision, 1e-9))
        )
        covered_false = covered_false + sample(true_list, num_noise / max(len(true_list), 1))

    return KnowledgeBase(
        name=name,
        subsets={positive_subset: covered_true, negative_subset: covered_false},
    )
