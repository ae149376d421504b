"""The labeling-function interface layer.

This package reproduces the paper's "flexible interface for sources"
(Section 2.1): hand-written Python labeling functions, declarative operators
(patterns, dictionaries, distant supervision from ontologies, weak
classifiers), labeling-function generators, an applier producing the label
matrix Λ, and analysis utilities (coverage / overlap / conflict / accuracy).

A label matrix can be held as a dense integer array (the default) or, via
``LabelMatrix.to_sparse()`` / ``LFApplier.apply(..., sparse=True)``, as a
:class:`repro.labeling.sparse.SparseLabelMatrix` — a CSR store of only the
non-abstain entries.  That is a memory-layout choice only: every statistic
and downstream consumer computes on the CSR entries (``LabelMatrix.csr``,
lowered once per matrix), so both holdings give identical results.

LF application itself runs on the :mod:`repro.labeling.engine` execution
engine: an execution plan (chunking policy, ``sequential`` / ``threads`` /
``processes`` backend) drives one pass whose per-chunk CSR triple blocks are
merged deterministically and become Λ, so ``LFApplier.apply`` streams over
any candidate iterable without materializing it.
"""

from repro.labeling.analysis import LFAnalysis
from repro.labeling.applier import (
    PUSHDOWN_MODES,
    VALIDATE_MODES,
    ApplyReport,
    LFApplier,
    TransportSummary,
)
from repro.labeling.declarative import (
    dictionary_lf,
    keyword_lf,
    lf_search,
    pattern_lf,
    weak_classifier_lf,
)
from repro.labeling.engine import ExecutionPlan, run_plan
from repro.labeling.generators import CrowdWorkerLFGenerator, OntologyLFGenerator
from repro.labeling.lf import LabelingFunction, labeling_function
from repro.labeling.matrix import LabelMatrix
from repro.labeling.pushdown import PushdownPlan, PushdownSummary, build_plan
from repro.labeling.sparse import SparseLabelMatrix

__all__ = [
    "ApplyReport",
    "PUSHDOWN_MODES",
    "VALIDATE_MODES",
    "PushdownPlan",
    "PushdownSummary",
    "TransportSummary",
    "build_plan",
    "ExecutionPlan",
    "run_plan",
    "SparseLabelMatrix",
    "LabelingFunction",
    "labeling_function",
    "lf_search",
    "pattern_lf",
    "keyword_lf",
    "dictionary_lf",
    "weak_classifier_lf",
    "OntologyLFGenerator",
    "CrowdWorkerLFGenerator",
    "LFApplier",
    "LabelMatrix",
    "LFAnalysis",
]
