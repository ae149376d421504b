"""The generative label model and its surrounding machinery.

This package is the reproduction of the paper's core technical contribution
(Sections 2.2 and 3):

* :mod:`repro.labelmodel.majority` — unweighted and weighted majority vote,
* :mod:`repro.labelmodel.em` — the one EM kernel (canonical correlation
  pairs, entries of Λ, E-step, damped balance update, M-step) every
  label-model fit drives,
* :mod:`repro.labelmodel.generative` — the generative model, fit by EM over
  that kernel: one accuracy weight per LF, with modeled correlations acting
  as a per-vote discount (the exact E-step stands in for the paper's Gibbs
  sampling, so nothing in this package samples),
* :mod:`repro.labelmodel.online` — the online incremental estimator:
  :class:`OnlineGenerativeModel` folds chunks into EM sufficient statistics
  at O(chunk) cost, supports LF add/remove without a full refit, serves
  versioned posteriors under a staleness bound, and drains to a
  bit-identical batch fit,
* :mod:`repro.labelmodel.dawid_skene` — a Dawid–Skene EM estimator (over the
  per-worker column entries) used for the multi-class crowdsourcing task and
  as a related-work baseline,
* :mod:`repro.labelmodel.advantage` — the modeling advantage A_w, optimal
  advantage A*, and the optimizer's upper bound Ã*,
* :mod:`repro.labelmodel.structure` — pseudolikelihood-style structure
  learning of pairwise LF correlations with an ℓ1 selection threshold,
* :mod:`repro.labelmodel.elbow` — elbow-point selection over the threshold
  sweep,
* :mod:`repro.labelmodel.optimizer` — the Algorithm-1 modeling-strategy
  optimizer,
* :mod:`repro.labelmodel.theory` — the low/high-density bounds of Section 3.1.

Every estimator here accepts dense label matrices, CSR storage
(:class:`repro.labeling.sparse.SparseLabelMatrix`), a
:class:`repro.labeling.LabelMatrix` of either backing and scipy sparse
matrices.  All of them — EM, Dawid–Skene, the voters, the advantage bound,
the optimizer and the structure learner — lower their input to CSR at the
boundary (:func:`repro.labeling.sparse.lower_to_sparse`) and have one
implementation over the non-abstain entries, so results do not depend on
the backing and cost scales with the number of emitted labels.

Two label vocabularies are supported throughout: the paper's signed binary
encoding (``{-1, 0, +1}``) and categorical labels (``0`` = abstain, classes
``1..k``).  :class:`GenerativeModel`, the EM kernel, and the structure
learner take the task's cardinality as a parameter
— the binary model is the ``k = 2`` case with its signed arithmetic kept
bit-compatible, categorical inputs run the k-ary form (symmetric per-LF
accuracy against ``k - 1`` uniform wrong classes, softmax posteriors, a
damped k-vector class-balance re-estimate) — so multi-class tasks such as the
crowdsourcing experiment train through the generative model, with
:class:`DawidSkeneModel` retained as a cross-check baseline.
"""

from repro.labelmodel.advantage import (
    estimate_advantage_bound,
    modeling_advantage,
    optimal_advantage,
)
from repro.labelmodel.dawid_skene import DawidSkeneModel
from repro.labelmodel.elbow import select_elbow_point
from repro.labelmodel.generative import GenerativeModel
from repro.labelmodel.majority import (
    MajorityVoter,
    MultiClassMajorityVoter,
    WeightedMajorityVoter,
)
from repro.labelmodel.online import OnlineGenerativeModel, ServedPosteriors
from repro.labelmodel.optimizer import ModelingStrategy, ModelingStrategyOptimizer
from repro.labelmodel.structure import StructureLearner
from repro.labelmodel.theory import high_density_upper_bound, low_density_upper_bound

__all__ = [
    "MajorityVoter",
    "MultiClassMajorityVoter",
    "WeightedMajorityVoter",
    "GenerativeModel",
    "OnlineGenerativeModel",
    "ServedPosteriors",
    "DawidSkeneModel",
    "modeling_advantage",
    "optimal_advantage",
    "estimate_advantage_bound",
    "StructureLearner",
    "select_elbow_point",
    "ModelingStrategy",
    "ModelingStrategyOptimizer",
    "low_density_upper_bound",
    "high_density_upper_bound",
]
