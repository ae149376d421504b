"""Vectorized Gibbs/CD sampling kernels: compiled plans and reusable workspaces.

The reference sampler (:mod:`repro.labelmodel.gibbs`) resamples the LF-output
columns one at a time — a Python-level loop whose per-call numpy overhead
dominates on wide crowd-style suites (hundreds of worker LFs, a few dozen
votes each).  This module replaces that loop with a kernel layer compiled
once per (abstention pattern, factor-graph spec):

* :class:`SamplerPlan` — the compiled artifact.  It fixes the column-major
  (CSC) entry layout, per-entry column ids, the correlated-pair alignments,
  and a **graph coloring of the LF dependency graph**: two columns share a
  color only when they share no correlation edge *and* no correlated partner
  (a distance-2 coloring of the correlation graph), so resampling all
  same-colored columns in one fused update is a valid block-Gibbs kernel —
  the columns of a color are conditionally independent given the latent
  labels and the other colors.  Color ``0`` is reserved for the columns with
  no modeled partner at all, so the common correlation-free suite collapses
  to a single color and a sweep becomes O(#colors) numpy calls instead of an
  O(n)-column Python loop.

* :class:`SamplerWorkspace` — preallocated scratch (uniform-draw buffers,
  entry-sized float/int scratch, ``(m, k)`` score blocks, per-color score
  blocks) reused across sweeps *and* across CD epochs, so the steady-state
  chain performs no per-sweep allocations beyond numpy's unavoidable
  reduction outputs.

* chain drivers — :func:`run_joint_chain` (block-Gibbs over ``(Λ, Y)``) and
  :func:`resample_lf_entries` (Λ given fixed ``Y``), both operating on the
  plan's flat entry array.

Two draw strategies make the fused updates cheap:

* **Independent color, closed form.**  Without correlation factors the
  conditional of a voting entry is "match the latent label with probability
  ``q_j = e^{w_j} / (e^{w_j} + k - 1)``, otherwise vote uniformly among the
  ``k - 1`` other classes".  The kernel therefore never builds per-entry
  score blocks for color 0: it draws match coins against a precomputed
  per-entry ``q`` table and (for ``k > 2``) maps a second uniform buffer to
  the non-matching classes in place.  For the binary vocabulary the update
  is pushed further: writing ``Λ_{ij} = y_i · s_{ij}`` with ``s_{ij} = ±1``
  the per-row label score factorizes as ``y_i · Σ_j s_{ij} w_j``, so a sweep
  needs no per-entry gather of ``y`` at all and the entry values are only
  materialized after the final sweep.

* **Correlated colors, inverse-CDF.**  Colors ``≥ 1`` build their score
  blocks in workspace buffers (accuracy term scattered by class, correlation
  terms accumulated over the precompiled alignments) and draw by inverse CDF
  on an in-place exponentiated cumulative sum — no per-column ``np.zeros``,
  no normalizing softmax pass, no temporary cumulative array.

The label-step categorical draws use the same in-place inverse-CDF, replacing
the reference sampler's softmax/cumsum/argmax churn.  The kernels draw from
exactly the same conditionals as the reference implementation — bit-identical
where no sampling is involved (``label_posteriors``, EM), and equal in
distribution for the chains (verified by ``tests/test_kernels.py``).  Like
the reference loop they see Λ only as its column-major entries: no kernel
knows whether the caller held the matrix densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import LabelModelError
from repro.labeling.sparse import intersect_sorted, lower_to_sparse, ranges_gather
from repro.labelmodel.factor_graph import FactorGraphSpec
from repro.types import NEGATIVE, POSITIVE
from repro.utils.mathutils import sigmoid

#: Accepted values of the ``kernel`` selector exposed by the samplers, the
#: generative model, and the pipeline config.
KERNELS = ("auto", "vectorized", "reference")


def resolve_kernel(kernel: str) -> str:
    """Validate a kernel selector and resolve ``"auto"`` to the default."""
    if kernel not in KERNELS:
        raise LabelModelError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    return "vectorized" if kernel == "auto" else kernel


def color_columns(spec: FactorGraphSpec) -> np.ndarray:
    """Distance-2 greedy coloring of the LF correlation graph.

    Returns one color id per column.  Columns with no modeled partner all
    share the reserved color ``0``; correlated columns are greedily colored
    from ``1`` upward (ascending column id, so the coloring is deterministic)
    such that two columns never share a color when they are correlated *or*
    share a correlated partner.  The direct-edge constraint is what block-
    Gibbs validity requires (no factor connects two same-colored columns);
    the shared-partner constraint additionally keeps every partner read
    within a fused update unambiguous and cheap to precompile.
    """
    colors = np.zeros(spec.num_lfs, dtype=np.int64)
    if not spec.correlations:
        return colors
    adjacency = spec.neighbor_sets()
    for j in range(spec.num_lfs):
        if not adjacency[j]:
            continue
        conflicts = set(adjacency[j])
        for partner in adjacency[j]:
            conflicts |= adjacency[partner]
        conflicts.discard(j)
        used = {int(colors[other]) for other in conflicts if other < j and adjacency[other]}
        color = 1
        while color in used:
            color += 1
        colors[j] = color
    return colors


@dataclass
class _ColorUpdate:
    """One correlated color's fused update, fully precompiled.

    ``positions`` are the absolute plan-entry positions of the color's
    entries (ascending); ``rows`` their row ids.  The correlation terms are
    flattened over the color: aligned pair ``p`` adds weight
    ``weights[weight_indices[p]] · 1{Λ_self = Λ_partner}`` to the block-local
    entry ``local[p]``, reading the partner's current value at absolute
    position ``partners[p]``.
    """

    color: int
    positions: np.ndarray
    rows: np.ndarray
    local: np.ndarray
    partners: np.ndarray
    weight_indices: np.ndarray


class SamplerPlan:
    """A Gibbs sweep schedule compiled once per (abstention pattern, spec).

    The plan owns everything about a chain that does not change while it
    runs: the CSC-ordered entry layout (rows, columns, observed values), the
    graph coloring, the per-color gather indices, and the correlated-pair
    alignments.  Chains mutate only a flat value array laid out in plan
    order; the storage's ``with_csc_data`` turns that array back into a
    matrix.

    Use :meth:`compile` to build one from a label matrix (lowered to its CSR
    entries first, so every input form yields the same plan and the kernels
    consume the same RNG stream), and :meth:`select_rows` to derive the plan of
    a row minibatch without recompiling (no re-coloring, no re-alignment —
    the contrastive-divergence loop builds one plan per fit and derives the
    per-batch views from it).
    """

    def __init__(
        self,
        spec: FactorGraphSpec,
        num_rows: int,
        entry_rows: np.ndarray,
        entry_cols: np.ndarray,
        entry_values: np.ndarray,
        colors: np.ndarray,
        independent: Optional[np.ndarray],
        color_updates: list[_ColorUpdate],
    ) -> None:
        self.spec = spec
        self.num_rows = int(num_rows)
        self.entry_rows = entry_rows
        self.entry_cols = entry_cols
        self.entry_values = entry_values
        self.colors = colors
        #: Absolute positions of the independent (color-0) entries, or
        #: ``None`` when *every* entry is independent — the fast path that
        #: skips all gathers.
        self.independent = independent
        self.color_updates = color_updates
        if independent is None:
            self.independent_rows = entry_rows
        else:
            self.independent_rows = entry_rows[independent]
        if color_updates:
            self.correlated_positions: Optional[np.ndarray] = np.concatenate(
                [update.positions for update in color_updates]
            )
            self.max_color_block = max(update.positions.size for update in color_updates)
        else:
            self.correlated_positions = None
            self.max_color_block = 0

    # ------------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        """Number of (non-abstain) entries the plan schedules."""
        return int(self.entry_rows.size)

    @property
    def num_colors(self) -> int:
        """Number of color classes (fused updates per sweep)."""
        return int(self.colors.max()) + 1 if self.colors.size else 1

    # ----------------------------------------------------------------- compile
    @classmethod
    def compile(cls, spec: FactorGraphSpec, label_matrix) -> "SamplerPlan":
        """Compile the plan for a label matrix (any form ``lower_to_sparse`` takes).

        The plan's entries are the storage's CSC view: column-major order
        with rows ascending within each column.
        """
        sparse = lower_to_sparse(label_matrix)
        num_rows, num_cols = sparse.shape
        col_indptr, entry_rows, entry_values = sparse.csc()
        entry_cols = sparse.entry_cols()
        if num_cols != spec.num_lfs:
            raise LabelModelError(
                f"label matrix has {num_cols} LFs, spec expects {spec.num_lfs}"
            )

        colors = color_columns(spec)
        counts = np.diff(col_indptr)
        if not spec.correlations:
            return cls(
                spec, num_rows, entry_rows, entry_cols, entry_values, colors, None, []
            )

        # Per-color gather indices (color 0 = the independent columns).
        independent_cols = np.flatnonzero(colors == 0)
        independent = ranges_gather(col_indptr[independent_cols], counts[independent_cols])

        # Pairwise alignments, computed once per pair and distributed to the
        # two directed updates (j reads k, k reads j).
        per_color_self: dict[int, list[np.ndarray]] = {}
        per_color_partner: dict[int, list[np.ndarray]] = {}
        per_color_weight: dict[int, list[np.ndarray]] = {}
        for offset, (j, k) in enumerate(spec.correlations):
            weight_index = 2 * spec.num_lfs + offset
            rows_j = entry_rows[col_indptr[j] : col_indptr[j + 1]]
            rows_k = entry_rows[col_indptr[k] : col_indptr[k + 1]]
            in_j, in_k = intersect_sorted(rows_j, rows_k)
            absolute_j = int(col_indptr[j]) + in_j
            absolute_k = int(col_indptr[k]) + in_k
            for self_color, self_abs, partner_abs in (
                (int(colors[j]), absolute_j, absolute_k),
                (int(colors[k]), absolute_k, absolute_j),
            ):
                per_color_self.setdefault(self_color, []).append(self_abs)
                per_color_partner.setdefault(self_color, []).append(partner_abs)
                per_color_weight.setdefault(self_color, []).append(
                    np.full(self_abs.size, weight_index, dtype=np.int64)
                )

        color_updates: list[_ColorUpdate] = []
        for color in range(1, int(colors.max()) + 1):
            color_cols = np.flatnonzero(colors == color)
            positions = ranges_gather(col_indptr[color_cols], counts[color_cols])
            if positions.size == 0:
                continue
            # Every color >= 1 holds correlated columns, so it has alignments.
            self_abs = np.concatenate(per_color_self[color])
            color_updates.append(
                _ColorUpdate(
                    color=color,
                    positions=positions,
                    rows=entry_rows[positions],
                    local=np.searchsorted(positions, self_abs),
                    partners=np.concatenate(per_color_partner[color]),
                    weight_indices=np.concatenate(per_color_weight[color]),
                )
            )
        return cls(
            spec,
            num_rows,
            entry_rows,
            entry_cols,
            entry_values,
            colors,
            independent,
            color_updates,
        )

    # ------------------------------------------------------------- derivation
    def select_rows(self, row_indices: Sequence[int] | np.ndarray) -> "SamplerPlan":
        """Derive the plan of a row subset (e.g. a CD minibatch) in O(nnz).

        ``row_indices`` must be distinct; they become rows ``0..b-1`` of the
        derived plan in the given order.  Because every alignment pairs two
        entries of the *same* row, the precompiled correlation structure
        survives row selection by pure masking — no re-coloring, no new
        intersections, no per-column Python work.
        """
        row_indices = np.asarray(row_indices, dtype=np.int64)
        row_map = np.full(self.num_rows, -1, dtype=np.int64)
        row_map[row_indices] = np.arange(row_indices.size, dtype=np.int64)
        mapped_rows = row_map[self.entry_rows]
        keep = mapped_rows >= 0
        new_position = np.cumsum(keep) - 1  # old absolute -> new absolute where kept

        entry_rows = mapped_rows[keep]
        entry_cols = self.entry_cols[keep]
        entry_values = self.entry_values[keep]

        if self.independent is None:
            independent: Optional[np.ndarray] = None
        else:
            kept_independent = self.independent[keep[self.independent]]
            independent = new_position[kept_independent]

        color_updates: list[_ColorUpdate] = []
        for update in self.color_updates:
            keep_block = keep[update.positions]
            positions = new_position[update.positions[keep_block]]
            if positions.size == 0:
                continue
            new_local = np.cumsum(keep_block) - 1
            pair_keep = keep_block[update.local]
            color_updates.append(
                _ColorUpdate(
                    color=update.color,
                    positions=positions,
                    rows=entry_rows[positions],
                    local=new_local[update.local[pair_keep]],
                    partners=new_position[update.partners[pair_keep]],
                    weight_indices=update.weight_indices[pair_keep],
                )
            )
        return SamplerPlan(
            self.spec,
            row_indices.size,
            entry_rows,
            entry_cols,
            entry_values,
            self.colors,
            independent,
            color_updates,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"SamplerPlan(shape=({self.num_rows}, {self.spec.num_lfs}), "
            f"nnz={self.nnz}, num_colors={self.num_colors})"
        )


class SamplerWorkspace:
    """Preallocated sampler scratch, reused across sweeps and CD epochs.

    Sized for one plan and reusable for any plan derived from it via
    :meth:`SamplerPlan.select_rows` (derived plans are never larger).  The
    chain drivers slice every buffer to the active plan's sizes, so a single
    workspace serves the whole training loop.
    """

    def __init__(self, plan: SamplerPlan) -> None:
        cardinality = plan.spec.cardinality
        self.capacity_entries = plan.nnz
        self.capacity_rows = plan.num_rows
        self.capacity_block = plan.max_color_block
        self.cardinality = cardinality
        #: Uniform draws for the entry updates (match coins / inverse CDF).
        self.entry_uniforms = np.empty(plan.nnz)
        #: Secondary per-entry uniforms (categorical "other class" draws).
        self.entry_uniforms2 = np.empty(plan.nnz if cardinality > 2 else 0)
        #: Chain state: the current entry values in plan order.
        self.entry_values = np.empty(plan.nnz, dtype=np.int64)
        #: Float scratch (signed weights, weighted votes).
        self.entry_scratch = np.empty(plan.nnz)
        #: Integer scratch (candidate classes, flattened bincount indices).
        self.entry_index = np.empty(plan.nnz, dtype=np.int64)
        #: Per-entry gathered latent labels.
        self.entry_labels = np.empty(plan.nnz, dtype=np.int64)
        #: Uniform draws for the label step.
        self.row_uniforms = np.empty(plan.num_rows)
        #: Float row scratch (label scores, posteriors).
        self.row_scratch = np.empty(plan.num_rows)
        #: Uniform draws for the correlated color updates (separate from the
        #: entry buffer, which the binary independent update keeps alive as
        #: its factored sign margins between sweeps).
        self.block_uniforms = np.empty(plan.max_color_block)
        #: ``(m, k)`` label-score block (categorical only).
        self.row_scores = (
            np.empty((plan.num_rows, cardinality)) if cardinality > 2 else None
        )
        #: Fused per-color score block (correlated categorical colors only).
        self.block_scores = (
            np.empty(plan.max_color_block * cardinality)
            if plan.max_color_block and cardinality > 2
            else None
        )

    def accommodates(self, plan: SamplerPlan) -> bool:
        """Whether this workspace is large enough to drive ``plan``."""
        return (
            plan.nnz <= self.capacity_entries
            and plan.num_rows <= self.capacity_rows
            and plan.max_color_block <= self.capacity_block
            and plan.spec.cardinality == self.cardinality
        )


def _sigmoid_into(scores: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Buffered logistic sigmoid: ``out = 1 / (1 + exp(-scores))``.

    ``scores`` is clipped in place to ±60 (far past float64 saturation of
    the sigmoid) so the single ``exp`` pass cannot overflow — the same
    result as the masked two-branch :func:`repro.utils.mathutils.sigmoid`
    without its per-call boolean-index churn, which dominates when the
    label step runs every sweep.
    """
    np.clip(scores, -60.0, 60.0, out=scores)
    np.negative(scores, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def _inverse_cdf_draw(scores: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Categorical draws from unnormalized log-scores, in place.

    ``scores`` is a ``(b, k)`` block of factor energies that is destroyed:
    shifted by its row maximum, exponentiated, and cumulatively summed in
    place.  ``uniforms`` must already hold ``b`` uniform draws; the returned
    classes are ``1..k``.  No normalizing softmax pass and no cumulative
    temporary — the inverse CDF runs on the unnormalized sums directly.
    """
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    np.cumsum(scores, axis=1, out=scores)
    thresholds = uniforms * scores[:, -1]
    return (scores < thresholds[:, None]).sum(axis=1).astype(np.int64) + 1


class _ChainGibbsState:
    """One chain's per-call state: weight gathers, buffers, draw routines.

    Created by the chain drivers; precomputes everything that is fixed while
    the weights are fixed (per-entry accuracy weights, match-probability
    tables) and exposes the three kernel steps — entry resampling, label
    drawing, materialization.  For the binary independent color the entry
    values are kept in factored ``Λ = y · s`` form between sweeps and only
    scattered into the value array by :meth:`materialize`.
    """

    def __init__(
        self,
        plan: SamplerPlan,
        workspace: SamplerWorkspace,
        rng: np.random.Generator,
        weights: np.ndarray,
    ) -> None:
        if not workspace.accommodates(plan):
            raise LabelModelError(
                "workspace is too small for this plan; build it from the largest "
                "plan (SamplerWorkspace(plan)) and reuse it for derived plans"
            )
        self.plan = plan
        self.workspace = workspace
        self.rng = rng
        spec = plan.spec
        self.cardinality = spec.cardinality
        self.weights = np.asarray(weights, dtype=float)
        _, accuracy, _ = spec.split_weights(self.weights)
        self.accuracy = accuracy
        self.accuracy_entries = accuracy[plan.entry_cols]
        # Match probability of an independent voting entry:
        # q_j = e^{w_j} / (e^{w_j} + (k - 1)); for k = 2 this is sigmoid(w_j).
        if self.cardinality > 2:
            match_prob = 1.0 / (1.0 + (self.cardinality - 1.0) * np.exp(-accuracy))
        else:
            match_prob = sigmoid(accuracy)
        if plan.independent is None:
            self.q_entries = match_prob[plan.entry_cols]
            self.accuracy_independent = self.accuracy_entries
        else:
            independent_cols = plan.entry_cols[plan.independent]
            self.q_entries = match_prob[independent_cols]
            self.accuracy_independent = accuracy[independent_cols]
        self.independent_size = self.q_entries.size
        # Chain value state, initialized from the observed entries.
        self.data = workspace.entry_values[: plan.nnz]
        np.copyto(self.data, plan.entry_values)
        # Binary factored form: per-entry sign margins ``q - u`` (≥ 0 means
        # "matches y") plus the y they were drawn against.
        self._pending_margin: Optional[np.ndarray] = None
        self._pending_y: Optional[np.ndarray] = None

    # -------------------------------------------------------------- entry step
    def resample_entries(self, y: np.ndarray) -> None:
        """One fused sweep over all colors, conditioned on ``y``."""
        self._resample_independent(y)
        for update in self.plan.color_updates:
            self._resample_color(update, y)

    def _independent_view(self, buffer: np.ndarray) -> np.ndarray:
        return buffer[: self.independent_size]

    def _resample_independent(self, y: np.ndarray) -> None:
        if self.independent_size == 0:
            return
        plan, ws = self.plan, self.workspace
        uniforms = self._independent_view(ws.entry_uniforms)
        self.rng.random(out=uniforms)
        if self.cardinality == 2:
            # Factored update: Λ_ij = y_i · s_ij with s = sign(q - u).  The
            # buffer is turned into the margins in place; the label step
            # consumes Σ_j s_ij w_j via one copysign pass, so nothing is
            # materialized until the chain ends.
            np.subtract(self.q_entries, uniforms, out=uniforms)
            self._pending_margin = uniforms
            self._pending_y = y
            return
        rows = plan.independent_rows
        labels = self._independent_view(ws.entry_labels)
        np.take(y, rows, out=labels)
        # Non-matching class: floor(u2 · (k-1)) ∈ {0..k-2}, shifted past y.
        others_float = self._independent_view(ws.entry_uniforms2)
        self.rng.random(out=others_float)
        np.multiply(others_float, self.cardinality - 1, out=others_float)
        others = self._independent_view(ws.entry_index)
        np.copyto(others, others_float, casting="unsafe")
        others += 1
        others += others >= labels
        np.copyto(others, labels, where=uniforms < self.q_entries)
        if plan.independent is None:
            np.copyto(self.data, others)
        else:
            self.data[plan.independent] = others

    def _resample_color(self, update: _ColorUpdate, y: np.ndarray) -> None:
        block = update.positions.size
        ws = self.workspace
        uniforms = ws.block_uniforms[:block]
        self.rng.random(out=uniforms)
        if self.cardinality == 2:
            scores = self.accuracy_entries[update.positions] * y[update.rows]
            if update.local.size:
                contributions = self.weights[update.weight_indices] * self.data[
                    update.partners
                ]
                np.add.at(scores, update.local, contributions)
            draws = np.where(uniforms < sigmoid(scores), POSITIVE, NEGATIVE)
        else:
            k = self.cardinality
            scores = ws.block_scores[: block * k]
            scores.fill(0.0)
            flat_match = np.arange(block, dtype=np.int64) * k + (y[update.rows] - 1)
            scores[flat_match] = self.accuracy_entries[update.positions]
            if update.local.size:
                np.add.at(
                    scores,
                    update.local * k + (self.data[update.partners] - 1),
                    self.weights[update.weight_indices],
                )
            draws = _inverse_cdf_draw(scores.reshape(block, k), uniforms)
        self.data[update.positions] = draws

    # -------------------------------------------------------------- label step
    def draw_labels(self, class_prior_weight: float | np.ndarray) -> np.ndarray:
        """Draw ``y ~ P(y | Λ, w)`` from the current chain state."""
        if self.cardinality > 2:
            return self._draw_labels_categorical(class_prior_weight)
        return self._draw_labels_binary(class_prior_weight)

    def _draw_labels_binary(self, class_prior_weight: float | np.ndarray) -> np.ndarray:
        plan, ws = self.plan, self.workspace
        num_rows = plan.num_rows
        if self._pending_margin is not None:
            # Factored independent entries: score contribution y_i · t_i with
            # t_i = Σ_j s_ij w_j and s_ij = sign(margin) — two in-place passes
            # and one reduction; no materialization, no per-entry gather of y.
            # (Not copysign(w, margin): that would drop the sign of a
            # negative — adversarial — accuracy weight, and the match
            # probability q = σ(w) < ½ must pair with a *negative* matched
            # contribution there.)
            signed = self._independent_view(ws.entry_scratch)
            np.sign(self._pending_margin, out=signed)
            signed *= self.accuracy_independent
            scores = np.bincount(
                plan.independent_rows, weights=signed, minlength=num_rows
            )
            scores *= self._pending_y
        else:
            scores = np.zeros(num_rows)
            if self.independent_size:
                independent = (
                    slice(None) if plan.independent is None else plan.independent
                )
                votes = self._independent_view(ws.entry_scratch)
                np.multiply(
                    self.data[independent], self.accuracy_independent, out=votes
                )
                scores += np.bincount(
                    plan.independent_rows, weights=votes, minlength=num_rows
                )
        correlated = plan.correlated_positions
        if correlated is not None:
            votes = ws.entry_scratch[: correlated.size]
            np.multiply(
                self.data[correlated], self.accuracy_entries[correlated], out=votes
            )
            scores += np.bincount(
                plan.entry_rows[correlated], weights=votes, minlength=num_rows
            )
        scores += class_prior_weight
        scores *= 2.0
        posteriors = _sigmoid_into(scores, ws.row_scratch[:num_rows])
        uniforms = ws.row_uniforms[:num_rows]
        self.rng.random(out=uniforms)
        return np.where(uniforms < posteriors, POSITIVE, NEGATIVE).astype(np.int64)

    def _draw_labels_categorical(
        self, class_prior_weight: float | np.ndarray
    ) -> np.ndarray:
        plan, ws = self.plan, self.workspace
        num_rows, k = plan.num_rows, self.cardinality
        flat = ws.entry_index[: plan.nnz]
        np.multiply(plan.entry_rows, k, out=flat)
        flat += self.data
        flat -= 1
        scores = np.bincount(
            flat, weights=self.accuracy_entries, minlength=num_rows * k
        ).reshape(num_rows, k)
        block = ws.row_scores[:num_rows]
        np.multiply(scores, 2.0, out=block)
        block += 2.0 * np.asarray(class_prior_weight, dtype=float)
        uniforms = ws.row_uniforms[:num_rows]
        self.rng.random(out=uniforms)
        return _inverse_cdf_draw(block, uniforms)

    # --------------------------------------------------------- materialization
    def materialize(self) -> np.ndarray:
        """The current entry values in plan order (resolving the factored form)."""
        if self._pending_margin is not None:
            plan, ws = self.plan, self.workspace
            labels = self._independent_view(ws.entry_labels)
            np.take(self._pending_y, plan.independent_rows, out=labels)
            negated = self._independent_view(ws.entry_index)
            np.negative(labels, out=negated)
            np.copyto(negated, labels, where=self._pending_margin >= 0.0)
            if plan.independent is None:
                np.copyto(self.data, negated)
            else:
                self.data[plan.independent] = negated
            self._pending_margin = None
            self._pending_y = None
        return self.data.copy()


def run_joint_chain(
    plan: SamplerPlan,
    workspace: Optional[SamplerWorkspace],
    rng: np.random.Generator,
    weights: np.ndarray,
    sweeps: int = 1,
    initial_y: Optional[np.ndarray] = None,
    class_prior_weight: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Block-Gibbs over ``(Λ_values, Y)``; returns plan-ordered values and ``y``.

    The chain starts from the plan's observed entry values; when
    ``initial_y`` is ``None`` the first ``y`` is drawn from the observed
    matrix exactly like the reference sampler.  Pass a ``workspace`` to reuse
    buffers across calls (CD epochs); one sized for the parent plan serves
    every derived minibatch plan.
    """
    state = _ChainGibbsState(plan, workspace or SamplerWorkspace(plan), rng, weights)
    if initial_y is None:
        y = state.draw_labels(class_prior_weight)
    else:
        y = np.array(initial_y, dtype=np.int64, copy=True)
    for _ in range(sweeps):
        state.resample_entries(y)
        y = state.draw_labels(class_prior_weight)
    return state.materialize(), y


def resample_lf_entries(
    plan: SamplerPlan,
    workspace: Optional[SamplerWorkspace],
    rng: np.random.Generator,
    weights: np.ndarray,
    y: np.ndarray,
    sweeps: int = 1,
) -> np.ndarray:
    """Resample ``Λ`` given fixed ``y``; returns the plan-ordered entry values."""
    state = _ChainGibbsState(plan, workspace or SamplerWorkspace(plan), rng, weights)
    y = np.asarray(y, dtype=np.int64)
    for _ in range(sweeps):
        state.resample_entries(y)
    return state.materialize()
