"""Shared base class for noise-aware discriminative models.

All end models train on *probabilistic* labels ``Ỹ_i ∈ [0, 1]`` by
minimizing the noise-aware loss (paper Section 2.3)::

    θ̂ = argmin_θ  Σ_i  E_{y ~ Ỹ_i}[ ℓ(h_θ(x_i), y) ]

For the logistic loss this expectation is simply the cross-entropy against
the soft label, so hard labels (0/1) are the special case of confident
probabilistic labels.

**One trainer, two front doors.**  :class:`NoiseAwareClassifier` owns the
whole optimization: seed → initialization draw → Adam on the packed
parameter vector → optional epoch-checkpoint restore → epoch loop →
per-epoch checkpoint save → publish.  The concrete models (logistic,
softmax, MLP) supply only their parameter packing, one minibatch gradient,
their target canonicalization and ``predict_proba``.  The trainer is fed by

* ``fit(X, Ỹ)`` — a materialized matrix, visited in a fresh row permutation
  per epoch (``shuffle`` unset or ``True``) or in contiguous row order
  (``shuffle=False``);
* ``fit_stream(blocks)`` — a *re-iterable block source*: a sequence of
  ``(feature block, target block)`` pairs or a zero-argument callable
  returning a fresh iterator over them.  The model trains without ever
  holding the full ``(m, d)`` feature matrix, dense or otherwise.  Arbitrary
  incoming block boundaries are re-chunked into exact ``batch_size``
  minibatches (:func:`iter_rebatched`), so the minibatch sequence — and
  therefore the trained weights — is *identical* to ``fit(X, Ỹ)`` with
  ``shuffle=False`` on the concatenated blocks, whatever chunk size the
  producer used.  Global shuffling is impossible without random access,
  which is the one semantic difference from the shuffled ``fit`` default.

**What is paid per fit and what per epoch.**  A block *sequence* (any
re-iterable that is not a callable) visits the same minibatches every
epoch, so its minibatch list is planned once per fit and replayed:
row-range views of the caller's arrays, a small merged copy only where a
minibatch spans two blocks, targets canonicalized once, the complement
``1 − Ỹ`` of binary targets and each minibatch's row count.  A callable
source promises a fresh pass every epoch, so it re-batches per epoch;
``fit`` does too, shuffled (a new permutation each epoch) or not.  The
pipeline hands its blocks over as a sequence in both of its runs: built in
RAM (:meth:`~repro.discriminative.sparse_features.CSRFeatureMatrix.from_chunk`)
or read back once from a checkpointed run's store
(:meth:`~repro.labeling.blockstore.ChunkCheckpointer.feature_blocks`), with
their column ids and values in the same narrow dtypes either way (int16 and
int8 for hashed n-gram counts, :func:`repro.utils.csr.narrowed`).  The
trainer carries those as they are — every product and carve of a CSR block
gathers, multiplies or assigns into float64, which holds any stored integer
exactly — so both runs train on the same bits and hold X at about 3 B per
entry.  Neither door writes to the blocks it is handed.
"""

from __future__ import annotations

import abc
from numbers import Integral
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.discriminative.adam import AdamOptimizer
from repro.discriminative.sparse_features import CSRFeatureMatrix, as_float_features
from repro.exceptions import ConfigurationError
from repro.types import NEGATIVE, POSITIVE
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from repro.labeling.blockstore import EpochCheckpoint

#: One streamed training block: features (dense array or CSR) + targets
#: (``(b,)`` soft labels or ``(b, k)`` distributions).
FeatureBlock = Union[np.ndarray, CSRFeatureMatrix]
Block = tuple[FeatureBlock, np.ndarray]
#: A re-iterable source of blocks: a sequence, any re-iterable container, or
#: a zero-argument callable returning a fresh iterator (e.g. one that
#: re-featurizes a candidate stream per epoch).
BlockSource = Union[Callable[[], Iterable[Block]], Iterable[Block]]
#: One minibatch as a model's step consumes it: ``(features, targets,
#: complement, weights, rows)`` — ``complement`` is ``1 − targets`` for
#: binary targets (``None`` for distributions), ``weights`` is ``None`` when
#: every example weighs 1, and ``rows`` is the minibatch's row count.
Batch = tuple[FeatureBlock, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], int]


def _batch(features: FeatureBlock, targets: np.ndarray, weights: Optional[np.ndarray]) -> Batch:
    complement = 1.0 - targets if targets.ndim == 1 else None
    return features, targets, complement, weights, targets.shape[0]


def iter_materialized_batches(
    rng: Optional[np.random.Generator],
    batch_size: int,
    features: FeatureBlock,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
) -> Iterator[Batch]:
    """One epoch of materialized minibatches over ``features`` and its rows'
    ``targets`` / ``weights``.

    The single batching schedule all three end models share: given an
    ``rng``, a fresh row permutation (drawn lazily, so the RNG stream
    matches the historical per-epoch ``rng.permutation`` call order), else
    contiguous row-order slices — exactly the sequence
    :func:`iter_rebatched` reproduces from a block stream.
    """
    num_examples = int(features.shape[0])
    order = None if rng is None else rng.permutation(num_examples)
    for start in range(0, num_examples, batch_size):
        stop = min(start + batch_size, num_examples)
        if order is None:
            yield _batch(
                _slice_feature_rows(features, start, stop),
                targets[start:stop],
                None if weights is None else weights[start:stop],
            )
        else:
            rows = order[start:stop]
            yield _batch(features[rows], targets[rows], None if weights is None else weights[rows])


def require_nonempty_batches(batches: Iterable[Batch]) -> Iterator[Batch]:
    """Pass batches through; raise if an epoch produced none.

    Guards every trainer's epoch loop: a silently empty stream would
    otherwise "train" to the random initialization.
    """
    empty = True
    for batch in batches:
        empty = False
        yield batch
    if empty:
        raise ConfigurationError("training produced no examples")


def _planned(batches: Iterable[Batch]) -> Callable[[np.random.Generator], list[Batch]]:
    """A minibatch list built once and replayed by every epoch."""
    plan = list(require_nonempty_batches(batches))
    return lambda rng: plan


def _merge_feature_parts(parts: Sequence[FeatureBlock]) -> FeatureBlock:
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts, axis=0)
    if all(isinstance(part, CSRFeatureMatrix) for part in parts):
        return CSRFeatureMatrix.vstack(list(parts))
    raise ConfigurationError(
        "streaming blocks mix dense and CSR feature storage; emit one storage "
        "kind per stream"
    )


def _slice_feature_rows(block: FeatureBlock, start: int, stop: int) -> FeatureBlock:
    if isinstance(block, CSRFeatureMatrix):
        return block.row_range(start, stop)
    return block[start:stop]


def iter_rebatched(blocks: Iterable[Block], batch_size: int) -> Iterator[Block]:
    """Re-chunk incoming blocks into exact ``batch_size`` minibatches.

    Rows keep their stream order, so the produced minibatch sequence is
    independent of the producer's chunking — the invariant the
    streaming-vs-materialized differential tests pin down.  A minibatch that
    lies inside one block is a row-range view of it; only one that spans a
    block boundary is merged, from the carried-over tail (less than one
    batch) and the next block's head, so memory stays O(batch) beyond the
    incoming block.  The final minibatch may be ragged.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    feature_parts: list[FeatureBlock] = []
    target_parts: list[np.ndarray] = []
    width: Optional[int] = None
    buffered = 0
    for features, targets in blocks:
        targets = np.asarray(targets, dtype=float)
        num_rows = int(features.shape[0])
        if targets.shape[0] != num_rows:
            raise ConfigurationError(
                f"block features have {num_rows} rows but targets {targets.shape[0]}"
            )
        if width is None:
            width = int(features.shape[1])
        elif int(features.shape[1]) != width:
            raise ConfigurationError(
                f"streaming blocks disagree on feature width: {width} vs "
                f"{features.shape[1]} (unfitted or misconfigured featurizer?)"
            )
        start = min(batch_size - buffered, num_rows) if buffered else 0
        if start:
            feature_parts.append(_slice_feature_rows(features, 0, start))
            target_parts.append(targets[:start])
            buffered += start
            if buffered < batch_size:
                continue
            yield _merge_feature_parts(feature_parts), np.concatenate(target_parts)
            feature_parts, target_parts, buffered = [], [], 0
        while num_rows - start >= batch_size:
            yield (
                _slice_feature_rows(features, start, start + batch_size),
                targets[start : start + batch_size],
            )
            start += batch_size
        if start < num_rows:
            feature_parts = [_slice_feature_rows(features, start, num_rows)]
            target_parts = [targets[start:]]
            buffered = num_rows - start
    if buffered:
        yield _merge_feature_parts(feature_parts), np.concatenate(target_parts)


def as_soft_labels(labels: Sequence[float] | np.ndarray) -> np.ndarray:
    """Canonicalize training labels into soft positive-class probabilities.

    Accepts probabilities in [0, 1] or hard labels in {-1, +1}; NaN is
    neither.
    """
    array = np.asarray(labels, dtype=float)
    if array.ndim != 1:
        raise ConfigurationError(f"labels must be 1-dimensional, got shape {array.shape}")
    if (np.abs(array) == 1.0).all():
        return (array == 1.0).astype(float)
    if not (array.min() >= 0.0 and array.max() <= 1.0):
        raise ConfigurationError(
            "labels must be probabilities in [0, 1] or hard labels in {-1, +1}"
        )
    return array


class NoiseAwareClassifier(abc.ABC):
    """Base of the noise-aware end models: the one Adam minibatch trainer.

    :meth:`fit` and :meth:`fit_stream` are the two front doors of
    :meth:`_train_minibatches`; a concrete model supplies only what differs
    between models — :meth:`_canonical_targets`, :meth:`_init_params`,
    :meth:`_gradients`, :meth:`_publish` and :meth:`predict_proba` — and may
    override the two optional hooks :meth:`_observe_targets` and
    :meth:`_require_resumable`.

    Parameters
    ----------
    epochs:
        Passes over the training data (a positive integer).
    batch_size:
        Minibatch size (a positive integer).
    learning_rate:
        Adam learning rate (finite, > 0).
    reg_strength:
        ℓ2 penalty on the weights, not the biases (finite, >= 0).
    shuffle:
        ``None`` (default) = auto: :meth:`fit` draws a fresh row permutation
        each epoch (the historical behavior) while :meth:`fit_stream` runs
        in deterministic stream order (the only schedule a one-pass block
        stream can realize).  ``False`` forces stream order in both — what
        the pipeline uses; an explicit ``True`` demands the shuffled
        schedule and makes :meth:`fit_stream` raise instead of silently
        ignoring it.
    seed:
        RNG seed for initialization, shuffling and dropout.
    """

    def __init__(
        self,
        epochs: int,
        batch_size: int,
        learning_rate: float,
        reg_strength: float,
        shuffle: Optional[bool],
        seed: SeedLike,
    ) -> None:
        for name, value in (("epochs", epochs), ("batch_size", batch_size)):
            if isinstance(value, bool) or not isinstance(value, Integral) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if not (np.isfinite(reg_strength) and reg_strength >= 0):
            raise ConfigurationError(f"reg_strength must be finite and >= 0, got {reg_strength!r}")
        AdamOptimizer(learning_rate=learning_rate)  # rejects a bad rate now, not at fit
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.reg_strength = reg_strength
        self.shuffle = shuffle
        self.seed = seed
        #: Summed minibatch loss of every completed epoch of the last fit.
        self.loss_history: list[float] = []

    # ------------------------------------------------------------- front doors
    def fit(
        self,
        features: FeatureBlock,
        soft_labels: Sequence[float] | np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> "NoiseAwareClassifier":
        """Train on a feature matrix (dense, scipy sparse, or
        :class:`~repro.discriminative.sparse_features.CSRFeatureMatrix`) and
        probabilistic labels.

        Sparse inputs are never densified as a whole: the linear model
        trains on CSR minibatches, the others densify one minibatch at a
        time.  ``sample_weights`` optionally scales each example's loss.
        """
        features = as_float_features(features)
        targets = self._canonical_targets(soft_labels)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ConfigurationError(
                f"features {features.shape} incompatible with {targets.shape[0]} labels"
            )
        weights = None if sample_weights is None else np.asarray(sample_weights, dtype=float)
        if weights is not None and weights.shape != targets.shape[:1]:
            raise ConfigurationError(
                f"sample_weights shape {weights.shape} does not match "
                f"{targets.shape[0]} labels"
            )
        self._observe_targets([targets])

        def epoch_batches(rng: np.random.Generator) -> Iterator[Batch]:
            order = None if self.shuffle is False else rng
            return require_nonempty_batches(
                iter_materialized_batches(order, self.batch_size, features, targets, weights)
            )

        return self._train_minibatches(features.shape[1], epoch_batches)

    def fit_stream(
        self, blocks: BlockSource, checkpoint: Optional["EpochCheckpoint"] = None
    ) -> "NoiseAwareClassifier":
        """Train from a re-iterable stream of ``(features, targets)`` blocks.

        Each epoch is one pass over the source in stream order; incoming
        blocks are re-chunked into exact ``batch_size`` minibatches, so the
        result equals ``fit(concatenated blocks)`` with ``shuffle=False``
        for every producer chunking, and no ``(m, d)`` matrix ever exists.
        Targets per block follow the same conventions as :meth:`fit`.  A
        callable source is called once per epoch (plus once for the feature
        width, and once more for a model whose :meth:`_observe_targets`
        reads the targets); any other source is iterated once per fit and
        its minibatches planned (see the module docstring).

        ``checkpoint`` (a :class:`repro.labeling.blockstore.EpochCheckpoint`)
        makes the fit resumable: training state is saved durably after every
        epoch, and a restarted fit replays only the remaining epochs with
        bit-identical updates (stream order consumes no RNG after the
        initialization draw, which a resumed fit repeats before restoring
        the snapshot).
        """
        if self.shuffle:
            raise ConfigurationError(
                "shuffle=True cannot be honored by fit_stream (a one-pass "
                "block stream has no random row access); construct the model "
                "with shuffle=None or shuffle=False for streaming training"
            )
        if checkpoint is not None:
            self._require_resumable()

        def canonical(source: Iterable[Block]) -> Iterator[Block]:
            for block_features, block_targets in source:
                yield as_float_features(block_features), self._canonical_targets(block_targets)

        if callable(blocks):
            first = next(iter(blocks()), None)
            source = lambda: canonical(blocks())  # noqa: E731
        elif iter(blocks) is blocks:
            raise ConfigurationError(
                "streaming fit needs a re-iterable block source (a sequence of "
                "(features, targets) blocks, or a zero-argument callable returning "
                "a fresh iterator); a one-shot generator cannot be replayed across "
                "epochs"
            )
        else:
            canonical_blocks = list(canonical(blocks))
            first = canonical_blocks[0] if canonical_blocks else None
            source = lambda: canonical_blocks  # noqa: E731
        if first is None:
            raise ConfigurationError("streaming fit received an empty block stream")
        self._observe_targets(targets for _, targets in source())

        def rebatched() -> Iterator[Batch]:
            for features, targets in iter_rebatched(source(), self.batch_size):
                yield _batch(features, targets, None)

        epoch_batches = (
            (lambda rng: require_nonempty_batches(rebatched()))
            if callable(blocks)
            else _planned(rebatched())
        )
        return self._train_minibatches(int(first[0].shape[1]), epoch_batches, checkpoint)

    # ------------------------------------------------------------- the trainer
    def _train_minibatches(
        self,
        num_features: int,
        epoch_batches: Callable[[np.random.Generator], Iterable[Batch]],
        checkpoint: Optional["EpochCheckpoint"] = None,
    ) -> "NoiseAwareClassifier":
        """The shared Adam loop over the packed parameter vector.

        ``epoch_batches(rng)`` yields one epoch of minibatches (see
        :data:`Batch`); each step writes its gradient into one vector
        allocated per fit.
        """
        rng = ensure_rng(self.seed)
        # Always draw the initialization so the RNG stream matches a fresh
        # fit; a checkpoint then overwrites everything the draw produced.
        packed = self._init_params(rng, num_features)
        optimizer = AdamOptimizer(learning_rate=self.learning_rate)
        self.loss_history = []
        start_epoch = 0
        state = checkpoint.load() if checkpoint is not None else None
        if state is not None:
            packed = np.array(state["packed"], dtype=float)
            optimizer.set_state(state["adam"])
            self.loss_history = list(state["loss_history"])
            start_epoch = min(int(state["epoch"]), self.epochs)

        gradient = np.empty_like(packed)
        for epoch in range(start_epoch, self.epochs):
            epoch_loss = 0.0
            for batch in epoch_batches(rng):
                batch_loss = self._gradients(packed, batch, gradient, rng)
                packed = optimizer.step(packed, gradient)
                epoch_loss += batch_loss
            self.loss_history.append(epoch_loss)
            if checkpoint is not None:
                checkpoint.save(
                    {
                        "epoch": epoch + 1,
                        "packed": packed,
                        "adam": optimizer.get_state(),
                        "loss_history": list(self.loss_history),
                    }
                )

        self._publish(packed, num_features)
        return self

    # ------------------------------------------------- what a model supplies
    @abc.abstractmethod
    def _canonical_targets(self, labels: Sequence[float] | np.ndarray) -> np.ndarray:
        """Training targets in the model's own form, one row per example."""

    @abc.abstractmethod
    def _init_params(self, rng: np.random.Generator, num_features: int) -> np.ndarray:
        """Draw the initial parameters and return them as one packed vector."""

    @abc.abstractmethod
    def _gradients(
        self,
        packed: np.ndarray,
        batch: Batch,
        gradient: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """Write one minibatch's packed gradient into ``gradient``; return
        the minibatch's summed loss.

        The features arrive as the front door batched them (dense rows or a
        CSR row range); a model without sparse math densifies them here, one
        minibatch at a time.
        """

    @abc.abstractmethod
    def _publish(self, packed: np.ndarray, num_features: int) -> None:
        """Unpack the trained vector into the model's public attributes."""

    def _observe_targets(self, target_blocks: Iterable[np.ndarray]) -> None:
        """Hook: once per fit, before the first epoch, with the canonical
        targets (one array from :meth:`fit`, a lazy pass over the stream
        from :meth:`fit_stream` — consumed only by models that need a
        whole-dataset statistic)."""

    def _require_resumable(self) -> None:
        """Hook: raise if this configuration cannot resume from an epoch
        checkpoint bit-identically."""

    # --------------------------------------------------------------- inference
    @abc.abstractmethod
    def predict_proba(self, features: FeatureBlock) -> np.ndarray:
        """Positive-class probabilities (class distributions for k-ary models)."""

    def predict(self, features: FeatureBlock) -> np.ndarray:
        """Hard labels in {-1, +1} (0.5 threshold)."""
        probs = self.predict_proba(features)
        return np.where(probs > 0.5, POSITIVE, NEGATIVE).astype(np.int64)

    def score(self, features: FeatureBlock, gold_labels: Sequence[int] | np.ndarray) -> float:
        """Accuracy of hard predictions against gold labels."""
        gold = np.asarray(gold_labels)
        return float((self.predict(features) == gold).mean())


def weighted_log_loss(
    probs: np.ndarray, soft: np.ndarray, complement: np.ndarray, weights: Optional[np.ndarray]
) -> float:
    """Summed example-weighted binary cross-entropy of one minibatch
    (``complement`` is ``1 − soft``; ``weights=None`` weighs every example 1)."""
    clipped = np.clip(probs, 1e-9, 1 - 1e-9)
    losses = -(soft * np.log(clipped) + complement * np.log(1 - clipped))
    return float(losses.sum() if weights is None else (losses * weights).sum())
