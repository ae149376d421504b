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
"""

from __future__ import annotations

import abc
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


def resolve_block_source(blocks: BlockSource) -> Callable[[], Iterator[Block]]:
    """Normalize a block source into a fresh-iterator factory.

    One-shot iterators are rejected up front: multi-epoch training replays
    the source once per epoch, and silently training every epoch after the
    first on zero blocks is exactly the kind of bug this layer exists to
    rule out.
    """
    if callable(blocks):
        return blocks
    iterator = iter(blocks)
    if iterator is blocks:
        raise ConfigurationError(
            "streaming fit needs a re-iterable block source (a sequence of "
            "(features, targets) blocks, or a zero-argument callable returning "
            "a fresh iterator); a one-shot generator cannot be replayed across "
            "epochs"
        )
    return lambda: iter(blocks)


def peek_block_width(source: Callable[[], Iterator[Block]]) -> int:
    """Feature dimensionality of the first block (weights are initialized
    before the first epoch, exactly as in the materialized path)."""
    iterator = source()
    try:
        first_features, _ = next(iter(iterator))
    except StopIteration:
        raise ConfigurationError("streaming fit received an empty block stream") from None
    return int(first_features.shape[1])


def iter_materialized_batches(
    rng: np.random.Generator,
    shuffle: bool,
    batch_size: int,
    features: FeatureBlock,
    *arrays: np.ndarray,
) -> Iterator[tuple]:
    """One epoch of materialized minibatches over ``features`` (+ aligned arrays).

    The single batching schedule all three end models share: with
    ``shuffle`` a fresh row permutation (drawn lazily, so the RNG stream
    matches the historical per-epoch ``rng.permutation`` call order), else
    contiguous row-order slices — exactly the sequence
    :func:`iter_rebatched` reproduces from a block stream.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    num_examples = int(features.shape[0])
    if num_examples == 0:
        return
    batch_size = min(batch_size, num_examples)
    if shuffle:
        order = rng.permutation(num_examples)
        for start in range(0, num_examples, batch_size):
            rows = order[start : start + batch_size]
            yield (features[rows], *(array[rows] for array in arrays))
    else:
        for start in range(0, num_examples, batch_size):
            stop = min(start + batch_size, num_examples)
            yield (
                _slice_feature_rows(features, start, stop),
                *(array[start:stop] for array in arrays),
            )


def require_nonempty_batches(batches: Iterable[tuple]) -> Iterator[tuple]:
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

    Rows keep their stream order; block boundaries are stitched with a
    carry buffer smaller than one batch, so memory stays O(batch) beyond
    the incoming block and the produced minibatch sequence is independent
    of the producer's chunking — the invariant the streaming-vs-materialized
    differential tests pin down.  The final minibatch may be ragged.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    feature_parts: list[FeatureBlock] = []
    target_parts: list[np.ndarray] = []
    width: Optional[int] = None
    buffered = 0
    for features, targets in blocks:
        targets = np.asarray(targets, dtype=float)
        if targets.shape[0] != features.shape[0]:
            raise ConfigurationError(
                f"block features have {features.shape[0]} rows but targets "
                f"{targets.shape[0]}"
            )
        if width is None:
            width = int(features.shape[1])
        elif int(features.shape[1]) != width:
            raise ConfigurationError(
                f"streaming blocks disagree on feature width: {width} vs "
                f"{features.shape[1]} (unfitted or misconfigured featurizer?)"
            )
        if features.shape[0] == 0:
            continue
        feature_parts.append(features)
        target_parts.append(targets)
        buffered += int(features.shape[0])
        if buffered < batch_size:
            continue
        merged_features = _merge_feature_parts(feature_parts)
        merged_targets = (
            target_parts[0]
            if len(target_parts) == 1
            else np.concatenate(target_parts, axis=0)
        )
        start = 0
        while buffered - start >= batch_size:
            yield (
                _slice_feature_rows(merged_features, start, start + batch_size),
                merged_targets[start : start + batch_size],
            )
            start += batch_size
        if buffered - start > 0:
            feature_parts = [_slice_feature_rows(merged_features, start, buffered)]
            target_parts = [merged_targets[start:]]
        else:
            feature_parts, target_parts = [], []
        buffered -= start
    if buffered > 0:
        yield (
            _merge_feature_parts(feature_parts),
            target_parts[0] if len(target_parts) == 1 else np.concatenate(target_parts, axis=0),
        )


def as_soft_labels(labels: Sequence[float] | np.ndarray) -> np.ndarray:
    """Canonicalize training labels into soft positive-class probabilities.

    Accepts probabilities in [0, 1] or hard labels in {-1, +1}.
    """
    array = np.asarray(labels, dtype=float)
    if array.ndim != 1:
        raise ConfigurationError(f"labels must be 1-dimensional, got shape {array.shape}")
    values = set(np.unique(array).tolist())
    if values <= {-1.0, 1.0}:
        return (array == 1.0).astype(float)
    if array.min() < 0.0 or array.max() > 1.0:
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
        Passes over the training data.
    batch_size:
        Minibatch size.
    learning_rate:
        Adam learning rate.
    reg_strength:
        ℓ2 penalty on the weights (not the biases).
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
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
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
        weights = (
            np.ones(targets.shape[0])
            if sample_weights is None
            else np.asarray(sample_weights, dtype=float)
        )
        if weights.shape != targets.shape[:1]:
            raise ConfigurationError(
                f"sample_weights shape {weights.shape} does not match "
                f"{targets.shape[0]} labels"
            )
        self._observe_targets([targets])

        def epoch_batches(rng: np.random.Generator):
            return iter_materialized_batches(
                rng, self.shuffle is not False, self.batch_size, features, targets, weights
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
        Targets per block follow the same conventions as :meth:`fit`.

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
        source = resolve_block_source(blocks)

        def canonical_blocks() -> Iterator[Block]:
            for block_features, block_targets in source():
                yield as_float_features(block_features), self._canonical_targets(block_targets)

        num_features = peek_block_width(source)
        self._observe_targets(targets for _, targets in canonical_blocks())

        def epoch_batches(rng: np.random.Generator):
            for batch_features, batch_targets in iter_rebatched(
                canonical_blocks(), self.batch_size
            ):
                yield batch_features, batch_targets, np.ones(batch_targets.shape[0])

        return self._train_minibatches(num_features, epoch_batches, checkpoint)

    # ------------------------------------------------------------- the trainer
    def _train_minibatches(
        self,
        num_features: int,
        epoch_batches: Callable[[np.random.Generator], Iterable[tuple]],
        checkpoint: Optional["EpochCheckpoint"] = None,
    ) -> "NoiseAwareClassifier":
        """The shared Adam loop over the packed parameter vector.

        ``epoch_batches(rng)`` yields one epoch of ``(features, targets,
        example weights)`` minibatches.
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

        for epoch in range(start_epoch, self.epochs):
            epoch_loss = 0.0
            for features, targets, weights in require_nonempty_batches(epoch_batches(rng)):
                gradient, batch_loss = self._gradients(packed, features, targets, weights, rng)
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
        features: FeatureBlock,
        targets: np.ndarray,
        weights: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float]:
        """Packed gradient and summed loss of one minibatch.

        ``features`` arrives as the front door batched it (dense rows or a
        CSR row range); a model without sparse math densifies it here, one
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


def weighted_log_loss(probs: np.ndarray, soft: np.ndarray, weights: np.ndarray) -> float:
    """Summed example-weighted binary cross-entropy of one minibatch."""
    clipped = np.clip(probs, 1e-9, 1 - 1e-9)
    losses = -(soft * np.log(clipped) + (1 - soft) * np.log(1 - clipped))
    return float((losses * weights).sum())
