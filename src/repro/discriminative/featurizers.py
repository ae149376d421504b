"""Feature extraction for the discriminative text models.

The discriminative model must be able to generalize beyond the labeling
functions: it sees *features* of candidates (word n-grams, window words,
distances) rather than the LF votes.  The paper uses a bi-LSTM over word
embeddings; the substitute here is a hashed sparse bag of n-grams over the
sentence plus relation-specific features (words between the argument spans,
window words, argument order and distance), which preserves the property the
paper relies on: features that co-occur with LF-covered candidates also
appear on uncovered candidates, letting the end model raise recall.

**One batch kernel.**  Featurization works a chunk at a time:
``chunk_triples`` (on both featurizers) interns the chunk's tokens to
integer ids, expresses every scope (sentence, between, windows, argument
texts) as an index range into the flat id array, builds the n-gram codes of
all ranges with numpy, and computes ``prefix + " ".join(gram)`` →
``blake2b`` → ``(bucket, sign)`` only for the *distinct* codes; one sort
then sums duplicate ``(row, bucket)`` entries, drops zeros and leaves the
triples in canonical row-major, column-ascending order.  Token ids and
hashes are per *process*, not per chunk or per run: tokens take their ids
from the process's token table (:mod:`repro.utils.tokens`, which the
compiled LF tier reads too — a chunk's block looks its words up once for
both), every vectorizer of one ``ngram_range`` shares, per n-gram size, one
sorted table from code to raw 64-bit hash (a token is lower-cased only to
spell a key those tables miss), so each distinct ``(scope, n-gram)`` is
spelled and hashed once per process — a re-run, or a new featurizer,
re-hashes nothing it has seen — up to ``TABLE_CAP`` entries, past which the
rest are hashed once per chunk as before.  The gain exists where chunks share keys;
fourteen chunks with pairwise disjoint vocabularies pay for the
merges and get nothing back (:data:`repro.utils.tokens.TABLE_CAP` records
both ends).  Every consumer — the engine's ``featurize_chunk`` task
(hence the fused label+featurize passes and ``featurize_stream``), and both
``transform`` output modes (dense is the kernel's ``toarray()``) — calls it.
``RelationFeaturizer.candidate_entries`` / ``HashingVectorizer.
sequence_entries`` remain the readable per-row specification: the
differential tests hold the kernel byte-equal to them, and a chunk the
kernel cannot reproduce by construction (overridden candidate accessors,
span offsets that are not ints inside the sentence — Python slicing wraps
and clamps —, non-``str`` tokens, a vocabulary beyond the radix that keeps
an n-gram code inside int64) is featurized through them instead.

**Fitted-state discipline.**  Hashing featurizers learn nothing from data,
but their *configuration* (feature-space width, n-gram range, sign mode)
fixes the meaning of every column.  Once chunks are featurized by worker
processes and merged by column index, a featurizer whose configuration
drifted between fit and transform — or that was never frozen at all —
produces silently misaligned columns.  ``fit()`` therefore freezes the
configuration snapshot, and every batch ``transform`` (and the engine's
:func:`repro.labeling.engine.tasks.featurize_chunk`) calls
``require_fitted()`` first, raising :class:`repro.exceptions.NotFittedError`
on an unfitted featurizer and
:class:`repro.exceptions.ConfigurationError` on one mutated after fitting.
One fitted instance is shared by every worker thread, and the kernel writes
to exactly one thing: the process's tables (:class:`_RunTables`), which
live in the module, not on the featurizer.  Ids are assigned and code tables
swapped under the tables' locks, on the miss path only; a chunk that brings
nothing new takes no lock, a call works on one snapshot of the tables from
start to end, and restarted tables are published by one dict store, so a
lost update costs a re-hash, never a wrong row.  No output can depend on
the tables: ids and codes are history-dependent, but all that leaves the
kernel is the hash of a *spelled key*, which is a constant —
``chunk_triples`` of a chunk is byte-equal whatever the process has seen
before (the history-independence differentials in
``tests/test_featurizer_kernel.py`` carry that).  That is what makes it
legitimate that no featurizer carries them: the purity fingerprint, a
worker's payload and the checkpoint fingerprint are those of a featurizer's
configuration alone, each process grows its own tables, and ``fit()``
leaves them as they are.
"""

from __future__ import annotations

import hashlib
import threading
from functools import partial
from itertools import chain, count, filterfalse
from numbers import Integral
from operator import add, methodcaller
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.context.candidates import Candidate, SpanView, uses_stock
from repro.discriminative.sparse_features import CSRFeatureMatrix
from repro.exceptions import ConfigurationError, NotFittedError
from repro.labeling.pushdown.fields import ColumnarChunk
from repro.labeling.sparse import ranges_gather
from repro.utils import tokens
from repro.utils.textutils import ngrams, normalize
from repro.utils.tokens import TokenTable, own_ids, token_rows

#: ``(row_offsets, cols, values)`` of a chunk, row-major with ascending columns.
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Rows per kernel call inside the batch ``transform``s, so the kernel's
#: temporaries stay proportional to one block however long the input is.
_BLOCK_ROWS = 1024

_INT64_LIMIT = 2**63

#: The process's code tables, one per ``ngram_range`` (its largest n sizes the
#: radix), shared by every vectorizer.
_TABLES: dict[tuple, "_RunTables"] = {}


def _is_int(value) -> bool:
    """A real integer: ``bool`` and integral floats are configuration mistakes."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _stable_hash(token: str) -> int:
    """Deterministic 64-bit hash of a string (stable across processes)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _stable_hashes(keys: Iterable[str]) -> np.ndarray:
    """:func:`_stable_hash` of every key, as one ``uint64`` array."""
    hashers = map(partial(hashlib.blake2b, digest_size=8), map(str.encode, keys))
    return np.frombuffer(b"".join(map(methodcaller("digest"), hashers)), dtype="<u8")


def _find(known: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code's slot in the sorted ``known`` and whether it is there."""
    slots = np.searchsorted(known, codes)
    found = slots < known.size
    found[found] = known[slots[found]] == codes[found]
    return slots, found


class _RunTables:
    """What this process has hashed so far for one ``ngram_range`` over one token table.

    Token ids are those of ``table`` (:mod:`repro.utils.tokens`);
    ``scope_ids`` gives every scope prefix a digit of its own and
    ``scopes[d]`` spells scope ``d`` as given; a token spells as its
    ``str.lower()`` (``normalize``: raw tokens that normalize alike keep
    separate ids and spell the same word).  An n-gram code is ``n + 1`` digits base ``radix``
    — the scope, then the token ids — so it means the same key in every
    chunk over ``table``, and ``hashed[n]`` holds the sorted codes seen so
    far beside the raw 64-bit hash of the key each spells.  Ids and codes
    depend on the order chunks arrived in; a key's hash does not, and only
    hashes leave the kernel.  Every write happens under ``lock`` and only
    appends or swaps in a whole new ``hashed[n]`` pair, so readers of the
    code tables take no lock.
    """

    def __init__(self, ngram_range: tuple[int, int], table: TokenTable) -> None:
        low, high = self.ngram_range = tuple(ngram_range)
        self.radix = int((_INT64_LIMIT - 1) ** (1.0 / (high + 1)))
        while self.radix ** (high + 1) >= _INT64_LIMIT:  # the float root may round up
            self.radix -= 1
        self.table = table
        self.scope_ids: dict[str, int] = {}
        self.scopes: list[str] = []
        empty = (np.empty(0, np.int64), np.empty(0, np.uint64))
        self.hashed = dict.fromkeys(range(low, high + 1), empty)
        self.lock = threading.Lock()

    def scope_digits(self, prefixes: Sequence[str]) -> Optional[np.ndarray]:
        """Each prefix's digit; ``None`` when the new ones would reach the radix."""
        with self.lock:
            fresh = list(filterfalse(self.scope_ids.__contains__, dict.fromkeys(prefixes)))
            if len(self.scopes) + len(fresh) > self.radix:
                return None
            self.scope_ids.update(zip(fresh, count(len(self.scopes))))
            self.scopes.extend(fresh)
        return np.fromiter(map(self.scope_ids.__getitem__, prefixes), np.int64, len(prefixes))

    def admit(self, n: int, codes: np.ndarray, hashes: np.ndarray) -> None:
        """Merge newly hashed codes into ``hashed[n]`` while the cap leaves room."""
        with self.lock:
            room = tokens.TABLE_CAP - sum(table.size for table, _ in self.hashed.values())
            if room <= 0:
                return
            known, known_hashes = self.hashed[n]  # the pair now, not the caller's snapshot
            slots, found = _find(known, codes)
            new = np.flatnonzero(~found)[:room]
            self.hashed[n] = (
                np.insert(known, slots[new], codes[new]),
                np.insert(known_hashes, slots[new], hashes[new]),
            )


def _reduce_triples(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, width: int) -> Triples:
    """Sum duplicate ``(row, col)`` entries and drop the zero sums.

    One sort leaves the result row-major with ascending columns; the
    summands are ±1/±2 (or a lone structural value), so every summation
    order gives the same floats as the specification's dict updates.
    """
    keys, inverse = np.unique(rows * width + cols, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=keys.size)
    keys, sums = keys[sums != 0.0], sums[sums != 0.0]
    return keys // width, keys % width, sums.astype(np.float64, copy=False)  # bincount([]) is int


def _spec_triples(row_entries: Iterable[Mapping[int, float]]) -> Triples:
    """Triples of one ``{column: value}`` mapping per row (the fallback path)."""
    rows = [sorted(entries.items()) for entries in row_entries]
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    items = list(chain.from_iterable(rows))
    return (
        np.repeat(np.arange(len(rows)), counts),
        np.array([column for column, _ in items], dtype=np.int64),
        np.array([value for _, value in items], dtype=np.float64),
    )


def _kernel_matrix(
    chunk_triples: Callable[[Sequence], Triples], items: Sequence, width: int
) -> CSRFeatureMatrix:
    """Run a chunk kernel over ``items`` block by block and stack the rows."""
    blocks = []
    for start in range(0, max(len(items), 1), _BLOCK_ROWS):
        block = items[start : start + _BLOCK_ROWS]
        blocks.append(CSRFeatureMatrix.from_triples(*chunk_triples(block), (len(block), width)))
    return CSRFeatureMatrix.vstack(blocks)


class HashingVectorizer:
    """Hashed bag-of-n-grams featurizer over token sequences.

    Parameters
    ----------
    num_features:
        Dimensionality of the hashed feature space.
    ngram_range:
        Inclusive ``(min_n, max_n)`` n-gram sizes.
    signed:
        Use the hash parity as the feature sign (reduces collision bias).
    """

    def __init__(
        self,
        num_features: int = 2048,
        ngram_range: tuple[int, int] = (1, 2),
        signed: bool = True,
    ) -> None:
        if not _is_int(num_features) or num_features <= 0:
            raise ConfigurationError(
                f"num_features must be a positive integer, got {num_features!r}"
            )
        low, high = ngram_range
        if not (_is_int(low) and _is_int(high)) or low < 1 or high < low:
            raise ConfigurationError(f"invalid ngram_range {ngram_range}")
        self.num_features = num_features
        self.ngram_range = ngram_range
        self.signed = signed
        self._fitted_config: Optional[tuple] = None

    def _config(self) -> tuple:
        return (self.num_features, tuple(self.ngram_range), self.signed)

    def fit(self, token_sequences: Optional[Iterable[Sequence[str]]] = None) -> "HashingVectorizer":
        """Freeze the feature-space configuration (hashing learns nothing).

        ``token_sequences`` is accepted for API symmetry with learned
        vectorizers and ignored — in particular, a generator argument is
        *not* consumed, so streaming callers can fit before the single pass
        over their data.  What the process has interned and hashed is kept
        (:data:`_TABLES`): no output depends on it.
        """
        self._fitted_config = self._config()
        return self

    def require_fitted(self) -> None:
        """Fail loudly when transforming before fit / after config mutation."""
        if self._fitted_config is None:
            raise NotFittedError(
                "HashingVectorizer.transform called before fit(); fit() freezes "
                "the feature-space configuration so chunks featurized by "
                "different workers stay column-aligned"
            )
        if self._fitted_config != self._config():
            raise ConfigurationError(
                f"HashingVectorizer configuration changed after fit(): fitted "
                f"{self._fitted_config}, now {self._config()}; transforming "
                "would emit misaligned columns — re-fit first"
            )

    def token_entries(self, tokens: Sequence[str], prefix: str = "") -> Iterator[tuple[int, float]]:
        """Yield every ``(hash bucket, sign)`` pair one token sequence emits."""
        normalized = [normalize(token) for token in tokens]
        low, high = self.ngram_range
        for n in range(low, high + 1):
            for gram in ngrams(normalized, n):
                key = prefix + " ".join(gram)
                value = _stable_hash(key)
                index = value % self.num_features
                sign = 1.0 if not self.signed or (value >> 63) & 1 == 0 else -1.0
                yield index, sign

    def sequence_entries(self, tokens: Sequence[str], prefix: str = "") -> dict[int, float]:
        """One token sequence's sparse feature row as a ``{column: value}`` mapping."""
        entries: dict[int, float] = {}
        for index, sign in self.token_entries(tokens, prefix):
            entries[index] = entries.get(index, 0.0) + sign
        return {k: v for k, v in entries.items() if v != 0.0}

    def _run_tables(
        self, table: TokenTable, ids: np.ndarray, prefixes: Sequence[str]
    ) -> Optional[tuple[_RunTables, np.ndarray, np.ndarray]]:
        """The tables to hash ``ids`` of ``table`` under ``prefixes`` with, and
        the scope and token digits.

        The process's tables for this ``ngram_range`` when they are over
        ``table`` (started afresh when ``table`` is new and within the cap).
        A chunk whose ids or prefixes do not fit their radix is renumbered
        by itself over tables of its own, so what earlier chunks interned
        never declines a chunk that fits; ``None`` when even that does not
        fit.
        """
        key = tuple(self.ngram_range)
        run = _TABLES.get(key)
        if run is None or run.table is not table:
            run = _RunTables(key, table)
            if len(table.tokens) <= tokens.TABLE_CAP:
                _TABLES[key] = run
        scopes = run.scope_digits(prefixes)
        if scopes is not None and (not ids.size or ids.max() < run.radix):
            return run, scopes, ids
        distinct = np.unique(ids)
        run = _RunTables(key, own_ids(list(map(table.tokens.__getitem__, distinct.tolist())))[0])
        scopes = run.scope_digits(prefixes)
        if scopes is None or distinct.size > run.radix:
            return None
        return run, scopes, np.searchsorted(distinct, ids)

    def ngram_entries(
        self, table: TokenTable, ids: np.ndarray, starts: np.ndarray, stops: np.ndarray,
        prefixes: Sequence[str],
    ) -> Optional[Triples]:
        """Hash every n-gram of the ranges ``ids[starts[r]:stops[r]]`` at once.

        ``ids`` are token ids of ``table`` (:func:`repro.utils.tokens.
        token_ids`).  Returns one ``(range index, bucket, sign)`` entry per
        n-gram occurrence — what :meth:`token_entries` yields for range ``r``
        of the tokens under the key prefix ``prefixes[r * len(prefixes) //
        len(starts)]`` (ranges come in equal blocks per prefix).  Each
        distinct ``(prefix, n-gram)`` is spelled and hashed once per process
        (:class:`_RunTables`; once per chunk past the cap), buckets and signs
        being derived per chunk from the stored hash — so what is returned
        depends on the tokens alone, whatever the process has seen.
        ``None`` when a prefix is not exactly a ``str`` or the chunk's own
        vocabulary does not fit the radix that keeps a code inside int64;
        callers then fall back to the per-row specification.
        """
        if set(map(type, prefixes)) - {str}:
            return None
        interned = self._run_tables(table, ids, prefixes)
        if interned is None:
            return None
        run, scopes, ids = interned
        radix, (low, high) = run.radix, run.ngram_range
        block = max(starts.size // len(prefixes), 1)
        parts = []
        for n in range(low, high + 1):
            counts = np.maximum(stops - starts - (n - 1), 0)
            first = ranges_gather(starts, counts)
            owner = np.repeat(np.arange(starts.size), counts)
            codes = scopes[owner // block]
            for k in range(n):
                codes = codes * radix + ids[first + k]
            distinct, inverse = np.unique(codes, return_inverse=True)
            known, known_hashes = run.hashed[n]
            slots, found = _find(known, distinct)
            hashes = np.empty(distinct.size, np.uint64)
            hashes[found] = known_hashes[slots[found]]
            if not found.all():
                missed = distinct[~found]
                # A code's digits spell its key: the scope prefix, then the n words.
                digits = [(missed // radix**k % radix).tolist() for k in range(n, -1, -1)]
                scope = map(run.scopes.__getitem__, digits[0])
                spell = run.table.tokens.__getitem__
                gram = (map(str.lower, map(spell, digit)) for digit in digits[1:])
                hashes[~found] = fresh = _stable_hashes(map(add, scope, map(" ".join, zip(*gram))))
                run.admit(n, missed, fresh)
            buckets = (hashes % np.uint64(self.num_features)).astype(np.int64)
            signs = 1.0 - 2.0 * (hashes >> np.uint64(63)) if self.signed else np.ones(hashes.size)
            parts.append((owner, buckets[inverse], signs[inverse]))
        return tuple(map(np.concatenate, zip(*parts)))

    def chunk_triples(self, token_sequences: Sequence[Sequence[str]], prefix: str = "") -> Triples:
        """The batch kernel: a chunk of token sequences as sparse feature triples.

        Byte-equal to stacking :meth:`sequence_entries` row by row, which is
        also the fallback for inputs :meth:`ngram_entries` declines.
        """
        entries = None
        if len(token_sequences) * self.num_features < _INT64_LIMIT:
            table, ids, lengths, skipped = token_rows(token_sequences)
            stops = np.cumsum(lengths)
            if not skipped:
                entries = self.ngram_entries(table, ids, stops - lengths, stops, (prefix,))
        if entries is None:
            rows = (self.sequence_entries(sequence, prefix) for sequence in token_sequences)
            return _spec_triples(rows)
        return _reduce_triples(*entries, self.num_features)

    def transform_tokens(self, tokens: Sequence[str], prefix: str = "") -> np.ndarray:
        """Featurize a single token sequence into a dense vector."""
        _, cols, values = self.chunk_triples([tokens], prefix)
        vector = np.zeros(self.num_features)
        vector[cols] = values
        return vector

    def transform(
        self, token_sequences: Iterable[Sequence[str]], sparse: bool = False
    ) -> Union[np.ndarray, CSRFeatureMatrix]:
        """Featurize many token sequences into a ``(len, num_features)`` matrix.

        With ``sparse=True`` only the touched hash buckets are stored (CSR);
        the dense output is that matrix's ``toarray()``.
        """
        self.require_fitted()
        if not isinstance(token_sequences, Sequence):
            token_sequences = list(token_sequences)
        matrix = _kernel_matrix(self.chunk_triples, token_sequences, self.num_features)
        return matrix if sparse else matrix.toarray()


#: The hashed scopes of a relation candidate, in :meth:`RelationFeaturizer.
#: _scopes` order: key prefixes and weights (the between-spans scope counts double).
_SCOPE_PREFIXES = ("sent:", "btw:", "left:", "right:", "arg1:", "arg2:")
_SCOPE_WEIGHTS = (1.0, 2.0, 1.0, 1.0, 1.0, 1.0)

#: ``Candidate`` accessors the kernel re-implements as index arithmetic.
_KERNEL_ACCESSORS = (
    "words_between", "window_left", "window_right",
    "ordered_spans", "span1_precedes_span2", "token_distance",
)

class RelationFeaturizer:
    """Featurizer for relation candidates (pairs of spans in a sentence).

    Produces a dense vector combining hashed n-grams of several scopes (the
    full sentence, the words between the spans, left/right windows, and the
    argument surface forms) plus a handful of structural features (argument
    order, token distance, span lengths).
    """

    def __init__(
        self,
        num_features: int = 2048,
        ngram_range: tuple[int, int] = (1, 2),
        window_size: int = 3,
    ) -> None:
        if not _is_int(window_size) or window_size < 0:
            raise ConfigurationError(
                f"window_size must be a non-negative integer, got {window_size!r}"
            )
        self.vectorizer = HashingVectorizer(num_features=num_features, ngram_range=ngram_range)
        self.window_size = window_size
        self.num_features = num_features
        self._fitted_config: Optional[tuple] = None

    @property
    def output_dim(self) -> int:
        """Dimensionality of the produced feature vectors."""
        return self.num_features + 5

    def _config(self) -> tuple:
        if self.num_features != self.vectorizer.num_features:
            raise ConfigurationError(
                f"RelationFeaturizer.num_features is {self.num_features} but its vectorizer "
                f"hashes into {self.vectorizer.num_features} buckets; a bucket beyond the "
                "narrower width would land in a neighbouring row — set both"
            )
        return (self.num_features, self.window_size, self.vectorizer._config())

    def fit(self, candidates: Optional[Iterable[Candidate]] = None) -> "RelationFeaturizer":
        """Freeze the feature space (hashing learns nothing from data).

        ``candidates`` is accepted for API symmetry and ignored — generators
        are not consumed.  Fitting snapshots the configuration that fixes
        ``output_dim`` and the meaning of every column; ``transform`` (and
        the engine featurization task) refuse to run before it.
        """
        self.vectorizer.fit()
        self._fitted_config = self._config()
        return self

    def require_fitted(self) -> None:
        """Fail loudly when transforming before fit / after config mutation."""
        if self._fitted_config is None:
            raise NotFittedError(
                "RelationFeaturizer.transform called before fit(); fit() freezes "
                "the feature-space configuration so chunks featurized by "
                "different workers stay column-aligned"
            )
        if self._fitted_config != self._config():
            raise ConfigurationError(
                f"RelationFeaturizer configuration changed after fit(): fitted "
                f"{self._fitted_config}, now {self._config()}; transforming "
                "would emit misaligned columns — re-fit first"
            )

    def _scopes(self, candidate: Candidate) -> Iterator[tuple[float, Sequence[str], str]]:
        """The hashed token scopes of one candidate with their weights."""
        token_lists = (
            candidate.sentence.words,
            candidate.words_between(),
            candidate.window_left(self.window_size),
            candidate.window_right(self.window_size),
            candidate.span1.text.split(),
            candidate.span2.text.split(),
        )
        return zip(_SCOPE_WEIGHTS, token_lists, _SCOPE_PREFIXES)

    def _structural(self, candidate: Candidate) -> tuple[float, ...]:
        return (
            1.0 if candidate.span1_precedes_span2() else -1.0,
            float(candidate.token_distance()),
            float(candidate.span1.length),
            float(candidate.span2.length),
            float(len(candidate.sentence.words)),
        )

    def candidate_entries(self, candidate: Candidate) -> dict[int, float]:
        """One candidate's sparse feature row as a ``{column: value}`` mapping.

        The per-candidate specification of the feature space:
        :meth:`chunk_triples` is held byte-equal to it and falls back on it.
        """
        entries: dict[int, float] = {}
        for scale, tokens, prefix in self._scopes(candidate):
            for index, sign in self.vectorizer.token_entries(tokens, prefix):
                entries[index] = entries.get(index, 0.0) + scale * sign
        entries = {k: v for k, v in entries.items() if v != 0.0}
        for offset, value in enumerate(self._structural(candidate)):
            if value != 0.0:
                entries[self.num_features + offset] = value
        return entries

    def _kernel_entries(self, candidates: Sequence[Candidate]) -> Optional[Triples]:
        """A chunk's unreduced ``(row, column, value)`` entries, hashed and structural.

        ``candidates`` may be the chunk's :class:`~repro.labeling.pushdown.
        fields.ColumnarChunk`, whose one read and token ids this shares.
        ``None`` when index arithmetic cannot stand in for the accessors:
        overridden ``Candidate``/``SpanView`` methods, words that are not
        lists, non-``str`` tokens or texts, or offsets that are not ints
        inside the sentence (Python slices wrap negative bounds and clamp
        large ones).
        """
        block = ColumnarChunk.of(candidates)
        count = block.num_rows
        if not uses_stock(block.candidates, Candidate, _KERNEL_ACCESSORS):
            return None
        rows = block.rows()
        if rows is None or not uses_stock(rows["spans"], SpanView, ("length",)):
            return None
        table, word_ids, lengths, skipped = block.word_ids()
        texts = rows[("span1", "text")] + rows[("span2", "text")]
        offsets = block.span_offsets()
        if skipped or offsets is None or set(map(type, texts)) != {str}:
            return None
        if offsets.min() < 0 or (offsets > lengths).any():
            return None
        (start1, start2), (end1, end2), ordered_starts, ordered_ends = offsets
        (first_start, second_start), (first_end, second_end) = ordered_starts, ordered_ends
        size = min(self.window_size, int(lengths.max()))
        # Flat token layout: every sentence, then every span1 text, then every span2 text.
        distinct = dict.fromkeys(texts)
        split = dict(zip(distinct, map(str.split, distinct)))
        arguments = list(map(split.__getitem__, texts))
        argument_flat = list(chain.from_iterable(arguments))
        argument_ids = table.ids_of(argument_flat, tokens.TABLE_CAP)
        if argument_ids is None:  # they overflow the process's table: the chunk gets its own
            words = list(chain.from_iterable(rows[("sentence", "words")]))
            table, ids = own_ids(words + argument_flat)
        else:
            ids = np.concatenate([word_ids, argument_ids])
        segment_lengths = np.concatenate([lengths, np.fromiter(map(len, arguments), np.int64)])
        segment_stops = np.cumsum(segment_lengths)
        segment_starts = segment_stops - segment_lengths
        base = segment_starts[:count]
        # Range p * count + i is scope p (in _SCOPE_PREFIXES order) of candidate i.
        left, right = np.maximum(first_start - size, 0), np.minimum(second_end + size, lengths)
        starts = [base, base + first_end, base + left, base + second_end, segment_starts[count:]]
        stops = [base + lengths, base + second_start, base + first_start, base + right]
        stops.append(segment_stops[count:])
        hashed = self.vectorizer.ngram_entries(
            table, ids, np.concatenate(starts), np.concatenate(stops), _SCOPE_PREFIXES
        )
        if hashed is None:
            return None
        scope, buckets, signs = hashed
        precedes, distance = np.where(start1 < start2, 1.0, -1.0), second_start - first_end
        structural = [precedes, np.maximum(0, distance), end1 - start1, end2 - start2, lengths]
        structural_cols = np.arange(self.num_features, self.output_dim)
        return (
            np.concatenate([scope % count, np.repeat(np.arange(count), structural_cols.size)]),
            np.concatenate([buckets, np.tile(structural_cols, count)]),
            np.concatenate(
                [signs * np.take(_SCOPE_WEIGHTS, scope // count), np.stack(structural, 1).ravel()]
            ),
        )

    def chunk_triples(self, candidates: Sequence[Candidate]) -> Triples:
        """The batch kernel: a chunk of candidates as sparse feature triples.

        ``candidates`` is a sequence of candidates or the chunk's
        :class:`~repro.labeling.pushdown.fields.ColumnarChunk` — the fused
        label+featurize task hands over the block the LF programs read, so
        each candidate is read, and each word looked up, once per chunk.
        Returns ``(row_offsets, cols, values)`` in row-major order with
        ascending columns, byte-equal to stacking :meth:`candidate_entries`
        — which is also the fallback for a chunk :meth:`_kernel_entries`
        declines.  Writes nothing on the featurizer, only the process's
        tables; it does not check fittedness (batch callers do, once per chunk).
        """
        block = ColumnarChunk.of(candidates)
        entries = None
        if block.num_rows and block.num_rows * self.output_dim < _INT64_LIMIT:
            entries = self._kernel_entries(block)
        if entries is None:
            return _spec_triples(map(self.candidate_entries, block.candidates))
        return _reduce_triples(*entries, self.output_dim)

    def transform_candidate(self, candidate: Candidate) -> np.ndarray:
        """Featurize one candidate into a dense vector."""
        return _kernel_matrix(self.chunk_triples, [candidate], self.output_dim).toarray()[0]

    def transform(
        self, candidates: Iterable[Candidate], sparse: bool = False
    ) -> Union[np.ndarray, CSRFeatureMatrix]:
        """Featurize a batch of candidates into a feature matrix.

        Accepts any sequence (or other iterable — generators are consumed
        once into a list) without copying sequences the caller already
        materialized.  With ``sparse=True`` the result is a
        :class:`~repro.discriminative.sparse_features.CSRFeatureMatrix`
        holding only the touched columns; the dense output is that matrix's
        ``toarray()``, and the end models consume either.
        """
        self.require_fitted()
        if not isinstance(candidates, Sequence):
            candidates = list(candidates)
        matrix = _kernel_matrix(self.chunk_triples, candidates, self.output_dim)
        return matrix if sparse else matrix.toarray()
