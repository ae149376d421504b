"""In-memory spans and counters for the traced benchmark run.

The benchmark measures every layer from outside, by timing calls into its
public functions; this module is the recorder those calls are wrapped in.
A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
span that was open when this one started and ``op`` identifies the operation
the span belongs to, so spans of one op share an identifier.  Spans stay in
memory and are written out once, as JSON, when the run ends.

The timed ops run without spans.  They are handed a ``ReferenceClock``
instead, which reads how fast the host runs right now at the same places.

(Named ``spans`` rather than ``trace``: the benchmark directory is on
``sys.path`` while it runs, and a ``trace.py`` there would shadow the stdlib
module of that name.)
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional


class Tracer:
    """Records nested spans and named counters."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._op: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        record = {
            "name": name,
            "op": self._op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Root span of one operation; every span inside carries ``op_id``."""
        previous, self._op = self._op, op_id
        try:
            with self.span(op_id):
                yield
        finally:
            self._op = previous

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def tick(self) -> None:
        """Only the ``ReferenceClock`` of the timed ops does work here."""

    # ------------------------------------------------------------- read-out
    def seconds(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(span["end"] - span["start"] for span in self.spans if span["name"] == name)

    def children_seconds(self, op_id: str) -> float:
        """Summed duration of the direct children of the op's root span."""
        root = next(i for i, span in enumerate(self.spans) if span["name"] == op_id)
        return sum(
            span["end"] - span["start"] for span in self.spans if span["parent"] == root
        )

    def self_seconds(self) -> dict[str, float]:
        """Per span name: its duration minus what its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, inside in zip(self.spans, covered):
            own = span["end"] - span["start"] - inside
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def dump(self, path: str, header: dict) -> None:
        """Write the whole record as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "spans": self.spans,
                    "counters": self.counters,
                    "self_seconds": self.self_seconds(),
                },
                handle,
                indent=1,
            )


class NullTracer:
    """The recorder of the timed, untraced ops: records nothing."""

    enabled = False
    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing

    def count(self, name: str, value: float = 1) -> None:
        pass

    def tick(self) -> None:
        pass


NULL = NullTracer()


class ReferenceClock(NullTracer):
    """Fixed reference work, run at tick points inside a timed op.

    This host is shared: identical ops take up to twice as long for seconds
    on end, all of it user CPU time (no steal, no faults), and an arithmetic
    loop and a random memory gather slow down with them, though not in step
    with each other.  One tick runs both, about 2 ms together, and an op ticks
    every few tens of milliseconds of its own work.  ``read()`` gives the
    seconds the ticks took, which are not the op's, and the op's clock level:
    the mean over its ticks of both kernels' slow-down against their nominal
    times.  Op seconds divided by the level are seconds at the nominal clock.
    """

    #: Seconds of each kernel on this host when nothing else loads it.
    LOOP_STEPS, LOOP_NOMINAL_S = 30_000, 30_000 * 36.5e-9
    GATHER_PICKS, GATHER_NOMINAL_S = 150_000, 0.7e-3

    def __init__(self) -> None:
        import numpy

        self._table = numpy.arange(1_000_000, dtype=numpy.float64)  # 8 MB: beyond L2
        self._picks = numpy.random.default_rng(0).choice(
            self._table.size, self.GATHER_PICKS, replace=False
        )
        self.records: list[tuple] = []

    def start(self) -> None:
        self.records = []

    def tick(self) -> None:
        start = time.perf_counter()
        total = 0
        for value in range(self.LOOP_STEPS):
            total += value * value
        middle = time.perf_counter()
        self._table.take(self._picks).sum()
        self.records.append((start, middle, time.perf_counter()))

    def read(self) -> tuple:
        """``(seconds spent in ticks, clock level)`` since ``start()``."""
        spent = sum(end - start for start, _middle, end in self.records)
        loop = statistics.mean(middle - start for start, middle, _end in self.records)
        gather = statistics.mean(end - middle for _start, middle, end in self.records)
        level = (loop / self.LOOP_NOMINAL_S + gather / self.GATHER_NOMINAL_S) / 2
        return spent, level
