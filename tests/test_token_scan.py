"""Generated differential for the first-match token loop: compiled ≡ interpreted.

The loop compiler accepts one shape,

    for t in <token column>:
        if <pred(t)>:
            [name = <expr>]*
            return <expr>

and lowers it to the ``TokenScan`` kernel (a membership test with a
constant return lowers to ``TokenMatch`` instead).  Instead of hand-picking LFs, this file
*writes* them: hypothesis draws a predicate (prefix / suffix / equality /
membership), a return (constant / table decode / ``int(...)`` / ``IfExp``),
the way constants reach the body (module globals of a plain function, closure
cells, attributes of a callable instance) and a cardinality, renders the
source, and runs the LF under ``pushdown="require"`` — so a refusal fails the
test rather than passing vacuously through the fallback tier — against
``pushdown="off"`` over token rows built to hit every guard of the kernel:
empty sentences, repeated hits, a hit after an erroring token, non-``str``
and ``str``-subclass tokens, NUL, tuple and non-iterable rows, undecodable
suffixes, out-of-range class ids.  "Equal" is the whole contract: the same Λ,
the same error count per LF and per exception type, and the same exception
out of a run that is not fault tolerant.  A failure hypothesis shrinks is
pinned with ``@example`` on the generated test.
"""

import itertools
import linecache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.context.candidates import Candidate, SentenceView, SpanView
from repro.labeling import LFApplier, build_plan
from repro.labeling.lf import LabelingFunction

_SPAN = SpanView(text="x", word_start=0, word_end=1)


class Tok(str):
    """A ``str`` subclass whose ``startswith`` lies: a kernel that treats it
    as the plain string it prints as decodes a vote the LF never sees."""

    def startswith(self, *args):
        return False


class _UidFeaturizer:
    """One feature per candidate; survives the token rows a text featurizer
    would (rightly) choke on, so the fused task can run over all of them."""

    output_dim = 1

    def require_fitted(self):
        pass

    def chunk_triples(self, candidates):
        n = len(candidates)
        return np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n)


_PREDICATES = {
    "prefix": ("{t}.startswith({P})", "{t}[len({P}):]"),
    "suffix": ("{t}.endswith({S})", "{t}[:1]"),
    "equality": ("{t} == {W}", "{t}[1:]"),
    "membership": ("{t} in {V}", "{t}[1:]"),
}
_RETURNS = {
    "constant": "{A}",
    "table": "{T}[code]",
    "int": "int(code)",
    "ifexp": '{A} if code == "1" else {B}',
}
_NAMES = "PSWVTAB"
_serial = itertools.count()


def _constants(k):
    """The values the rendered body reads, whichever way they reach it."""
    a, b = (1, -1) if k == 2 else (1, k)
    return {
        "P": "q",
        "S": "q",
        "W": "q2",
        "V": frozenset({"q1", "q2", "qx", "q9", "2q"}),
        "T": {"1": a, "2": b, "9": 9, "": None},
        "A": a,
        "B": b,
    }


def _render(form, pred, ret, after):
    """Source of one LF body in the given form; ``make(**constants)`` in the
    executed namespace returns the callable."""
    test, code = _PREDICATES[pred]
    ref = {
        "function": lambda n: n,
        "closure": lambda n: n.lower(),
        "instance": lambda n: f"self.{n.lower()}",
    }[form]
    names = {n: ref(n) for n in _NAMES}
    loop = [
        "for t in c.sentence.words:",
        f"    if {test.format(t='t', **names)}:",
        f"        code = {code.format(t='t', **names)}",
        f"        return {_RETURNS[ret].format(**names)}",
        f"return {after.format(**names)}",
    ]
    params = ", ".join(n.lower() for n in _NAMES)
    if form == "function":
        lines = ["def lf(c):"] + ["    " + line for line in loop]
        lines += [f"def make({params}):", f"    global {', '.join(_NAMES)}"]
        lines += [f"    {n} = {n.lower()}" for n in _NAMES] + ["    return lf"]
    elif form == "closure":
        lines = [f"def make({params}):", "    def lf(c):"]
        lines += ["        " + line for line in loop] + ["    return lf"]
    else:
        lines = ["class Reader:", f"    def __init__(self, {params}):"]
        lines += [f"        self.{n.lower()} = {n.lower()}" for n in _NAMES]
        lines += ["    def __call__(self, c):"] + ["        " + line for line in loop]
        lines += ["make = Reader"]
    return "\n".join(lines) + "\n"


def _make_lf(k, form, pred, ret, after):
    """Render, register the source where ``inspect`` finds it, and wrap."""
    source = _render(form, pred, ret, after)
    filename = f"<token-scan-{next(_serial)}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    constants = {n.lower(): v for n, v in _constants(k).items()}
    return LabelingFunction("scan", namespace["make"](**constants), cardinality=k)


def _candidates(rows):
    return [
        Candidate(uid=i, span1=_SPAN, span2=_SPAN, sentence=SentenceView(words=row, text=""))
        for i, row in enumerate(rows)
    ]


def _run(lf, candidates, pushdown, fused, **kwargs):
    applier = LFApplier([lf], pushdown=pushdown, **kwargs)
    if fused:
        matrix, _blocks = applier.apply_with_features(iter(candidates), _UidFeaturizer())
    else:
        matrix = applier.apply(candidates)
    return matrix, applier.last_report


def assert_tiers_agree(lf, rows, fused=False, **kwargs):
    candidates = _candidates(rows)
    base, base_report = _run(lf, candidates, "off", fused, fault_tolerant=True, **kwargs)
    push, push_report = _run(lf, candidates, "require", fused, fault_tolerant=True, **kwargs)
    assert np.array_equal(base.values, push.values)
    assert base_report.errors == push_report.errors
    assert {k: v.type_counts for k, v in base_report.error_details.items()} == {
        k: v.type_counts for k, v in push_report.error_details.items()
    }
    raised = []
    for pushdown in ("off", "require"):
        try:
            _run(lf, candidates, pushdown, fused, fault_tolerant=False, **kwargs)
            raised.append(None)
        except Exception as exc:  # noqa: BLE001 - the exception is the datum
            raised.append((type(exc), str(exc), type(exc.__cause__)))
    assert (raised[0] is None) == (raised[1] is None) == (not base_report.errors)
    if kwargs.get("backend", "sequential") == "sequential":
        # A pool raises whichever failing chunk finishes first, in either
        # tier; only the sequential scan has *a* first exception to compare.
        assert raised[0] == raised[1]


_TOKENS = st.sampled_from(
    [
        "q1", "q2", "q0", "q9", "qx", "q", "q-1", "1q", "2q", "xq", "w", "", "Q1",
        "q1\x00", "\x00q2", Tok("q1"), Tok("2q"), None, 7, b"q1", ("q1",),
    ]
)
_ROWS = st.lists(
    st.one_of(
        st.lists(_TOKENS, max_size=5),
        st.lists(_TOKENS, max_size=3).map(tuple),
        st.sampled_from([None, 7, "q1q2"]),
    ),
    max_size=9,
)


@given(
    k=st.sampled_from([2, 3, 4]),
    form=st.sampled_from(["function", "closure", "instance"]),
    pred=st.sampled_from(sorted(_PREDICATES)),
    ret=st.sampled_from(sorted(_RETURNS)),
    after=st.sampled_from(["0", "None", "{A}"]),
    rows=_ROWS,
    chunk_size=st.sampled_from([1, 7, 1024]),
    fused=st.booleans(),
)
# Shrunk from a kernel that proved its tokens were strings with ``"".join``:
# a ``str`` subclass passes that and was decoded as the string it prints as.
@example(
    k=4, form="instance", pred="prefix", ret="int", after="0",
    rows=[[Tok("q1"), "q2"]], chunk_size=1024, fused=False,
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generated_loops_match_interpreted(k, form, pred, ret, after, rows, chunk_size, fused):
    lf = _make_lf(k, form, pred, ret, after)
    assert_tiers_agree(lf, rows, fused=fused, chunk_size=chunk_size)


#: Every guard of the kernel in one corpus, for the backends whose set-up is
#: too slow to pay per generated example.
_GUARD_ROWS = [
    [],
    ["w", "q1", "q2"],
    ["q2", "q1", "q2"],
    ["w", "w"],
    [None, "q1"],
    ["q1", None],
    ["qx", "q1"],
    ["q9"],
    ["q0", "q1"],
    [Tok("q1"), "q2"],
    ["q1\x00"],
    ("w", "q2"),
    7,
    ["q", "q1"],
    [("q1",), "q2"],
] * 3


@pytest.mark.parametrize("backend", ["sequential", "threads", "processes"])
@pytest.mark.parametrize("chunk_size", [1, 7, 1024])
@pytest.mark.parametrize("k", [2, 4])
def test_vote_reader_guards_on_every_backend(backend, chunk_size, k):
    from repro.datasets.synthetic import text_vote_lfs

    (lf,) = text_vote_lfs(1, cardinality=k)
    lf.function.prefix = "q"
    for fused in (False, True):
        assert_tiers_agree(
            lf, _GUARD_ROWS, fused=fused, chunk_size=chunk_size, backend=backend, num_workers=2
        )


@pytest.mark.parametrize("k", [2, 4])
def test_text_vote_suite_compiles_and_matches(k):
    from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs

    lfs = text_vote_lfs(20, cardinality=k)
    plan = build_plan(lfs)
    assert len(plan.compiled) == 20 and not plan.fallback, plan.fallback_reasons
    candidates = list(stream_text_candidates(num_points=300, num_lfs=20, cardinality=k, seed=5))
    # A few rows of the real stream that the scan kernel must hand back.
    planted = {
        3: ["lf0vx", "lf1v9"],  # undecodable at k=4 / out of range
        57: [None, "lf2vp"],  # a hit after a token with no .startswith
        211: ["lf3v1\x00"],  # NUL: numpy U-dtype would drop it
        250: ["lf4v", "lf4v2"],  # empty suffix first
    }
    for row, tokens in planted.items():
        candidates[row].sentence.words[:0] = tokens
    candidates[100].sentence.words = 7  # not iterable at all
    base = LFApplier(lfs, pushdown="off", fault_tolerant=True)
    push = LFApplier(lfs, pushdown="require", fault_tolerant=True, chunk_size=64)
    assert np.array_equal(base.apply(candidates).values, push.apply(candidates).values)
    assert np.count_nonzero(base.apply(candidates).values)
    assert base.last_report.errors == push.last_report.errors
    assert sum(base.last_report.errors.values()) >= 20  # row 100 fails every LF


def test_loops_outside_the_shape_are_refused_not_miscompiled():
    def falls_through(c):
        for t in c.sentence.words:
            if t.startswith("q"):
                if len(t) > 1:  # reads the element: not a constant fold
                    return 1
        return 0

    def loop_else(c):
        for t in c.sentence.words:
            if t.startswith("q"):
                return int(t[1:])
        else:
            return -1

    def rebinds_element(c):
        for t in c.sentence.words:
            if t.startswith("q"):
                t = t[1:]
                return int(t)
        return 0

    rows = [["q1"], ["q"], ["w"], []]
    for body in (falls_through, loop_else, rebinds_element):
        lf = LabelingFunction(body.__name__, body)
        plan = build_plan([lf])
        assert plan.fallback_names == [body.__name__], body.__name__
        assert "compiler refused" in plan.fallback_reasons[body.__name__]
        candidates = _candidates(rows)
        base = LFApplier([lf], pushdown="off", fault_tolerant=True).apply(candidates)
        auto = LFApplier([lf], pushdown="auto", fault_tolerant=True).apply(candidates)
        assert np.array_equal(base.values, auto.values)


def test_a_raise_mid_sweep_leaves_every_other_token_its_outcome():
    """``TokenScan._sweep`` classifies the distinct tokens in one pass; when
    ``pred`` or ``arm`` raises part way through the list, it sweeps them
    again one at a time, so only the raising tokens read ``_RAISED`` and the
    tokens after them keep their outcomes."""
    from repro.labeling.pushdown.program import _MATCH, _NO_MATCH, _RAISED

    lf = _make_lf(4, "function", "prefix", "int", "0")
    (kernel,) = next(iter(build_plan([lf]).token_groups.values()))

    def match(label):
        return label << 2 | _MATCH

    assert kernel._sweep(["q1", "w", "q3"]) == [match(1), _NO_MATCH, match(3)]
    # "qx" fails ``int("x")`` and "q9" is no class of 4: both raise in the arm.
    tokens = ["q1", "qx", "q2", "w", "q9", "q4"]
    expected = [match(1), _RAISED, match(2), _NO_MATCH, _RAISED, match(4)]
    assert kernel._sweep(tokens) == expected
    assert_tiers_agree(lf, [tokens, ["qx", "q2"], ["w", "q4"]])
