"""Token kernels: a chunk's kernels over one source column resolve together.

A compiled plan groups its ``TokenScan`` / ``TokenMatch`` kernels by the
token column they read (``PushdownPlan.token_groups``), and the first one a
chunk evaluates resolves its whole group: one outcome matrix over the
chunk's distinct tokens, one gather, one ``nonzero``.  These tests pin that
structure and what it costs, the membership semantics of the vocabulary
kernels (the container's own ``__contains__``, whatever its members are),
and the order the compiled label task reports errors in.
"""

import cProfile
import dataclasses

import numpy as np
import pytest

from repro.datasets import load_task
from repro.datasets.synthetic import stream_text_candidates, text_vote_lfs
from repro.labeling import LFApplier, build_plan
from repro.labeling.lf import LabelingFunction
from repro.labeling.pushdown import label_chunk_pushdown, program
from repro.utils import tokens
from repro.utils.textutils import normalize


def _cdr_suite_and_chunk():
    task = load_task("cdr", scale=0.3, seed=0)
    candidates = [c for split in task.candidates.values() for c in split]
    return task.lfs, candidates[:1024]


def _text_vote_suite_and_chunk():
    return text_vote_lfs(20), list(stream_text_candidates(1024, num_lfs=20, seed=0))


def test_a_plans_token_kernels_resolve_together_per_column(monkeypatch):
    """Every kernel of a source column maps to one shared group, and a chunk
    resolves each group once, whichever of its kernels is evaluated first."""
    resolved, resolve = [], program._resolve

    def recording(chunk, kernels):
        resolved.append(kernels)
        return resolve(chunk, kernels)

    monkeypatch.setattr(program, "_resolve", recording)
    for suite, column, size in (
        (_text_vote_suite_and_chunk, ("sentence", "words"), 20),
        (_cdr_suite_and_chunk, ("words_between",), 22),
    ):
        lfs, chunk = suite()
        plan = build_plan(lfs)
        groups = {id(group): group for group in plan.token_groups.values()}
        assert [(group[0].child.key[1], len(group)) for group in groups.values()] == [
            (column, size)
        ]
        resolved.clear()
        label_chunk_pushdown(plan, True, 0, 0, chunk)
        assert [len(kernels) for kernels in resolved] == [size]


def _label_task_calls(lfs, chunk) -> int:
    plan = build_plan(lfs)
    label_chunk_pushdown(plan, True, 0, 0, chunk)  # the plan's memo knows every token
    profile = cProfile.Profile()
    profile.enable()
    label_chunk_pushdown(plan, True, 0, 0, chunk)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize(
    "suite,budget",
    [(_text_vote_suite_and_chunk, 796), (_cdr_suite_and_chunk, 2308)],
    ids=["text_vote_lfs(20)", "cdr"],
)
def test_label_task_call_budget(monkeypatch, suite, budget):
    """Profiled calls of the compiled label task on one warm 1 024-row chunk,
    bounded at the count of the grouped kernels plus 10 %.

    Before the grouping (each kernel resolved alone through ``inverse``,
    ``row_any`` / ``row_first``, and Λ merged from per-column blocks by
    ``lexsort``) the same measurement read 1 928 calls for
    ``text_vote_lfs(20)`` and 7 117 for the cdr suite; before each
    ignore-case regex shared one lowered copy of its text column (a
    ``str.lower`` call per row per pattern), the cdr suite read 6 389.
    """
    monkeypatch.setattr(tokens, "_TABLE", tokens.TokenTable())
    assert _label_task_calls(*suite()) <= budget * 1.1


# ---------------------------------------------------------------------------
# Membership: the vocabulary's own __contains__
# ---------------------------------------------------------------------------


class Word(str):
    """A ``str`` subclass: equal to, and hashing like, the plain string."""


class Prefixed:
    """A member equal to every vote token of LF 1."""

    __hash__ = None

    def __eq__(self, other):
        return isinstance(other, str) and other.startswith("lf1v")


class RaisesOnLF2:
    """A member whose comparison raises on LF 2's vote tokens."""

    __hash__ = None

    def __eq__(self, other):
        if other.startswith("lf2v"):
            raise ValueError(f"cannot compare {other!r}")
        return False


SUBCLASS_SET = {Word("lf1vp"), Word("lf1vn")}
NUMPY_TUPLE = tuple(np.array(["lf1vp", "lf1vn"]))
SUBCLASS_DICT = {Word("lf1vp"): 1, Word("lf1vn"): 2}
SUBCLASS_FROZENSET = frozenset(SUBCLASS_SET)
EQ_LIST = ["zzz", Prefixed()]
RAISING_LIST = [RaisesOnLF2(), "lf1vp"]


def in_subclass_set(candidate):
    for word in candidate.sentence.words:
        if word in SUBCLASS_SET:
            return 1
    return 0


def in_numpy_tuple(candidate):
    for word in candidate.sentence.words:
        if word in NUMPY_TUPLE:
            return 1
    return 0


def in_subclass_dict(candidate):
    for word in candidate.sentence.words:
        if normalize(word) in SUBCLASS_DICT:
            return -1
    return 0


def subclass_overlap(candidate):
    return 1 if {normalize(word) for word in candidate.words_between()} & SUBCLASS_FROZENSET else 0


def in_eq_list(candidate):
    for word in candidate.sentence.words:
        if word in EQ_LIST:
            return 1
    return 0


def in_raising_list(candidate):
    for word in candidate.sentence.words:
        if word in RAISING_LIST:
            return 1
    return 0


def _identical(lfs, candidates, chunk_size=64):
    """Λ, error counts and error breakdowns (in order) of ``auto`` ≡ ``off``."""
    runs = []
    for pushdown in ("off", "auto"):
        applier = LFApplier(lfs, pushdown=pushdown, fault_tolerant=True, chunk_size=chunk_size)
        values = applier.apply(candidates).values
        report = applier.last_report
        details = [(name, list(d.type_counts.items())) for name, d in report.error_details.items()]
        runs.append((values, list(report.errors.items()), details, report.pushdown))
    (off, off_errors, off_details, _), (auto, auto_errors, auto_details, pushdown) = runs
    np.testing.assert_array_equal(auto, off)
    assert auto_errors == off_errors and auto_details == off_details
    return off, off_errors, pushdown


@pytest.mark.parametrize(
    "body,raises",
    [
        (in_subclass_set, False),
        (in_numpy_tuple, False),
        (in_subclass_dict, False),
        (subclass_overlap, False),
        (in_eq_list, False),
        (in_raising_list, True),
    ],
    ids=["str-subclass-set", "numpy-str-tuple", "str-subclass-dict", "overlap", "custom-eq-list",
         "raising-member"],
)
def test_membership_is_the_containers_own(body, raises):
    """Regression: the ``isin`` kernel kept only the vocabulary members whose
    type is exactly ``str``, so a set or dict of ``str`` subclasses, a tuple
    of ``numpy.str_`` or a list holding a member with its own ``__eq__``
    matched nothing compiled (0 votes against 58 interpreted here).  A token
    whose membership test raises sends its rows to the exact per-row loop."""
    lf = LabelingFunction(body.__name__, body)
    candidates = list(stream_text_candidates(200, num_lfs=6, seed=0))
    values, errors, pushdown = _identical([lf], candidates)
    assert pushdown.compiled == [body.__name__]
    assert np.count_nonzero(values) > 0
    assert bool(errors) == raises


def test_error_report_follows_the_interpreted_row_major_order():
    """Regression: the compiled label task reported LF errors in column
    order, the interpreted scan in the order it meets them (row-major), so
    a chunk where a later LF failed on an earlier row read a differently
    ordered ``ApplyReport.errors``."""

    def vote(candidate):  # AttributeError on the int token only
        for word in candidate.sentence.words:
            if word.startswith("lf3v"):
                return 1
        return 0

    def digit(candidate):  # ValueError on any word not ending in a digit
        for word in candidate.sentence.words:
            if int(word[-1]) > 5:
                return 1
        return 0

    candidates = list(stream_text_candidates(40, num_lfs=6, seed=1))
    odd = candidates[7]
    words = [7, *odd.sentence.words[1:]]
    sentence = dataclasses.replace(odd.sentence, words=words)
    candidates[7] = dataclasses.replace(odd, sentence=sentence)
    lfs = [LabelingFunction("vote", vote), LabelingFunction("digit", digit)]
    _, errors, pushdown = _identical(lfs, candidates, chunk_size=16)
    assert pushdown.compiled == ["vote", "digit"]
    assert [name for name, _count in errors] == ["digit", "vote"]
