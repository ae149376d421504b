"""Differential crash/resume tests: a killed run resumes bit-identically.

Each scenario forks a child that runs the streaming pipeline against a
block store with a deterministic kill fault installed (master SIGKILLed
after N durable chunk blocks, or after N end-model epochs — see
:mod:`repro.labeling.engine.faults`), asserts the child really died by
SIGKILL with durable partial progress on disk, then resumes the run in the
parent over the same store and compares everything against an
uninterrupted reference run: Λ must be bitwise identical, and the
probabilistic labels and end-model weights within 1e-12 (bitwise in
practice).  The matrix covers all three executors, because resume replays
blocks produced under any of them into the same accumulator path.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.datasets.base import TaskDataset
from repro.datasets.synthetic import (
    stream_text_candidates,
    stream_text_gold,
    text_vote_lfs,
)
from repro.discriminative.featurizers import RelationFeaturizer
from repro.discriminative.logistic import NoiseAwareLogisticRegression
from repro.labeling.blockstore import BlockStore, ChunkCheckpointer
from repro.labeling.engine import runtime
from repro.labeling.lf import LabelingFunction, lf_digest
from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

NUM_LFS = 5
TRAIN_POINTS = 200
TEST_POINTS = 60


def run_pipeline(
    checkpoint_dir=None,
    backend="sequential",
    featurizer=None,
    end_model=None,
    from_task=False,
    **overrides,
):
    settings = dict(
        seed=0,
        chunk_size=32,
        generative_epochs=3,
        discriminative_epochs=4,
        num_features=128,
        applier_backend=backend,
        applier_workers=2,
        checkpoint_dir=checkpoint_dir,
    )
    settings.update(overrides)
    lfs = text_vote_lfs(NUM_LFS)
    pipeline = SnorkelPipeline(
        lfs=lfs,
        config=PipelineConfig(**settings),
        featurizer=featurizer,
        discriminative_model=end_model,
    )
    train = stream_text_candidates(num_points=TRAIN_POINTS, num_lfs=NUM_LFS, seed=0)
    test = stream_text_candidates(num_points=TEST_POINTS, num_lfs=NUM_LFS, seed=1)
    test_gold = stream_text_gold(TEST_POINTS, seed=1)
    if from_task:
        task = TaskDataset(
            name="stream",
            candidates={"train": list(train), "test": list(test)},
            gold={"test": test_gold},
            lfs=lfs,
        )
        return pipeline.run(task)
    return pipeline.run_streams(train, test, test_gold)


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted, checkpoint-free run every scenario compares to."""
    return run_pipeline()


def run_and_die(checkpoint_dir, fault_spec, backend, from_task=False):
    """Fork a child that runs the pipeline under ``fault_spec`` until the
    injected SIGKILL; assert it really died that way."""
    pid = os.fork()
    if pid == 0:  # child
        # Drop inherited pool references WITHOUT closing them: the pipes and
        # worker processes belong to the parent.  The child builds its own.
        runtime._POOLS.clear()
        os.environ["REPRO_ENGINE_FAULTS"] = fault_spec
        try:
            run_pipeline(checkpoint_dir, backend, from_task=from_task)
        finally:
            os._exit(1)  # only reached if the injected kill never fired
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"child under {fault_spec!r} exited with status {status}, "
        "expected death by SIGKILL"
    )


def assert_matches_reference(result, reference):
    assert np.array_equal(result.label_matrix.values, reference.label_matrix.values)
    assert np.abs(result.training_probs - reference.training_probs).max() <= 1e-12
    assert (
        np.abs(
            result.discriminative_model.weights - reference.discriminative_model.weights
        ).max()
        <= 1e-12
    )
    assert result.generative_test_report.f1 == reference.generative_test_report.f1
    assert result.discriminative_test_report.f1 == reference.discriminative_test_report.f1


SCENARIOS = [
    # (backend, fault, durable progress the kill must leave)
    ("sequential", "die_block@2", "chunks"),
    ("sequential", "die_epoch@1", "epochs"),
    ("threads", "die_block@2", "chunks"),
    ("processes", "die_block@2", "chunks"),
    ("processes", "die_epoch@1", "epochs"),
]


@pytest.mark.parametrize("backend,fault,progress", SCENARIOS)
def test_sigkilled_run_resumes_bit_identically(tmp_path, reference, backend, fault, progress):
    root = str(tmp_path / "ckpt")
    run_and_die(root, fault, backend)

    # The kill left real durable partial progress — the resume below is a
    # genuine mid-run restart, not a fresh run.
    with BlockStore(root) as store:
        completed = ChunkCheckpointer(store, "train").completed
        if progress == "chunks":
            assert completed  # some train chunks durable...
            assert len(completed) < -(-TRAIN_POINTS // 32)  # ...but not all
        else:
            assert "epoch/end_model" in store  # died mid end-model training
            assert store.get_pickle("epoch/end_model")["epoch"] >= 1

    resumed = run_pipeline(root, backend)
    assert_matches_reference(resumed, reference)


def test_double_kill_then_resume(tmp_path, reference):
    """Two consecutive crashes at different points, then a clean resume."""
    root = str(tmp_path / "ckpt")
    run_and_die(root, "die_block@1", "sequential")
    run_and_die(root, "die_epoch@0", "sequential")
    resumed = run_pipeline(root, "sequential")
    assert_matches_reference(resumed, reference)


@pytest.mark.parametrize("fault", ["die_block@2", "die_epoch@1"])
def test_run_task_killed_then_resumed(tmp_path, reference, fault):
    """``run(task)`` is ``run_streams`` over the task's splits, so a
    checkpointed task run survives a kill exactly like a stream run (it used
    to refuse ``checkpoint_dir`` outright)."""
    root = str(tmp_path / "ckpt")
    run_and_die(root, fault, "sequential", from_task=True)
    resumed = run_pipeline(root, from_task=True)
    assert_matches_reference(resumed, reference)


def test_resume_skips_completed_work(tmp_path, reference):
    """A fully completed store resumes without recomputing: every chunk and
    epoch replays from disk, and the result is still identical."""
    root = str(tmp_path / "ckpt")
    first = run_pipeline(root)
    assert_matches_reference(first, reference)
    with BlockStore(root) as store:
        total_chunks = -(-TRAIN_POINTS // 32) + -(-TEST_POINTS // 32)
        num_blocks = len(store.keys())
    again = run_pipeline(root)
    assert_matches_reference(again, reference)
    with BlockStore(root) as store:
        # Replaying durable work writes nothing new.
        assert len(store.keys()) == num_blocks
        assert len(ChunkCheckpointer(store, "train").completed) == -(
            -TRAIN_POINTS // 32
        )
        assert total_chunks <= num_blocks


def test_torn_block_reexecuted_on_resume(tmp_path, reference):
    """A record corrupted after its durable append (torn write) is detected
    by checksum at open and ends the log there: its chunk and every later
    one re-execute — never replayed wrong."""
    root = str(tmp_path / "ckpt")
    run_and_die(root, "corrupt_block@2;die_block@4", "sequential")
    with BlockStore(root) as store:
        completed = ChunkCheckpointer(store, "train").completed
        assert completed == {0}  # ordinal 2 = second chunk put (after fingerprint)
    resumed = run_pipeline(root)
    assert_matches_reference(resumed, reference)


def test_resume_with_different_featurizer_recomputes(tmp_path):
    """Shrunk regression: the fingerprint once recorded only the featurizer's
    width, so a completed ``ngram_range=(1, 3)`` store resumed with a
    same-width ``(1, 1)`` featurizer replayed the old feature blocks and
    returned the old run's weights."""
    root = str(tmp_path / "ckpt")

    def featurizer(max_n):
        return RelationFeaturizer(num_features=128, ngram_range=(1, max_n))

    stored = run_pipeline(root, featurizer=featurizer(3))
    fresh = run_pipeline(featurizer=featurizer(1))
    assert not np.array_equal(
        fresh.discriminative_model.weights, stored.discriminative_model.weights
    )
    assert_matches_reference(run_pipeline(root, featurizer=featurizer(1)), fresh)


@pytest.mark.parametrize(
    "change",
    [
        dict(generative_epochs=30),
        dict(generative_step_size=0.2, learn_correlations=False),
        dict(force_strategy="MV"),
        dict(use_optimizer=False),
        dict(class_balance=0.1),
        dict(end_model=NoiseAwareLogisticRegression(epochs=4, learning_rate=0.1, seed=0)),
    ],
    ids=lambda change: "-".join(change),
)
def test_resume_with_different_result_changing_setting_recomputes(tmp_path, change):
    """Shrunk regression: the fingerprint once listed a handful of config
    fields, so a completed store re-run under another label-model schedule,
    strategy, class balance or caller-supplied end model matched
    it and returned the *old* run's memoized label-modeling outcome and
    end-model epoch state."""
    root = str(tmp_path / "ckpt")
    run_pipeline(root)
    fresh = run_pipeline(**change)
    rerun = run_pipeline(root, **change)
    assert rerun.strategy == fresh.strategy
    assert (rerun.generative_model is None) == (fresh.generative_model is None)
    assert_matches_reference(rerun, fresh)


# ----------------------------------------------------- the suite's identity
class _Crash(Exception):
    """Raised by a train stream mid-pass."""


def _crashing(candidates, after):
    for index, candidate in enumerate(candidates):
        if index == after:
            raise _Crash
        yield candidate


def _votes_positive(candidate):
    return 1


def _votes_negative(candidate):
    return -1


def _edited_suite_run(root, body, crash_after=None):
    config = PipelineConfig(seed=0, chunk_size=64, generative_epochs=3, discriminative_epochs=2,
                            num_features=64, checkpoint_dir=root)
    lfs = text_vote_lfs(NUM_LFS) + [LabelingFunction("edited", body)]
    train = stream_text_candidates(num_points=300, num_lfs=NUM_LFS, seed=0)
    if crash_after is not None:
        train = _crashing(train, crash_after)
    test = stream_text_candidates(num_points=TEST_POINTS, num_lfs=NUM_LFS, seed=1)
    pipeline = SnorkelPipeline(lfs=lfs, config=config)
    return pipeline.run_streams(train, test, stream_text_gold(TEST_POINTS, seed=1))


def test_resume_under_an_edited_lf_that_kept_its_name_recomputes(tmp_path):
    """Regression: the fingerprint recorded LF names only, so a run crashed
    under ``edited`` voting +1 resumed under an ``edited`` voting −1 replayed
    the durable chunks of the old body (+1 rows beside −1 rows)."""
    root = str(tmp_path / "ckpt")
    with pytest.raises(_Crash):
        _edited_suite_run(root, _votes_positive, crash_after=210)
    with BlockStore(root) as store:
        assert ChunkCheckpointer(store, "train").completed  # durable chunks of the old body
    resumed = _edited_suite_run(root, _votes_negative)
    assert set(resumed.label_matrix.values[:, -1].tolist()) == {-1}
    assert_matches_reference(resumed, _edited_suite_run(None, _votes_negative))


def test_lf_digest_follows_the_code_and_what_it_reads():
    lf = text_vote_lfs(3)[2]
    before = lf_digest(lf)
    assert before == lf_digest(text_vote_lfs(3)[2]) != lf_digest(text_vote_lfs(3)[1])
    lf.function.prefix = "lf9v"  # an instance attribute the body reads
    assert lf_digest(lf) != before
    edited = LabelingFunction("edited", _votes_positive)
    before, code = lf_digest(edited), _votes_positive.__code__
    try:
        _votes_positive.__code__ = _votes_negative.__code__  # the body edited in place
        assert lf_digest(edited) != before
    finally:
        _votes_positive.__code__ = code
    assert lf_digest(LabelingFunction("opaque", np.frompyfunc(abs, 1, 1))) is None


class _SlottedVoter:
    """A callable LF body without a ``__dict__``: its state is a slot."""

    __slots__ = ("prefix",)

    def __init__(self, prefix):
        self.prefix = prefix

    def __call__(self, candidate):
        for word in candidate.sentence.words:
            if word.startswith(self.prefix):
                return 1
        return 0


class _SlottedSubclass(_SlottedVoter):
    """Slots along the MRO plus a ``__dict__``."""


def test_lf_digest_encodes_slot_state():
    """Regression: ``_encode`` read ``__dict__`` alone, so any slotted object
    an LF read digested to ``None`` and a checkpointed run never resumed."""
    voter = _SlottedVoter("lf1v")
    lf = LabelingFunction("slotted", voter)
    before = lf_digest(lf)
    assert before is not None
    assert lf_digest(LabelingFunction("slotted", _SlottedVoter("lf1v"))) == before
    voter.prefix = "lf2v"  # a slot rebound
    assert lf_digest(lf) not in (None, before)
    del voter.prefix  # an unset slot is state too
    assert lf_digest(lf) not in (None, before)
    sub = _SlottedSubclass("lf1v")
    plain = lf_digest(LabelingFunction("slotted", sub))
    sub.extra = 1  # the __dict__ beside the slots
    assert None not in (plain, lf_digest(LabelingFunction("slotted", sub))) != plain
    candidate = next(iter(stream_text_candidates(num_points=1, num_lfs=NUM_LFS, seed=0)))
    assert lf_digest(LabelingFunction("reads_a_view", lambda c: c is candidate)) is not None


_SLOTTED_DIGEST = textwrap.dedent(
    """
    from repro.labeling.lf import LabelingFunction, lf_digest

    class Voter:
        __slots__ = ("prefix", "votes")

        def __init__(self):
            self.prefix, self.votes = "lf1v", {"p": 1, "n": -1, "x": 0}

        def __call__(self, candidate):
            return 0

    print(lf_digest(LabelingFunction("slotted", Voter())))
    """
)


def test_slotted_lf_digests_alike_under_any_hash_seed():
    first, second = (_python(_SLOTTED_DIGEST, hash_seed=seed).stdout for seed in (1, 2))
    assert first == second and first.strip() not in ("", "None")


def test_resume_with_a_slotted_lf_body_replays(tmp_path, monkeypatch):
    """A checkpointed run whose LF body is slotted, killed mid-stream, replays
    its durable blocks on resume instead of clearing the store."""
    root = str(tmp_path / "ckpt")
    with pytest.raises(_Crash):
        _edited_suite_run(root, _SlottedVoter("lf1v"), crash_after=210)
    with BlockStore(root) as store:
        durable = set(ChunkCheckpointer(store, "train").completed)
    assert durable
    cleared = []
    clear = BlockStore.clear
    monkeypatch.setattr(BlockStore, "clear", lambda store: cleared.append(1) or clear(store))
    resumed = _edited_suite_run(root, _SlottedVoter("lf1v"))
    assert not cleared
    assert_matches_reference(resumed, _edited_suite_run(None, _SlottedVoter("lf1v")))


_DIGESTS = textwrap.dedent(
    """
    import json
    from repro.datasets.cdr import build_cdr_task
    from repro.datasets.synthetic import text_vote_lfs
    from repro.labeling.lf import lf_digest

    suites = dict(k2=text_vote_lfs(20), k4=text_vote_lfs(20, cardinality=4),
                  cdr=build_cdr_task(scale=0.05).lfs)
    print(json.dumps({name: list(map(lf_digest, lfs)) for name, lfs in suites.items()}))
    """
)

_RESUME = textwrap.dedent(
    """
    import sys
    from repro.datasets.synthetic import stream_text_candidates, stream_text_gold, text_vote_lfs
    from repro.labeling.blockstore import BlockStore
    from repro.pipeline.snorkel import PipelineConfig, SnorkelPipeline

    class Crash(Exception):
        pass

    root, crash = sys.argv[1], sys.argv[2] == "crash"
    cleared = []
    clear = BlockStore.clear
    BlockStore.clear = lambda store: cleared.append(1) or clear(store)

    def train():
        for index, candidate in enumerate(stream_text_candidates(200, num_lfs=5, seed=0)):
            if crash and index == 150:
                raise Crash
            yield candidate

    config = PipelineConfig(seed=0, chunk_size=32, generative_epochs=3, discriminative_epochs=4,
                            num_features=128, checkpoint_dir=root)
    try:
        result = SnorkelPipeline(lfs=text_vote_lfs(5), config=config).run_streams(
            train(), stream_text_candidates(60, num_lfs=5, seed=1), stream_text_gold(60, seed=1))
    except Crash:
        sys.exit(3)
    print(len(cleared), result.label_matrix.values.tobytes().hex())
    """
)


def _python(script, *args, hash_seed):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_served_suites_digest_alike_under_any_hash_seed():
    """``text_vote_lfs`` (callable instances) and the cdr suite (closures over
    patterns, sets and tuples) digest — so a checkpointed run of them resumes
    — and to the same value under two hash seeds."""
    first, second = (json.loads(_python(_DIGESTS, hash_seed=seed).stdout) for seed in (1, 2))
    assert first == second
    distinct = {name: len(set(digests)) for name, digests in first.items()}
    assert distinct == dict(k2=20, k4=20, cdr=32)
    assert None not in sum(first.values(), [])


def test_resume_under_another_hash_seed_replays(tmp_path, reference):
    root = str(tmp_path / "ckpt")
    assert _python(_RESUME, root, "crash", hash_seed=1).returncode == 3
    resumed = _python(_RESUME, root, "resume", hash_seed=2)
    cleared, labels = resumed.stdout.split()
    assert cleared == "0"  # the store was replayed, not cleared
    assert labels == reference.label_matrix.values.tobytes().hex()
