"""Fault-tolerant study engine: checkpoint/resume, retries, quarantine, chaos.

Every test here uses the deterministic fault harness
(:class:`repro.util.faults.FaultPlan`): a seeded plan injects crashes,
stalls, aborts and store corruption in exactly the same places every run,
so the recovery paths can be asserted *byte-identical* to a fault-free
study rather than merely "it didn't crash".
"""

import pytest

from repro.core.errors import (
    CheckpointError,
    ChunkTimeoutError,
    ReproError,
    StudyAbortedError,
    WorkerCrashError,
)
from repro.study.resilience import (
    CellFailure,
    StudyCheckpoint,
    backoff_seconds,
    classify_failure,
    config_digest,
)
from repro.study.runner import StudyConfig, run_study
from repro.util.faults import FaultPlan

REDUCED = StudyConfig(
    applications=("RFCTH-standard", "HYCOM-standard", "AVUS-standard"),
    systems=("ARL_Opteron", "NAVO_P3", "NAVO_655"),
)


@pytest.fixture(scope="module")
def clean():
    """Fault-free reference run of the reduced matrix."""
    return run_study(REDUCED)


def assert_bit_identical(a, b):
    assert a.records == b.records
    assert a.observed == b.observed
    assert all(
        x.predicted_seconds.hex() == y.predicted_seconds.hex()
        and x.actual_seconds.hex() == y.actual_seconds.hex()
        for x, y in zip(a.records, b.records)
    )


# ---------------------------------------------------------------------------
# fault plan determinism
# ---------------------------------------------------------------------------


def test_fault_plan_is_deterministic():
    a, b = FaultPlan(seed=7, crash_rate=0.4), FaultPlan(seed=7, crash_rate=0.4)
    decisions = [(l, k) for l in ("x", "y", "z") for k in range(6)]
    assert [a.should_crash(l, k) for l, k in decisions] == [
        b.should_crash(l, k) for l, k in decisions
    ]
    assert any(a.should_crash(l, k) for l, k in decisions)
    assert not all(a.should_crash(l, k) for l, k in decisions)


def test_fault_plan_parse_round_trip():
    plan = FaultPlan.parse("crash=0.25,stall=0.1,corrupt=0.5,seed=7,hard=1,abort_after=2")
    assert plan == FaultPlan(
        seed=7, crash_rate=0.25, stall_rate=0.1, corrupt_rate=0.5,
        hard_crashes=True, abort_after=2,
    )
    with pytest.raises(ValueError, match="bad fault spec"):
        FaultPlan.parse("crash=0.25,bogus=1")
    with pytest.raises(ValueError, match="crash_rate"):
        FaultPlan(crash_rate=1.5)


def test_backoff_is_seeded_capped_exponential():
    assert backoff_seconds(1, "k") == backoff_seconds(1, "k")
    assert backoff_seconds(1, "k") != backoff_seconds(2, "k")
    assert backoff_seconds(30, "k") <= 2.0 * 1.5  # cap * max jitter


def test_classify_failure_taxonomy():
    assert classify_failure(WorkerCrashError("x"))[0] == "WorkerCrashError"
    assert classify_failure(ChunkTimeoutError("x"))[0] == "ChunkTimeoutError"
    assert classify_failure(RuntimeError("boom")) == ("RuntimeError", "boom")


# ---------------------------------------------------------------------------
# retry: crashes up to heavy rates still complete, byte-identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rate", [0.25, 0.5])
def test_serial_study_survives_injected_crashes(clean, rate):
    result = run_study(
        REDUCED, faults=FaultPlan(seed=3, crash_rate=rate), max_retries=8
    )
    assert result.failures == []
    assert_bit_identical(result, clean)


def test_serial_study_survives_injected_stalls(clean):
    plan = FaultPlan(seed=5, stall_rate=0.25, stall_seconds=0.01)
    result = run_study(REDUCED, faults=plan, max_retries=8)
    assert result.failures == []
    assert_bit_identical(result, clean)


def test_pool_study_survives_soft_crashes(clean):
    result = run_study(
        REDUCED,
        workers=2,
        min_parallel_cells=0,
        faults=FaultPlan(seed=3, crash_rate=0.25),
        max_retries=8,
    )
    assert result.failures == []
    assert_bit_identical(result, clean)


def test_pool_study_survives_hard_worker_deaths(clean):
    """os._exit in a worker breaks the pool; it must be rebuilt and retried."""
    result = run_study(
        REDUCED,
        workers=2,
        min_parallel_cells=0,
        faults=FaultPlan(seed=5, crash_rate=0.4, hard_crashes=True),
        max_retries=8,
    )
    assert result.failures == []
    assert_bit_identical(result, clean)


def test_broken_pool_does_not_poison_later_studies(clean):
    """Regression: a BrokenProcessPool used to fail every later run_study."""
    # Break the pool hard (crash rate 1 exhausts retries instantly)...
    broken = run_study(
        REDUCED,
        workers=2,
        min_parallel_cells=0,
        faults=FaultPlan(seed=1, crash_rate=1.0, hard_crashes=True),
        max_retries=0,
    )
    assert len(broken.failures) == len(REDUCED.applications)
    # ...then a plain parallel study on the same key must transparently rebuild.
    after = run_study(REDUCED, workers=2, min_parallel_cells=0)
    assert_bit_identical(after, clean)


# ---------------------------------------------------------------------------
# quarantine: exhausted retries degrade to partial results
# ---------------------------------------------------------------------------


def test_exhausted_retries_quarantine_with_taxonomy(clean):
    result = run_study(
        REDUCED, faults=FaultPlan(seed=1, crash_rate=1.0), max_retries=2
    )
    assert [f.application for f in result.failures] == list(REDUCED.applications)
    for failure in result.failures:
        assert failure.error == "WorkerCrashError"
        assert failure.attempts == 3  # 1 try + 2 retries
    assert result.records == [] and result.n_predictions == 0


def test_partial_study_keeps_surviving_chunks_identical(clean):
    # Crash only HYCOM, always: the other two rows must come through intact.
    class OneAppPlan(FaultPlan):
        def should_crash(self, label, attempt):
            return label == "HYCOM-standard"

    result = run_study(REDUCED, faults=OneAppPlan(), max_retries=1)
    assert [f.application for f in result.failures] == ["HYCOM-standard"]
    survivors = [r for r in clean.records if r.application != "HYCOM-standard"]
    assert result.records == survivors
    # aggregations over the partial matrix must not raise
    table = result.overall_table()
    assert all(s.count > 0 for s in table.values())
    assert result.system_table() and result.app_case_errors("RFCTH-standard")


def test_chunk_timeout_quarantines_as_timeout():
    plan = FaultPlan(seed=2, stall_rate=1.0, stall_seconds=0.05)
    result = run_study(REDUCED, faults=plan, max_retries=1, chunk_timeout=0.02)
    assert [f.error for f in result.failures] == ["ChunkTimeoutError"] * 3
    assert result.n_predictions == 0


def test_timeout_generous_enough_passes(clean):
    result = run_study(REDUCED, chunk_timeout=120.0)
    assert result.failures == []
    assert_bit_identical(result, clean)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


def test_killed_study_resumes_byte_identical(tmp_path, clean):
    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(REDUCED, checkpoint=ck, faults=FaultPlan(abort_after=1))
    assert ck.is_dir()
    # the journal holds the identity event + exactly one completed chunk
    from repro.events import replay_dir

    kinds = [type(ev).kind for _, _, ev in replay_dir(ck)]
    assert kinds == ["study-started", "chunk-completed"]
    resumed = run_study(REDUCED, checkpoint=ck)
    assert resumed.failures == []
    assert_bit_identical(resumed, clean)


def test_resume_skips_completed_chunks(tmp_path, clean, monkeypatch):
    import repro.study.runner as runner_mod

    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(REDUCED, checkpoint=ck, faults=FaultPlan(abort_after=2))

    computed = []
    original = runner_mod._run_submatrix

    def spy(cfg, labels, systems, store, timer=None):
        computed.extend(labels)
        return original(cfg, labels, systems, store, timer)

    monkeypatch.setattr(runner_mod, "_run_submatrix", spy)
    resumed = run_study(REDUCED, checkpoint=ck)
    assert len(computed) == 1  # only the one chunk the kill left unfinished
    assert_bit_identical(resumed, clean)


def test_completed_checkpoint_resumes_without_recompute(tmp_path, clean, monkeypatch):
    import repro.study.runner as runner_mod

    ck = tmp_path / "study.ckpt"
    run_study(REDUCED, checkpoint=ck)
    monkeypatch.setattr(
        runner_mod, "_run_submatrix",
        lambda *a, **k: pytest.fail("complete checkpoint must not recompute"),
    )
    replayed = run_study(REDUCED, checkpoint=ck)
    assert_bit_identical(replayed, clean)


def test_checkpoint_of_other_config_is_restarted(tmp_path, clean):
    ck = tmp_path / "study.ckpt"
    other = REDUCED.variant(noise=False)
    run_study(other, checkpoint=ck)
    # different identity -> journal ignored and rewritten, result still clean
    result = run_study(REDUCED, checkpoint=ck)
    assert_bit_identical(result, clean)
    from repro.events import replay_dir

    started = next(ev for _, _, ev in replay_dir(ck) if type(ev).kind == "study-started")
    assert started.config_digest == config_digest(REDUCED)


def test_checkpoint_torn_tail_is_dropped_and_compacted(tmp_path, clean):
    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(REDUCED, checkpoint=ck, faults=FaultPlan(abort_after=2))
    segment = max(ck.glob("events-*.jsonl"))
    with open(segment, "a") as fh:
        fh.write('{"seq": 99, "event": {"kind": "chunk-comp')  # torn append
    resumed = run_study(REDUCED, checkpoint=ck)
    assert_bit_identical(resumed, clean)


def test_regular_file_checkpoint_path_raises_and_keeps_the_file(tmp_path):
    """A checkpoint path naming a regular file is not a journal this
    program wrote: a typed error naming it, and the file left alone."""
    ck = tmp_path / "study.ckpt"
    ck.write_text('{"kind": "study-checkpoint", "schema_version": 1}\n')
    with pytest.raises(CheckpointError, match="study.ckpt"):
        run_study(REDUCED, checkpoint=ck)
    assert ck.read_text() == '{"kind": "study-checkpoint", "schema_version": 1}\n'


def test_quarantined_chunks_leave_audit_events(tmp_path):
    from repro.events import replay_dir

    ck = StudyCheckpoint(str(tmp_path / "j"), "d" * 32)
    ck.record("chunk", [], {}, {})
    ck.record_failure(CellFailure("app", "WorkerCrashError", "boom", 3))
    kinds = [type(ev).kind for _, _, ev in replay_dir(tmp_path / "j")]
    assert kinds == ["study-started", "chunk-completed", "cell-failed"]


def test_checkpoint_engine_knobs_do_not_invalidate():
    # max_retries / chunk_timeout are identity-neutral by design
    assert config_digest(REDUCED) == config_digest(REDUCED.variant(max_retries=9))
    assert config_digest(REDUCED) != config_digest(REDUCED.variant(noise=False))


def test_checkpoint_under_crash_faults_resumes(tmp_path, clean):
    """Chaos + checkpoint together: crash-heavy run, killed, then resumed."""
    ck = tmp_path / "study.ckpt"
    plan = FaultPlan(seed=3, crash_rate=0.5, abort_after=1)
    with pytest.raises(StudyAbortedError):
        run_study(REDUCED, checkpoint=ck, faults=plan, max_retries=8)
    resumed = run_study(
        REDUCED, checkpoint=ck, faults=FaultPlan(seed=3, crash_rate=0.5), max_retries=8
    )
    assert resumed.failures == []
    assert_bit_identical(resumed, clean)


def test_pool_study_with_checkpoint_resumes(tmp_path, clean):
    ck = tmp_path / "study.ckpt"
    with pytest.raises(StudyAbortedError):
        run_study(
            REDUCED, workers=2, min_parallel_cells=0,
            checkpoint=ck, faults=FaultPlan(abort_after=1),
        )
    resumed = run_study(REDUCED, workers=2, min_parallel_cells=0, checkpoint=ck)
    assert_bit_identical(resumed, clean)


# ---------------------------------------------------------------------------
# checkpoint unit behaviour
# ---------------------------------------------------------------------------


def test_checkpoint_float_round_trip_is_exact(tmp_path):
    ck = StudyCheckpoint(str(tmp_path / "c.ckpt"), "digest")
    records = [["app", 4, "sys", 1, 0.1 + 0.2, 1e-17, -3.25]]
    ck.record("app", records, {("app", "sys", 4): 0.30000000000000004}, {"trace": 0.5})
    loaded = StudyCheckpoint(str(tmp_path / "c.ckpt"), "digest").load()
    row = loaded["app"]["records"][0]
    assert row[4].hex() == (0.1 + 0.2).hex()
    assert row[5].hex() == (1e-17).hex()
    assert loaded["app"]["observed"][0][3].hex() == (0.30000000000000004).hex()


def test_checkpoint_rejects_wrong_digest(tmp_path):
    path = str(tmp_path / "c.ckpt")
    ck = StudyCheckpoint(path, "digest-a")
    ck.record("app", [], {}, {})
    assert StudyCheckpoint(path, "digest-b").load() == {}
    assert StudyCheckpoint(path, "digest-a").load().keys() == {"app"}


def test_cell_failure_is_structured():
    f = CellFailure("app", "WorkerCrashError", "boom", 3)
    assert f.application == "app" and f.attempts == 3
    assert isinstance(f, tuple)
    assert issubclass(WorkerCrashError, ReproError)
