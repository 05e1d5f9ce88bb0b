"""The ``study`` workload: the paper's pipeline over a generated universe.

Four pass kinds run interleaved in one process, in a rotating order, so
store writes sit beside store reads and host drift hits every kind alike
(see :data:`ROUND`):

* ``cold``        serial, no store, after ``clear_study_caches()``;
* ``store_write`` cold, into a fresh ``TraceStore`` directory, flush
                  included (a user's first ``--cache-dir`` run);
* ``store_read``  against the store just written, in-process memos
                  cleared (a later ``--cache-dir`` run);
* ``parallel``    ``workers=2`` on a pool started for the pass, so the
                  workers are as cold as in a fresh ``--workers 2`` run.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time

import common
from common import Report, median
from layers import (
    PASS_KINDS,
    STUDY_LAYER_METRICS,
    install_engine,
    install_store,
    install_study_workers,
    pass_layer_values,
    read_spool,
)
from spans import Patches, Recorder

KINDS = [kind for kind, _prefix in PASS_KINDS]
#: One round: every kind once, plus two more cold passes.  The cold pass
#: (a user's plain run) is the noisiest per pass and the one the gated
#: latency is taken from, so it gets three samples per round.
ROUND = ("cold", "store_write", "cold", "store_read", "cold", "parallel")


class StudyBench:
    def __init__(self, seed: int, report: Report):
        from repro.scenarios import mount_universe
        from repro.study.runner import StudyConfig

        self.report = report
        self.golden_check()
        universe = mount_universe(common.universe_ref(seed))
        if seed == 0:
            digest = universe.digest()
            report.op(
                digest == common.SEED0_DIGEST,
                f"seed-0 universe digest {digest} != {common.SEED0_DIGEST}",
            )
        self.config = StudyConfig(
            applications=tuple(a.label for a in universe.applications),
            systems=tuple(m.name for m in universe.machines),
        )
        self.reference = None
        self.stores = itertools.count()
        self.last_store: str | None = None
        self.worker_rss_mb = 0.0
        self.calib: list[float] = []

    def golden_check(self) -> None:
        """The paper matrix must reproduce the committed records exactly."""
        from repro.study.runner import StudyConfig, run_study

        golden = json.loads(common.GOLDEN.read_text())
        result = run_study(StudyConfig())
        rows = [
            [r.application, r.cpus, r.system, r.metric,
             r.actual_seconds, r.predicted_seconds, r.error_percent]
            for r in result.records
        ]
        self.report.op(
            rows == golden["records"],
            "paper-matrix records differ from tests/golden/study_records.json",
        )

    # ------------------------------------------------------------------
    def run_pass(self, kind: str, timed=None):
        """One pass of ``kind``; returns its wall seconds.

        ``timed`` wraps the ``run_study`` call (the traced run opens its
        pass span there); set-up and clean-up around it are not timed.
        """
        import repro.study.runner as runner
        from repro.study.runner import clear_study_caches, run_study
        from repro.tracing.store import TraceStore

        kwargs = {}
        if kind == "store_write":
            path = common.SCRATCH / f"store-{next(self.stores)}"
            kwargs["store"] = TraceStore(path)
        elif kind == "store_read":
            kwargs["store"] = TraceStore(self.last_store)
        elif kind == "parallel":
            self.stop_pool()
            kwargs["workers"] = 2
        clear_study_caches()
        call = (lambda: run_study(self.config, **kwargs))
        start = time.perf_counter()
        result = timed(call) if timed is not None else call()
        seconds = time.perf_counter() - start
        if kind == "parallel":
            pool = runner._POOL
            if pool is not None and pool._processes:
                pids = list(pool._processes)
                self.worker_rss_mb = max(
                    self.worker_rss_mb, sum(common.vm_hwm_mb(pid) for pid in pids)
                )
            self.stop_pool()
        if kind == "store_write":
            if self.last_store is not None:
                shutil.rmtree(self.last_store, ignore_errors=True)
            self.last_store = str(kwargs["store"].root)
        self.check(kind, result)
        self.calib.append(common.host_calib_ms())
        return seconds

    def check(self, kind: str, result) -> None:
        if self.reference is None:
            self.reference = result.records
        ok = not result.failures and result.records == self.reference
        self.report.op(ok, f"{kind} pass records differ from the first pass")

    @staticmethod
    def stop_pool() -> None:
        """Shut the study pool down and wait for its workers to exit."""
        import repro.study.runner as runner

        pool = runner._POOL
        procs = list(pool._processes.values()) if pool is not None and pool._processes else []
        runner.shutdown_pool()
        for proc in procs:
            proc.join(timeout=10)
        if pool is not None:
            pool.shutdown(wait=True)

    @staticmethod
    def rounds(seconds: float):
        """Round numbers with their pass order (:data:`ROUND`, rotated one
        step each round) until ``seconds`` have passed."""
        end = time.monotonic() + seconds
        for r in itertools.count():
            if r > 0 and time.monotonic() >= end:
                return
            shift = r % len(ROUND)
            yield r, ROUND[shift:] + ROUND[:shift]


class PassTimes:
    """Pass times by kind, and the store-write overhead of each round.

    Rates are predictions over the *mean* pass time.  Pass times are
    bimodal on a shared host (it alternates between a fast and a slow
    state for seconds at a time), and a median of a handful of passes
    flips between the modes where a mean averages them.
    """

    def __init__(self, predictions: int):
        self.n = predictions
        self.times: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.write_overheads: list[float] = []

    def add_round(self, got: list[tuple[str, float]]) -> None:
        for kind, seconds in got:
            self.times[kind].append(seconds)
        cold = [seconds for kind, seconds in got if kind == "cold"]
        write = next(seconds for kind, seconds in got if kind == "store_write")
        self.write_overheads.append(write / (sum(cold) / len(cold)) - 1.0)

    def rate(self, kind: str) -> float:
        values = self.times[kind]
        return self.n * len(values) / sum(values)

    def blend_pps(self) -> float:
        """Predictions per second of one pass of each kind."""
        return len(KINDS) * self.n / sum(self.n / self.rate(kind) for kind in KINDS)

    def report_kinds(self, report: Report, prefix: str) -> None:
        """Per-kind rates and the store-write overhead."""
        for kind in KINDS:
            report.put(f"{prefix}{kind}_pps", self.rate(kind), "pred/s", len(self.times[kind]))
        report.put(
            "tracing.store.write_overhead", median(self.write_overheads), "ratio",
            len(self.write_overheads),
        )


def run(seed: int, seconds: float, trace: bool) -> Report:
    report = Report("study")
    setups = [common.launch_study_setup(common.universe_ref(seed)) for _ in range(common.SETUP_LAUNCHES)]
    bench = StudyBench(seed, report)
    bench.run_pass("cold")  # reference records; warms lazy imports
    times = PassTimes(len(bench.reference))
    try:
        if trace:
            _traced(bench, seconds, times, report)
        else:
            _untraced(bench, seconds, times, report)
    finally:
        bench.stop_pool()
    report.put("setup.import_s", median(s[1] for s in setups), "s", len(setups))
    report.put("setup.universe_s", median(s[2] for s in setups), "s", len(setups))
    report.put("host.calib_ms", median(bench.calib), "ms", len(bench.calib))
    if not trace:
        common.put_adjusted(
            report, "setup_s", median(s[0] for s in setups), "s", len(setups),
            common.host_factor([s[3] for s in setups]), rate=False,
        )
    return report


def _untraced(bench: StudyBench, seconds, times: PassTimes, report: Report) -> None:
    for _r, order in bench.rounds(seconds):
        times.add_round([(kind, bench.run_pass(kind)) for kind in order])
    parent_rss = common.vm_hwm_mb(os.getpid())
    report.put("peak_rss_mb", parent_rss + bench.worker_rss_mb, "MB", 1)
    factor = common.host_factor(bench.calib)
    common.put_adjusted(
        report, "throughput_pps", times.blend_pps(), "pred/s",
        len(times.write_overheads), factor, rate=True,
    )
    cold = times.times["cold"]
    common.put_adjusted(
        report, "latency_p50_ms", median(cold) * 1000.0, "ms", len(cold), factor, rate=False
    )
    times.report_kinds(report, "")


def _traced(bench: StudyBench, seconds, times: PassTimes, report: Report) -> None:
    """Untraced and traced rounds alternate; the traced ones give the
    per-layer metrics, the untraced ones the rates they are compared to."""
    rec = Recorder()
    spool = common.SCRATCH / "spool"
    spool.mkdir(exist_ok=True)
    traced = PassTimes(times.n)
    layer: dict[str, dict[str, list[float]]] = {kind: {} for kind in KINDS}

    for r, order in bench.rounds(seconds):
        if r % 2 == 0:
            times.add_round([(kind, bench.run_pass(kind)) for kind in order])
            continue
        patches = Patches()
        install_engine(rec, patches)
        install_store(rec, patches)
        install_study_workers(rec, patches, str(spool))
        got = []
        try:
            rec.active = True
            for kind in order:
                rec.reset()
                holder = {}

                def timed(call, kind=kind, holder=holder):
                    with rec.span("study.runner", {"kind": kind}) as span:
                        holder["span"] = span
                        return call()

                got.append((kind, bench.run_pass(kind, timed)))
                root = holder["span"]
                spans = list(rec.spans) + read_spool(str(spool), root, rec.ids)
                for name, value in pass_layer_values(root, spans).items():
                    layer[kind].setdefault(name, []).append(value)
        finally:
            rec.active = False
            patches.restore()
            rec.reset()
        traced.add_round(got)
    if not traced.write_overheads:
        raise RuntimeError("--seconds too short for a traced study round")

    for kind, prefix in PASS_KINDS:
        for name, unit in STUDY_LAYER_METRICS:
            values = layer[kind].get(name, [])
            report.put(f"{prefix}.{name}", median(values), unit, len(values))
    times.report_kinds(report, "study.")
    report.put("setup.boot_s", 0.0, "s", 0)
    report.put("setup.warmup_s", 0.0, "s", 0)
    report.put(
        "bench.trace_overhead_pps",
        traced.blend_pps() - times.blend_pps(),
        "pred/s",
        len(traced.write_overheads),
    )
