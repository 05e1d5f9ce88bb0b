"""The staged prediction engine: one owner of the canonical dataflow.

Every prediction in this codebase — a one-shot library call, a study
cell, an online query — is the same pipeline::

    probe ─┐
    execute ├─> trace ─> cache model ─> convolve ─> metric evaluate
           ─┘

:class:`Engine` owns that dataflow once.  Callers declare *what* with a
:class:`~repro.engine.plan.MatrixPlan` or
:class:`~repro.engine.plan.PointPlan` and *policy* with a middleware
tuple (:mod:`repro.engine.middleware`); the engine decides stage order,
threads the :class:`~repro.tracing.store.TraceStore` and deadline into
the backends, and evaluates metrics through the declarative registry
(:mod:`repro.core.registry`).  The former per-caller pipelines —
``core/predictor.py``'s one-shot loop, ``study/runner.py``'s 900-line
batch engine, ``serve/service.py``'s rung executor — are now thin
clients that build plans.

Byte-identity is a hard contract: :meth:`Engine.run_matrix` performs the
exact operation sequence the pre-engine study runner did (same probe
order, same shared :class:`~repro.core.convolver.RateTable` per row, same
inlined signed-error expression), so studies, checkpoints and golden
baselines written before the refactor replay bit-for-bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.apps.execution import executor_for
from repro.core.metrics import PredictionContext, predict_all, resolve_metrics
from repro.engine.middleware import StageRunner, TimingMiddleware
from repro.engine.plan import MatrixPlan, PointPlan, PredictionRecord, ProbeBundle
from repro.scenarios import BASE_SYSTEM, get_application, get_machine
from repro.probes.suite import probe_machine
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE, trace_application
from repro.tracing.store import TraceStore
from repro.util.options import CacheModel, Mode
from repro.util.timing import StageTimer

__all__ = ["Engine", "clear_row_cache"]

#: Row-level convolve memo: predict_all output keyed by the *identities* of
#: its inputs.  On the warm study path every input object recurs — metrics
#: are registry singletons, traces come from the in-memory trace cache,
#: probe bundles from the probe cache — so a repeat study row costs one
#: dict lookup instead of a full rate-table rebuild.  Each entry anchors
#: strong references to the keyed objects, which keeps their ids live for
#: exactly as long as the entry exists (an id can only be recycled after
#: the object is garbage collected), so identity keys can never alias.
_ROW_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_ROW_CACHE_MAX = 4096
_ROW_LOCK = threading.Lock()


def _predict_all_cached(metrics, trace, probes_row, base_probes, base_time, mode):
    key = (
        tuple(id(m) for m in metrics),
        id(trace),
        tuple(id(p) for p in probes_row),
        id(base_probes),
        base_time,
        mode,
    )
    with _ROW_LOCK:
        hit = _ROW_CACHE.get(key)
        if hit is not None:
            _ROW_CACHE.move_to_end(key)
            return hit[0]
    rows = predict_all(metrics, trace, probes_row, base_probes, base_time, mode)
    with _ROW_LOCK:
        _ROW_CACHE[key] = (
            rows,
            (tuple(metrics), trace, tuple(probes_row), base_probes),
        )
        while len(_ROW_CACHE) > _ROW_CACHE_MAX:
            _ROW_CACHE.popitem(last=False)
    return rows


def clear_row_cache() -> None:
    """Drop the row-level convolve memo (bench/test hook)."""
    with _ROW_LOCK:
        _ROW_CACHE.clear()

#: Stages the study path books wall-clock for via middleware; the trace
#: stage books itself (net of cache-model time) through the engine's
#: timer, so timing it again here would double-count.
_TIMED_MATRIX_STAGES = ("probe", "execute", "convolve")


class Engine:
    """Run prediction plans through the staged pipeline.

    Parameters
    ----------
    base_system:
        The base (tracing + Equation 1 anchor) system X0.
    mode, sample_size, noise, cache_model:
        Pipeline knobs; ``mode``/``cache_model`` are coerced to their
        validated enums so an invalid value fails here, not mid-run.
    store:
        Optional persistent trace/probe cache the engine threads into
        every backend call (the *only* place that wiring now lives).
    middleware:
        Stage middleware tuple applied to every stage invocation,
        outermost first (see :mod:`repro.engine.middleware`).
    """

    def __init__(
        self,
        base_system: str = BASE_SYSTEM,
        *,
        mode: str = "relative",
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        noise: bool = True,
        cache_model: str = "analytic",
        store: TraceStore | None = None,
        middleware: tuple = (),
    ):
        self.base_machine = get_machine(base_system)
        self.mode = str(Mode.coerce(mode))
        self.sample_size = sample_size
        self.noise = noise
        self.cache_model = str(CacheModel.coerce(cache_model))
        self.store = store
        self.middleware = tuple(middleware)
        self._stages = StageRunner(self.middleware)
        self._base_executor = executor_for(self.base_machine, noise=noise)
        self._base_times: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # default backends (point plans may override probe/trace per plan)
    # ------------------------------------------------------------------
    def base_time(self, app, cpus: int) -> float:
        """Measured (simulated) base-system time ``T(X0, Y)``, cached."""
        key = (app.label, cpus)
        time = self._base_times.get(key)
        if time is None:
            time = self._base_executor.run(app, cpus).total_seconds
            self._base_times[key] = time
        return time

    def probe_bundle(self, app, cpus: int, target, deadline=None) -> ProbeBundle:
        """Default probe backend: target + base probes and the base time."""
        target_probes = probe_machine(target, store=self.store, deadline=deadline)
        base_probes = probe_machine(self.base_machine, store=self.store, deadline=deadline)
        if (app.label, cpus) not in self._base_times and deadline is not None:
            deadline.checkpoint("probe")
        return ProbeBundle(target_probes, base_probes, self.base_time(app, cpus))

    def trace(self, app, cpus: int, deadline=None, timer=None):
        """Default trace backend: the base-system transfer function."""
        return trace_application(
            app,
            cpus,
            self.base_machine,
            self.sample_size,
            cache_model=self.cache_model,
            store=self.store,
            timer=timer,
            deadline=deadline,
        )

    # ------------------------------------------------------------------
    # point plans: one (application, cpus, machine, metric) query
    # ------------------------------------------------------------------
    def run_point(self, plan: PointPlan, deadline=None) -> float:
        """Predict one query, running only the stages the metric needs.

        The metric's registry-declared ``needs`` tuple drives the stage
        list: probe-only metrics (simple ratios, the balanced rating) are
        evaluated straight from the probe bundle — the tracer and
        convolver are never entered, which is what lets the serve layer
        keep answering from the probe cache when the convolver is down.
        """
        probe = plan.probe
        if probe is None:
            probe = lambda d: self.probe_bundle(plan.app, plan.cpus, plan.target, d)
        target_probes, base_probes, base_time = self._stages.run(
            "probe", deadline, probe
        )
        metric = plan.metric
        if "trace" not in metric.needs:
            return metric.predict(
                PredictionContext(
                    trace=None,
                    target_probes=target_probes,
                    base_probes=base_probes,
                    base_time=base_time,
                    mode=self.mode,
                )
            )
        trace_fn = plan.trace
        if trace_fn is None:
            trace_fn = lambda d: self.trace(plan.app, plan.cpus, d)
        trace = self._stages.run("trace", deadline, trace_fn)

        def convolve(d):
            if d is not None:
                d.checkpoint("convolve")
            return metric.predict_many(
                trace, [target_probes], base_probes, base_time, self.mode
            )[0]

        return self._stages.run("convolve", deadline, convolve)

    def run_row(self, plan: PointPlan, metrics, deadline=None) -> dict[int, float]:
        """All given metrics for one query, sharing probe/trace/rate work.

        The canonical many-metrics path (:func:`~repro.core.metrics.predict_all`
        shares one rate table across every predictive metric);
        ``PerformancePredictor.predict_row`` delegates here.
        """
        metric_objs = resolve_metrics(metrics)
        probe = plan.probe
        if probe is None:
            probe = lambda d: self.probe_bundle(plan.app, plan.cpus, plan.target, d)
        target_probes, base_probes, base_time = self._stages.run(
            "probe", deadline, probe
        )
        trace = None
        if any("trace" in m.needs for m in metric_objs):
            trace_fn = plan.trace
            if trace_fn is None:
                trace_fn = lambda d: self.trace(plan.app, plan.cpus, d)
            trace = self._stages.run("trace", deadline, trace_fn)

        def convolve(d):
            if d is not None:
                d.checkpoint("convolve")
            return predict_all(
                metric_objs, trace, [target_probes], base_probes, base_time, self.mode
            )

        rows = self._stages.run("convolve", deadline, convolve)
        return {number: values[0] for number, values in rows.items()}

    # ------------------------------------------------------------------
    # matrix plans: the offline study block
    # ------------------------------------------------------------------
    def run_matrix(
        self, plan: MatrixPlan, *, timer: StageTimer | None = None, deadline=None
    ) -> tuple[list[PredictionRecord], dict[tuple[str, str, int], float]]:
        """Compute the (labels × systems) block of a study matrix.

        Each (application, cpus) row is traced once and priced against
        all eligible systems for **all** metrics in one shot
        (:func:`~repro.core.metrics.predict_all` shares the row's rate
        tensors across metrics); records are then emitted in the
        canonical (application, system, cpus, metric) order.  Per-system
        results are independent, so any partition of the matrix produces
        the same records cell-for-cell — that partition-invariance is
        what makes the study runner's chunked fan-out and checkpoint
        resume byte-identical to a serial run.

        ``deadline`` makes the block cooperative: probe and trace calls
        checkpoint mid-stage and abandon the matrix with
        :class:`~repro.core.errors.DeadlineExceededError` once the budget
        is spent.
        """
        t = timer if timer is not None else StageTimer()
        stages = StageRunner(
            (TimingMiddleware(t, stages=_TIMED_MATRIX_STAGES),) + self.middleware
        )
        base_machine = self.base_machine
        labels, systems = plan.labels, plan.systems

        def probe_all(d):
            base_probes = probe_machine(base_machine, store=self.store, deadline=d)
            machines = {system: get_machine(system) for system in systems}
            probes = {
                system: probe_machine(machine, store=self.store, deadline=d)
                for system, machine in machines.items()
            }
            return base_probes, machines, probes

        base_probes, machines, probes = stages.run("probe", deadline, probe_all)
        # Shared per-machine executors: their app-tensor and run_many memos
        # survive across every matrix this process runs.
        base_executor = executor_for(base_machine, noise=self.noise)
        executors = {
            system: executor_for(machine, noise=self.noise)
            for system, machine in machines.items()
        }
        metrics = resolve_metrics(plan.metrics)

        actuals: dict[tuple[str, str, int], float] = {}
        #: (label, system, cpus) -> predicted seconds per metric, in plan
        #: metric order.
        predictions: dict[tuple[str, str, int], list[float]] = {}
        for label in labels:
            app = get_application(label)
            eligible_rows = [
                (cpus, [s for s in systems if cpus <= machines[s].cpus])
                for cpus in plan.cpus_for(label, app.cpu_counts)
            ]
            # Paper leaves cells blank where no system is large enough.
            eligible_rows = [
                (cpus, eligible) for cpus, eligible in eligible_rows if eligible
            ]
            if not eligible_rows:
                continue

            def execute(d, app=app, eligible_rows=eligible_rows, label=label):
                # One batched executor pass per system covers the whole
                # appendix-table column for this application.
                for system in systems:
                    counts = [c for c, eligible in eligible_rows if system in eligible]
                    for res in executors[system].run_many(app, counts, detail=False):
                        actuals[(label, system, res.cpus)] = res.total_seconds
                return {
                    res.cpus: res.total_seconds
                    for res in base_executor.run_many(
                        app, [cpus for cpus, _ in eligible_rows], detail=False
                    )
                }

            base_times = stages.run("execute", deadline, execute)
            for cpus, eligible in eligible_rows:
                base_time = base_times[cpus]
                trace = stages.run(
                    "trace",
                    deadline,
                    lambda d, app=app, cpus=cpus: self.trace(app, cpus, d, timer=t),
                )
                probes_row = [probes[system] for system in eligible]
                rows = stages.run(
                    "convolve",
                    deadline,
                    lambda d, trace=trace, probes_row=probes_row, base_time=base_time: (
                        _predict_all_cached(
                            metrics, trace, probes_row, base_probes, base_time, self.mode
                        )
                    ),
                )
                per_system: dict[str, list[float]] = {s: [] for s in eligible}
                for metric in metrics:
                    for system, predicted in zip(eligible, rows[metric.number]):
                        per_system[system].append(predicted)
                for system, values in per_system.items():
                    predictions[(label, system, cpus)] = values

        records: list[PredictionRecord] = []
        observed: dict[tuple[str, str, int], float] = {}
        metric_numbers = [metric.number for metric in metrics]
        for label in labels:
            app = get_application(label)
            for system in systems:
                machine = machines[system]
                for cpus in plan.cpus_for(label, app.cpu_counts):
                    if cpus > machine.cpus:
                        continue
                    key = (label, system, cpus)
                    actual = actuals[key]
                    observed[key] = actual
                    # Inlined signed_error: executors guarantee actual > 0 and
                    # the metrics non-negative predictions, so the guard-free
                    # expression is exactly its value.
                    records.extend(
                        PredictionRecord(
                            label,
                            cpus,
                            system,
                            number,
                            actual,
                            predicted,
                            (predicted - actual) / actual * 100.0,
                        )
                        for number, predicted in zip(metric_numbers, predictions[key])
                    )
        return records, observed
