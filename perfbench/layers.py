"""Which public functions of each layer the traced run wraps, and how the
recorded spans turn into per-layer metrics.

Span names are the layer names the metrics use.  A wrapper is installed
on the binding that is actually called: ``repro.engine.core`` imports
``probe_machine``, ``trace_application`` and ``predict_all`` by name, so
those are wrapped there (and in ``repro.serve.service`` and
``repro.study.runner``, which import their own copies), not only in their
defining modules.
"""

from __future__ import annotations

import json
import os

from spans import (
    Patches,
    Recorder,
    Span,
    counted,
    reset_request,
    self_times,
    set_request,
    traced,
)

#: Per-pass metrics of the study, reported once per pass kind.
STUDY_LAYER_METRICS = (
    ("tracing.metasim.traces", "count"),
    ("tracing.metasim.self_s", "s"),
    ("memory.cache_model.calls", "count"),
    ("memory.cache_model.refs", "count"),
    ("memory.cache_model.busy_s", "s"),
    ("apps.execution.calls", "count"),
    ("apps.execution.busy_s", "s"),
    ("probes.calls", "count"),
    ("probes.misses", "count"),
    ("probes.busy_s", "s"),
    ("core.convolve.calls", "count"),
    ("core.convolve.predictions", "count"),
    ("core.convolve.busy_s", "s"),
    ("engine.matrix_self_s", "s"),
    ("study.runner.self_s", "s"),
    ("tracing.store.saves", "count"),
    ("tracing.store.save_s", "s"),
    ("tracing.store.flush_wait_s", "s"),
    ("tracing.store.bytes_written", "B"),
    ("tracing.store.loads", "count"),
    ("tracing.store.load_s", "s"),
    ("tracing.store.invalidated", "count"),
)

#: Study pass kinds and the prefix their per-layer metrics carry.
PASS_KINDS = (
    ("cold", "cold"),
    ("store_write", "write"),
    ("store_read", "read"),
    ("parallel", "par"),
)

OTHER_LAYER_METRICS = (
    ("study.cold_pps", "pred/s"),
    ("study.store_write_pps", "pred/s"),
    ("study.store_read_pps", "pred/s"),
    ("study.parallel_pps", "pred/s"),
    ("tracing.store.write_overhead", "ratio"),
    ("core.convolve.calls_per_req", "count"),
    ("core.convolve.calls_per_batch", "count"),
    ("engine.point_self_p50_us", "us"),
    ("engine.probe_p50_us", "us"),
    ("engine.trace_p50_us", "us"),
    ("engine.convolve_p50_us", "us"),
    ("serve.httpd.self_p50_ms", "ms"),
    ("serve.httpd.response_bytes", "B"),
    ("serve.service.predict_p50_us", "us"),
    ("serve.service.validate_p50_us", "us"),
    ("serve.service.degraded", "count"),
    ("serve.admission.wait_p50_us", "us"),
    ("serve.admission.shed", "count"),
    ("util.deadline.remaining_per_req", "count"),
    ("util.clock.reads_per_req", "count"),
    ("serve.frontend.batch_self_p50_ms", "ms"),
    ("serve.frontend.encode_p50_ms", "ms"),
    ("serve.fleet.call_p50_ms", "ms"),
    ("serve.fleet.frame_bytes", "B"),
    ("serve.shard.max_row_share", "ratio"),
    ("serve.service.predict_cells_p50_ms", "ms"),
    ("serve.batch.first_s", "s"),
    ("setup.import_s", "s"),
    ("setup.universe_s", "s"),
    ("setup.boot_s", "s"),
    ("setup.warmup_s", "s"),
    ("host.calib_ms", "ms"),
    ("bench.trace_overhead_pps", "pred/s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [
        (f"{prefix}.{name}", unit)
        for _kind, prefix in PASS_KINDS
        for name, unit in STUDY_LAYER_METRICS
    ]
    return names + list(OTHER_LAYER_METRICS)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
def _refs(args, kwargs):
    addresses = args[1] if len(args) > 1 else kwargs.get("addresses")
    return {"refs": int(len(addresses))}


def _encoded(result, attrs):
    return {"bytes": len(result)}


def install_engine(rec: Recorder, patches: Patches) -> None:
    """Probe, execution, tracer, cache model, convolver and engine spans."""
    import repro.engine.core as engine_core
    import repro.probes.suite as suite
    import repro.serve.service as service
    import repro.study.runner as runner
    import repro.tracing.metasim as metasim
    from repro.apps.execution import GroundTruthExecutor
    from repro.core.metrics import PredictiveMetric
    from repro.engine.core import Engine
    from repro.memory.cache import MultiLevelCache
    from repro.memory.stride import StrideDetector
    from repro.tracing.metasim import MetaSimTracer

    for module in (engine_core, service, runner):
        patches.wrap(module, "probe_machine", lambda f: traced(rec, "probes", f))
    patches.wrap(suite, "MachineProbes", lambda f: traced(rec, "probes.miss", f))
    patches.wrap(GroundTruthExecutor, "run", lambda f: traced(rec, "apps.execution", f))
    patches.wrap(
        GroundTruthExecutor, "run_many", lambda f: traced(rec, "apps.execution", f)
    )
    for module in (engine_core, service):
        patches.wrap(
            module, "trace_application", lambda f: traced(rec, "tracing.lookup", f)
        )
    patches.wrap(MetaSimTracer, "trace", lambda f: traced(rec, "tracing.metasim", f))
    patches.wrap(
        StrideDetector, "classify",
        lambda f: traced(rec, "memory.cache_model", f, attrs_of=_refs),
    )
    for attr in ("service_fractions_analytic", "simulate"):
        patches.wrap(
            MultiLevelCache, attr,
            lambda f: traced(rec, "memory.cache_model", f, attrs_of=_refs),
        )
    patches.wrap(
        metasim, "reuse_profile",
        lambda f: traced(
            rec, "memory.cache_model", f,
            attrs_of=lambda a, k: {"refs": int(len(a[0]))},
        ),
    )
    patches.wrap(
        engine_core, "predict_all",
        lambda f: traced(
            rec, "core.convolve", f,
            attrs_of=lambda a, k: {"predictions": len(a[0]) * len(a[2])},
        ),
    )
    patches.wrap(
        PredictiveMetric, "predict_many",
        lambda f: traced(
            rec, "core.convolve", f,
            attrs_of=lambda a, k: {"predictions": len(a[2])},
        ),
    )
    patches.wrap(Engine, "run_matrix", lambda f: traced(rec, "engine.matrix", f))
    patches.wrap(Engine, "run_point", lambda f: traced(rec, "engine.point", f))


def install_store(rec: Recorder, patches: Patches) -> None:
    """Trace-store and binary-format spans (saves run on the writer thread)."""
    import repro.tracing.binfmt as binfmt
    import repro.tracing.store as store
    from repro.tracing.store import TraceStore

    for attr in ("save_trace", "save_probes"):
        patches.wrap(TraceStore, attr, lambda f: traced(rec, "tracing.store.save", f))
    for attr in ("load_trace", "load_probes"):
        patches.wrap(
            TraceStore, attr,
            lambda f: traced(
                rec, "tracing.store.load", f, after=lambda r, a: {"hit": r is not None}
            ),
        )
    patches.wrap(TraceStore, "flush", lambda f: traced(rec, "tracing.store.flush", f))
    patches.wrap(
        TraceStore, "_invalidate", lambda f: traced(rec, "tracing.store.invalidate", f)
    )
    patches.wrap(
        store, "write_atomic_bytes", lambda f: traced(rec, "tracing.store.write", f)
    )
    for attr in ("trace_to_bytes", "probes_to_bytes"):
        patches.wrap(
            binfmt, attr,
            lambda f: traced(rec, "tracing.binfmt.encode", f, after=_encoded),
        )


def install_study_workers(rec: Recorder, patches: Patches, spool_dir: str) -> None:
    """Pool workers fork with these wrappers and spool their spans to
    ``spool_dir/<pid>.jsonl`` after their warm-up and after each chunk."""
    import repro.study.runner as runner

    def spooled(name, fn):
        inner = traced(rec, name, fn)

        def wrapper(*args, **kwargs):
            if name == "study.worker.warm":
                rec.reset()  # drop the spans inherited from the parent
            try:
                return inner(*args, **kwargs)
            finally:
                if rec.active:
                    path = os.path.join(spool_dir, f"{os.getpid()}.jsonl")
                    with open(path, "a") as fh:
                        for span in rec.spans:
                            fh.write(json.dumps(span.to_row()) + "\n")
                    rec.reset()

        wrapper.__module__ = fn.__module__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__name__ = fn.__name__
        return wrapper

    patches.wrap(runner, "_warm_worker", lambda f: spooled("study.worker.warm", f))
    patches.wrap(runner, "_run_chunk", lambda f: spooled("study.worker.chunk", f))


def read_spool(spool_dir: str, parent: Span, next_id) -> list[Span]:
    """Load and delete the worker spools; re-number their span ids (each
    worker counted from the parent's counter at fork) and hang the
    workers' top-level spans under ``parent``."""
    out: list[Span] = []
    for name in sorted(os.listdir(spool_dir)):
        path = os.path.join(spool_dir, name)
        ids: dict[int, int] = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                rows.append(json.loads(line))
        os.unlink(path)
        for row in rows:
            ids[row[0]] = next(next_id)
        for row in rows:
            span = Span.from_row(row)
            span.sid = ids[row[0]]
            span.parent = ids.get(span.parent, parent.sid) if span.parent is not None else parent.sid
            out.append(span)
    return out


# ---------------------------------------------------------------------------
# per-pass aggregation
# ---------------------------------------------------------------------------
def pass_layer_values(root: Span, spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one study pass.

    ``spans`` are the spans recorded during the pass (the recorder is
    reset before each one): the pass span ``root``, its descendants, the
    store writer thread's parentless spans and the pool workers' spans.
    """
    selfs = self_times(spans)

    def spans_named(name):
        return [s for s in spans if s.name == name]

    def count(name):
        return float(len(spans_named(name)))

    def busy(name):
        return float(sum(s.duration for s in spans_named(name)))

    def attr_sum(name, key):
        return float(sum((s.attrs or {}).get(key, 0) for s in spans_named(name)))

    def self_sum(name):
        return float(sum(selfs[s.sid] for s in spans_named(name)))

    return {
        "tracing.metasim.traces": count("tracing.metasim"),
        "tracing.metasim.self_s": self_sum("tracing.metasim"),
        "memory.cache_model.calls": count("memory.cache_model"),
        "memory.cache_model.refs": attr_sum("memory.cache_model", "refs"),
        "memory.cache_model.busy_s": busy("memory.cache_model"),
        "apps.execution.calls": count("apps.execution"),
        "apps.execution.busy_s": busy("apps.execution"),
        "probes.calls": count("probes"),
        "probes.misses": count("probes.miss"),
        "probes.busy_s": busy("probes"),
        "core.convolve.calls": count("core.convolve"),
        "core.convolve.predictions": attr_sum("core.convolve", "predictions"),
        "core.convolve.busy_s": busy("core.convolve"),
        "engine.matrix_self_s": self_sum("engine.matrix"),
        "study.runner.self_s": float(selfs[root.sid]),
        "tracing.store.saves": count("tracing.store.save"),
        "tracing.store.save_s": busy("tracing.store.save")
        + busy("tracing.binfmt.encode")
        + busy("tracing.store.write"),
        "tracing.store.flush_wait_s": busy("tracing.store.flush"),
        "tracing.store.bytes_written": attr_sum("tracing.binfmt.encode", "bytes"),
        "tracing.store.loads": attr_sum("tracing.store.load", "hit"),
        "tracing.store.load_s": busy("tracing.store.load"),
        "tracing.store.invalidated": count("tracing.store.invalidate"),
    }


def install_request_counters(rec: Recorder, patches: Patches) -> None:
    """Clock reads and deadline checks, counted per request.

    ``PredictionService`` binds ``clock.monotonic`` when it is built, so
    this must run before the service is constructed.
    """
    from repro.util.clock import SystemClock
    from repro.util.deadline import Deadline

    patches.wrap(SystemClock, "monotonic", lambda f: counted(rec, "clock", f))
    patches.wrap(Deadline, "remaining", lambda f: counted(rec, "remaining", f))


def install_point_server(rec: Recorder, patches: Patches) -> None:
    """HTTP handler, service, admission and engine-stage spans.

    The handler span takes its request id from the ``X-Request-Id``
    header the benchmark's client sends, so server-side spans and counts
    join the client's round trip.
    """
    import repro.serve.httpd as httpd
    from repro.engine.middleware import StageRunner
    from repro.serve.admission import AdmissionQueue
    from repro.serve.service import PredictionService

    def handler(fn):
        inner = traced(rec, "serve.httpd", fn)

        def do_get(self):
            rid = self.headers.get("X-Request-Id")
            token = set_request(int(rid) if rid else None)
            try:
                return inner(self)
            finally:
                reset_request(token)

        return do_get

    patches.wrap(httpd._Handler, "do_GET", handler)
    patches.wrap(
        PredictionService, "predict", lambda f: traced(rec, "serve.service.predict", f)
    )
    patches.wrap(
        PredictionService, "validate_request",
        lambda f: traced(rec, "serve.service.validate", f),
    )
    patches.wrap(
        AdmissionQueue, "acquire", lambda f: traced(rec, "serve.admission.acquire", f)
    )

    def stage_runner(fn):
        def run(self, stage, deadline, call):
            if not rec.active:
                return fn(self, stage, deadline, call)
            with rec.span(f"engine.{stage}"):
                return fn(self, stage, deadline, call)

        return run

    patches.wrap(StageRunner, "run", stage_runner)


class FrameMeter:
    """Stands in for the ``json`` module inside ``repro.serve.fleet`` and
    adds up the bytes of every worker frame the front end encodes or
    decodes while the recorder is active."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.bytes = 0

    def dumps(self, *args, **kwargs):
        text = json.dumps(*args, **kwargs)
        if self.rec.active:
            self.bytes += len(text)  # ensure_ascii output: one byte per char
        return text

    def loads(self, data, *args, **kwargs):
        if self.rec.active:
            self.bytes += len(data)
        return json.loads(data, *args, **kwargs)


def install_fleet_frontend(rec: Recorder, patches: Patches) -> FrameMeter:
    """Front-end batch, response-encode and worker-call spans."""
    import repro.serve.fleet as fleet
    from repro.serve.fleet import WorkerHandle
    from repro.serve.frontend import FleetFrontend

    patches.wrap(
        FleetFrontend, "_predict_batch",
        lambda f: traced(rec, "serve.frontend.batch", f),
    )
    patches.wrap(
        FleetFrontend, "_write_response",
        lambda f: traced(rec, "serve.frontend.encode", f),
    )
    patches.wrap(
        WorkerHandle, "call",
        lambda f: traced(rec, "serve.fleet.call", f, attrs_of=lambda a, k: {"op": a[1]}),
    )
    meter = FrameMeter(rec)
    patches.set(fleet, "json", meter)
    return meter
