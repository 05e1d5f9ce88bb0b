"""The ``serve-point`` and ``serve-batch`` workloads.

``serve-point`` starts ``repro-study serve --universe <ref>`` (one
process, the threaded ``serve/httpd.py``) and drives it with a closed
loop of two keep-alive clients; each request is a seeded uniform draw
over the universe's (cell, Table-3 metric) keys.  The callers are
scripts that wait for each answer, so the loop is closed.

``serve-batch`` starts ``repro-study serve --workers 2 --universe <ref>``
and one client POSTs the whole universe to ``/predict/batch``, one
request after another.

Every answer is checked against the study records computed in this
process: a non-200 status, a degraded answer or a mismatch is a failed
operation.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from urllib.parse import urlencode

import common
from common import Report, median, percentile
from spans import Patches, Recorder, self_times

CLIENTS = 2
#: Requests per second of ``--seconds`` in each segment of the traced
#: ``serve-point`` run.  The list is fixed by seed and length, so the
#: per-request counts repeat exactly between traced runs.
TRACED_REQUESTS_PER_S = 20
#: Batches per second of ``--seconds`` in each traced ``serve-batch`` segment.
TRACED_BATCHES_PER_S = 3
#: Launches used for the set-up split in a traced run.
TRACED_SETUP_LAUNCHES = 3

_ADDRESS = re.compile(r"serving predictions on http://([^:/\s]+):(\d+)")


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------
class Oracle:
    """The universe's study records, as the serve paths must answer."""

    def __init__(self, seed: int):
        from repro.scenarios import mount_universe
        from repro.study.runner import StudyConfig, clear_study_caches, run_study

        self.ref = common.universe_ref(seed)
        universe = mount_universe(self.ref)
        self.applications = [a.label for a in universe.applications]
        self.systems = [m.name for m in universe.machines]
        result = run_study(
            StudyConfig(applications=tuple(self.applications), systems=tuple(self.systems))
        )
        # Served processes in this process (the traced run) start cold.
        clear_study_caches()
        self.rows = [list(r) for r in result.records]
        self.point = {
            (r.application, r.cpus, r.system, r.metric): r.predicted_seconds
            for r in result.records
        }
        self.keys = list(self.point)
        self.traces = sorted({(a, c) for a, c, _s, _m in self.keys})

    def warmup_keys(self) -> list[tuple]:
        """One predictive request per (application, cpus) trace, spread
        round-robin over the machines so every probe bundle is touched."""
        return [
            (app, cpus, self.systems[i % len(self.systems)], 9)
            for i, (app, cpus) in enumerate(self.traces)
        ]

    def batch_body(self) -> bytes:
        return json.dumps(
            {"applications": self.applications, "systems": self.systems}
        ).encode()


# ---------------------------------------------------------------------------
# HTTP clients
# ---------------------------------------------------------------------------
def _get_point(conn, key, rid=None):
    app, cpus, machine, metric = key
    path = "/predict?" + urlencode(
        {"application": app, "cpus": cpus, "machine": machine, "metric": metric}
    )
    headers = {"X-Request-Id": str(rid)} if rid is not None else {}
    start = time.perf_counter()
    conn.request("GET", path, headers=headers)
    resp = conn.getresponse()
    body = resp.read()
    return resp.status, body, time.perf_counter() - start


def _check_point(oracle: Oracle, key, status, body) -> tuple[bool, str | None, dict | None]:
    if status != 200:
        return False, f"GET /predict {key} -> HTTP {status}", None
    doc = json.loads(body)
    if doc.get("degraded") is not False:
        return False, f"GET /predict {key} answered degraded", doc
    if doc.get("predicted_seconds") != oracle.point[key]:
        return False, (
            f"GET /predict {key} -> {doc.get('predicted_seconds')!r}, "
            f"study record {oracle.point[key]!r}"
        ), doc
    return True, None, doc


def point_clients(address, oracle: Oracle, report: Report, *, keys=None,
                  seconds=None, seed=0, on_result=None):
    """Closed loop of :data:`CLIENTS` keep-alive clients.

    Either a fixed key list (client ``c`` sends indices ``c, c+CLIENTS,
    ...``) or seeded uniform draws for ``seconds``.  Returns
    ``(latencies, correct, wall seconds)``.
    """
    lock = threading.Lock()
    latencies: list[float] = []
    correct = [0]
    errors: list[BaseException] = []
    end = None if seconds is None else time.monotonic() + seconds

    def client(c: int) -> None:
        rng = random.Random(f"{seed}/{c}")
        conn = http.client.HTTPConnection(*address, timeout=30)
        try:
            i = c
            while True:
                if keys is not None:
                    if i >= len(keys):
                        return
                    key, rid = keys[i], i
                    i += CLIENTS
                else:
                    if time.monotonic() >= end:
                        return
                    key, rid = oracle.keys[rng.randrange(len(oracle.keys))], None
                status, body, seconds_ = _get_point(conn, key, rid)
                ok, problem, doc = _check_point(oracle, key, status, body)
                with lock:
                    latencies.append(seconds_)
                    correct[0] += ok
                    report.op(ok, problem)
                if on_result is not None:
                    on_result(rid, seconds_, body, doc)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return latencies, correct[0], wall


class BatchClient:
    """One keep-alive client POSTing the whole universe."""

    def __init__(self, address, oracle: Oracle, report: Report):
        self.conn = http.client.HTTPConnection(*address, timeout=120)
        self.oracle = oracle
        self.report = report
        self.body = oracle.batch_body()
        self.verified: bytes | None = None
        self.doc: dict | None = None

    def post(self) -> tuple[float, int]:
        """One batch; returns (seconds, correct predictions)."""
        start = time.perf_counter()
        self.conn.request(
            "POST", "/predict/batch", body=self.body,
            headers={"Content-Type": "application/json"},
        )
        resp = self.conn.getresponse()
        body = resp.read()
        seconds = time.perf_counter() - start
        if resp.status != 200:
            self.report.op(False, f"POST /predict/batch -> HTTP {resp.status}")
            return seconds, 0
        if self.verified is not None and body == self.verified:
            self.report.op(True)
            return seconds, len(self.oracle.rows)
        doc = json.loads(body)
        ok = doc.get("records") == self.oracle.rows and doc.get("count") == len(self.oracle.rows)
        self.report.op(ok, "POST /predict/batch body differs from the study records")
        if ok and self.verified is None:
            self.verified, self.doc = body, doc
        return seconds, len(self.oracle.rows) if ok else 0

    def close(self) -> None:
        self.conn.close()


def _ready(address) -> bool:
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.request("GET", "/readyz")
        resp = conn.getresponse()
        resp.read()
        return resp.status == 200
    except OSError:
        return False
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# server processes
# ---------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve ...`` as a user starts it, on a free port."""

    def __init__(self, ref: str, workers: int):
        self.start = time.perf_counter()
        cmd = [sys.executable, "-m", "repro", "serve", "--universe", ref, "--port", "0"]
        if workers > 1:
            cmd += ["--workers", str(workers)]
        # Its own process group, so stop() finds every worker it forked.
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.stderr: list[str] = []
        self.address = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            match = _ADDRESS.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._bound.set()
        self._bound.set()

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``GET /readyz`` answered 200."""
        deadline = time.monotonic() + timeout
        if not self._bound.wait(timeout) or self.address is None:
            raise RuntimeError("server did not start:\n" + "".join(self.stderr[-20:]))
        while not _ready(self.address):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never became ready:\n" + "".join(self.stderr[-20:]))
            time.sleep(0.005)
        return time.perf_counter() - self.start

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes."""
        return sum(common.vm_hwm_mb(pid) for pid in common.group_pids(self.proc.pid))

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (the server drains) or SIGKILL, then wait for it and
        every process of its group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        leftovers = common.group_pids(self.proc.pid)
        for pid in leftovers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        common.wait_gone(leftovers)
        self._reader.join(timeout=10)


def _launches(ref: str, workers: int, count: int) -> list[tuple[float, float]]:
    """``(set-up seconds, reference-loop ms just before)`` of ``count``
    extra launches.  These servers hold no state worth draining, so they
    are killed rather than stopped: a fleet takes seconds to stop
    gracefully (see NOTES.md)."""
    out = []
    for _ in range(count):
        calib = common.host_calib_ms()
        server = ServerProcess(ref, workers)
        try:
            out.append((server.wait_ready(), calib))
        finally:
            server.stop(graceful=False)
    return out


# ---------------------------------------------------------------------------
# untraced runs
# ---------------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(name)
    oracle = Oracle(seed)
    if trace:
        setups = [common.launch_study_setup(oracle.ref) for _ in range(TRACED_SETUP_LAUNCHES)]
        report.put("setup.import_s", median(s[1] for s in setups), "s", len(setups))
        report.put("setup.universe_s", median(s[2] for s in setups), "s", len(setups))
        if name == "serve-point":
            _traced_point(oracle, seed, max(50, round(TRACED_REQUESTS_PER_S * seconds)), report)
        else:
            _traced_batch(oracle, max(4, round(TRACED_BATCHES_PER_S * seconds)), report)
        return report
    workers = 1 if name == "serve-point" else 2
    setup = _launches(oracle.ref, workers, common.SETUP_LAUNCHES - 1)
    calib = common.host_calib_ms()
    server = ServerProcess(oracle.ref, workers)
    try:
        setup.append((server.wait_ready(), calib))
        common.put_adjusted(
            report, "setup_s", median(s for s, _ in setup), "s", len(setup),
            common.host_factor([c for _, c in setup]), rate=False,
        )
        if name == "serve-point":
            _measure_point(server.address, oracle, seed, seconds, report)
        else:
            _measure_batch(server.address, oracle, seconds, report)
        report.put("peak_rss_mb", server.peak_rss_mb(), "MB", 1)
    finally:
        server.stop()
    return report


def _measure_point(address, oracle: Oracle, seed, seconds, report: Report) -> None:
    """Request latency here is a fixed ~40 ms network stall plus well
    under a millisecond of work, so it is reported as measured, not
    scaled to the reference host."""
    start = time.perf_counter()
    point_clients(address, oracle, report, keys=oracle.warmup_keys())
    report.put("setup.warmup_s", time.perf_counter() - start, "s", 1)
    calib = [common.host_calib_ms() for _ in range(5)]
    latencies, correct, wall = point_clients(
        address, oracle, report, seconds=seconds, seed=seed
    )
    calib += [common.host_calib_ms() for _ in range(5)]
    report.put("host.calib_ms", median(calib), "ms", len(calib))
    report.put("throughput_pps", correct / wall, "pred/s", len(latencies))
    report.put("latency_p50_ms", median(latencies) * 1000.0, "ms", len(latencies))
    report.put("latency_p95_ms", percentile(latencies, 95) * 1000.0, "ms", len(latencies))


#: Batches between two host-reference samples in the measured phase.
CALIB_EVERY = 5


def _measure_batch(address, oracle: Oracle, seconds, report: Report) -> None:
    client = BatchClient(address, oracle, report)
    try:
        first, _ = client.post()
        report.put("serve.batch.first_s", first, "s", 1)
        latencies, correct, calib = [], 0, []
        start = time.perf_counter()
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            t, good = client.post()
            latencies.append(t)
            correct += good
            if len(latencies) % CALIB_EVERY == 0:
                calib.append(common.host_calib_ms())
        # The reference samples are not part of the served phase.
        wall = time.perf_counter() - start - sum(calib) / 1000.0
        calib.append(common.host_calib_ms())
    finally:
        client.close()
    factor = common.host_factor(calib)
    common.put_adjusted(
        report, "throughput_pps", correct / wall, "pred/s", len(latencies), factor, rate=True
    )
    common.put_adjusted(
        report, "latency_p50_ms", median(latencies) * 1000.0, "ms", len(latencies),
        factor, rate=False,
    )
    report.put("host.calib_ms", median(calib), "ms", len(calib))
    if client.doc is not None:
        share = max(client.doc["workers"].values()) / client.doc["count"]
        report.put("serve.shard.max_row_share", share, "ratio", 1)


# ---------------------------------------------------------------------------
# traced runs: servers hosted in this process
# ---------------------------------------------------------------------------
def _traced_point(oracle: Oracle, seed: int, requests: int, report: Report) -> None:
    from layers import install_engine, install_point_server, install_request_counters

    rec = Recorder()
    patches = Patches()
    # Before the service exists: it binds clock.monotonic when built.
    install_engine(rec, patches)
    install_request_counters(rec, patches)
    install_point_server(rec, patches)
    try:
        from repro.serve.httpd import make_server
        from repro.serve.service import DEFAULT_DEADLINE_SECONDS, PredictionService

        start = time.perf_counter()
        service = PredictionService(
            mode="relative", noise=True, cache_model="analytic", store=None,
            events=None, default_deadline=DEFAULT_DEADLINE_SECONDS, faults=None,
        )
        server = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        address = server.server_address[:2]
        while not _ready(address):
            time.sleep(0.005)
        report.put("setup.boot_s", time.perf_counter() - start, "s", 1)
        try:
            start = time.perf_counter()
            point_clients(address, oracle, report, keys=oracle.warmup_keys())
            report.put("setup.warmup_s", time.perf_counter() - start, "s", 1)
            rng = random.Random(f"traced/{seed}")
            keys = [oracle.keys[rng.randrange(len(oracle.keys))] for _ in range(requests)]
            _, correct, wall = point_clients(address, oracle, report, keys=keys)
            untraced_pps = correct / wall
            shed_before = service.admission.shed_total
            round_trips: dict[int, float] = {}
            body_bytes: list[int] = []
            degraded = [0]

            def on_result(rid, seconds, body, doc):
                round_trips[rid] = seconds
                if doc is not None:
                    degraded[0] += bool(doc.get("degraded"))
                    body_bytes.append(len(body) - len(json.dumps(doc["latency_ms"])))

            rec.active = True
            try:
                _, correct, wall = point_clients(
                    address, oracle, report, keys=keys, on_result=on_result
                )
            finally:
                rec.active = False
            traced_pps = correct / wall
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.drain()
    finally:
        patches.restore()

    spans = rec.spans
    selfs = self_times(spans)
    n = len(keys)

    def named(name):
        return [s for s in spans if s.name == name]

    predict = {s.rid: s.duration for s in named("serve.service.predict")}
    counts = rec.request_counts
    report.put(
        "serve.httpd.self_p50_ms",
        median(round_trips[rid] - predict[rid] for rid in round_trips if rid in predict) * 1000.0,
        "ms", len(predict),
    )
    report.put("serve.httpd.response_bytes", sum(body_bytes) / max(1, len(body_bytes)), "B", len(body_bytes))
    report.put("serve.service.predict_p50_us", median(predict.values()) * 1e6, "us", len(predict))
    validate = [s.duration for s in named("serve.service.validate")]
    report.put("serve.service.validate_p50_us", median(validate) * 1e6, "us", len(validate))
    report.put("serve.service.degraded", degraded[0], "count", n)
    wait = [s.duration for s in named("serve.admission.acquire")]
    report.put("serve.admission.wait_p50_us", median(wait) * 1e6, "us", len(wait))
    report.put("serve.admission.shed", service.admission.shed_total - shed_before, "count", n)
    report.put(
        "util.deadline.remaining_per_req",
        sum(v for (rid, c), v in counts.items() if c == "remaining") / n, "count", n,
    )
    report.put(
        "util.clock.reads_per_req",
        sum(v for (rid, c), v in counts.items() if c == "clock") / n, "count", n,
    )
    convolves = [s for s in named("core.convolve") if s.rid is not None]
    report.put("core.convolve.calls_per_req", len(convolves) / n, "count", n)
    points = named("engine.point")
    report.put(
        "engine.point_self_p50_us", median(selfs[s.sid] for s in points) * 1e6, "us", len(points)
    )
    for stage in ("probe", "trace", "convolve"):
        stage_spans = named(f"engine.{stage}")
        report.put(
            f"engine.{stage}_p50_us",
            median(s.duration for s in stage_spans) * 1e6, "us", len(stage_spans),
        )
    report.put("bench.trace_overhead_pps", traced_pps - untraced_pps, "pred/s", n)
    report.put("host.calib_ms", common.host_calib_ms(), "ms", 1)


def _traced_batch(oracle: Oracle, batches: int, report: Report) -> None:
    from layers import install_engine, install_fleet_frontend

    rec = Recorder()
    patches = Patches()
    meter = install_fleet_frontend(rec, patches)
    install_engine(rec, patches)
    try:
        from repro.serve.frontend import FleetServer
        from repro.serve.service import DEFAULT_DEADLINE_SECONDS, PredictionService

        config = {
            "mode": "relative", "noise": True, "cache_model": "analytic",
            "store": None, "events_dir": None,
            "default_deadline": DEFAULT_DEADLINE_SECONDS,
            "faults": None, "universe": oracle.ref,
        }
        start = time.perf_counter()
        server = FleetServer(2, host="127.0.0.1", port=0,
                             default_deadline=DEFAULT_DEADLINE_SECONDS,
                             service_config=config)
        address = server.start()
        report.put("setup.boot_s", time.perf_counter() - start, "s", 1)
        client = BatchClient(address, oracle, report)
        try:
            first, _ = client.post()
            report.put("serve.batch.first_s", first, "s", 1)
            report.put("setup.warmup_s", first, "s", 1)
            rec.active = True
            try:
                traced_times = [client.post() for _ in range(batches)]
            finally:
                rec.active = False
            untraced_times = [client.post() for _ in range(batches)]
            owners = {}
            for label, cpus in oracle.traces:
                owners.setdefault(server.fleet.owner_of(label, cpus).name, []).append((label, cpus))
        finally:
            client.close()
            server.stop()
        spans = list(rec.spans)
        frame_bytes = meter.bytes / batches

        # Worker-side batch time: each shard's rows replayed in-process
        # through the same service call a fleet worker makes.
        from repro.core.registry import REGISTRY

        metrics = [spec.number for spec in REGISTRY.table3()]
        service = PredictionService(mode="relative", noise=True, cache_model="analytic")
        shards = [owners[name] for name in sorted(owners)]
        for rows in shards:
            service.predict_cells(rows, oracle.systems, metrics)
        rec.reset()
        cells = []
        rec.active = True
        try:
            for _ in range(batches):
                for rows in shards:
                    t0 = time.perf_counter()
                    service.predict_cells(rows, oracle.systems, metrics)
                    cells.append(time.perf_counter() - t0)
        finally:
            rec.active = False
        replay = list(rec.spans)
    finally:
        patches.restore()

    selfs = self_times(spans)

    def named(source, name):
        return [s for s in source if s.name == name]

    batch_spans = named(spans, "serve.frontend.batch")
    report.put(
        "serve.frontend.batch_self_p50_ms",
        median(selfs[s.sid] for s in batch_spans) * 1000.0, "ms", len(batch_spans),
    )
    encode = named(spans, "serve.frontend.encode")
    report.put("serve.frontend.encode_p50_ms", median(s.duration for s in encode) * 1000.0, "ms", len(encode))
    calls = [s for s in named(spans, "serve.fleet.call") if (s.attrs or {}).get("op") == "batch"]
    report.put("serve.fleet.call_p50_ms", median(s.duration for s in calls) * 1000.0, "ms", len(calls))
    report.put("serve.fleet.frame_bytes", frame_bytes, "B", batches)
    if client.doc is not None:
        share = max(client.doc["workers"].values()) / client.doc["count"]
        report.put("serve.shard.max_row_share", share, "ratio", 1)
    report.put("serve.service.predict_cells_p50_ms", median(cells) * 1000.0, "ms", len(cells))
    report.put(
        "core.convolve.calls_per_batch",
        len(named(replay, "core.convolve")) / batches, "count", batches,
    )
    n = len(oracle.rows)
    report.put(
        "bench.trace_overhead_pps",
        n * len(traced_times) / sum(t for t, _ in traced_times)
        - n * len(untraced_times) / sum(t for t, _ in untraced_times),
        "pred/s", batches,
    )
    report.put("host.calib_ms", common.host_calib_ms(), "ms", 1)
