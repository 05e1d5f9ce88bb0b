"""End-to-end tests for the sharded multi-worker serving fleet.

A real fleet — worker processes, framed sockets, asyncio front end — on a
loopback port.  The two load-bearing pins:

* **golden batch identity** — ``POST /predict/batch`` over the paper's
  full matrix must be byte-identical to the committed study records,
  regardless of worker count (``run_matrix`` partition invariance,
  served over HTTP);
* **exactly-once coalescing** — concurrent duplicate point requests
  produce one worker call: one ``coalesced: false`` leader, the rest
  ``coalesced: true`` followers, and the worker's own request counter
  reads 1.

Plus the supervision contract (kill → 429-not-500 → respawn → ring
re-add), driven through the public HTTP surface.
"""

import asyncio
import json
import signal
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serve.fleet import Fleet
from repro.serve.frontend import FleetFrontend, FleetServer

GOLDEN = Path(__file__).parent / "golden" / "study_records.json"

PREDICT = "/predict?application=AVUS-standard&cpus=64&machine=ARL_Xeon"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fleet_server():
    """One 2-worker fleet shared by the read-only tests in this module."""
    server = FleetServer(2)
    server.start()
    try:
        yield server
    finally:
        server.stop()


def get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err), dict(err.headers)


def post(server, path, body, timeout=300):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(body).encode() if body is not None else b"",
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


# ---------------------------------------------------------------------------
# the golden pin: sharded batches == the offline study, byte for byte
# ---------------------------------------------------------------------------
def test_batch_full_matrix_is_byte_identical_to_study(fleet_server, golden):
    status, body = post(fleet_server, "/predict/batch", {})
    assert status == 200
    assert body["count"] == golden["n_records"] == 1305
    # == on floats is exact: any worker that re-ordered an accumulation,
    # re-seeded noise or dropped a cell shows up here.
    assert body["records"] == golden["records"]
    # The matrix really was sharded, not served by one worker.
    assert len(body["workers"]) == 2
    assert sum(body["workers"].values()) == 1305


def test_batch_cells_form_filters_to_requested_cells(fleet_server, golden):
    cells = [
        ["AVUS-standard", 64, "ARL_Xeon", 9],
        ["HYCOM-standard", 96, "ASC_SC45", 1],
    ]
    status, body = post(fleet_server, "/predict/batch", {"cells": cells})
    assert status == 200
    assert body["count"] == 2
    by_cell = {tuple(r[:4]): r for r in body["records"]}
    assert set(by_cell) == {
        ("AVUS-standard", 64, "ARL_Xeon", 9),
        ("HYCOM-standard", 96, "ASC_SC45", 1),
    }
    # Each served cell equals the corresponding offline study record.
    golden_by_cell = {tuple(r[:4]): r for r in golden["records"]}
    for cell, record in by_cell.items():
        assert record == golden_by_cell[cell]


def test_batch_axes_form_matches_golden_subset(fleet_server, golden):
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"applications": ["RFCTH-standard"], "systems": ["NAVO_655"], "metrics": [9]},
    )
    assert status == 200
    expected = [
        r
        for r in golden["records"]
        if r[0] == "RFCTH-standard" and r[2] == "NAVO_655" and r[3] == 9
    ]
    assert body["records"] == expected


def test_batch_ineligible_rows_are_skipped_like_the_paper(fleet_server):
    # AVUS-large at 384 cpus exceeds the 128-way ARL_690_1.7 (the
    # paper's blank cell); the row must be skipped, not erred.
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"rows": [["AVUS-large", 384]], "systems": ["ARL_690_1.7"], "metrics": [9]},
    )
    assert status == 200
    assert body["count"] == 0 and body["records"] == []


def test_batch_validation_errors_are_structured_400(fleet_server):
    status, body = post(
        fleet_server,
        "/predict/batch",
        {"cells": [["AVUS-typo", 64, "ARL_Xeon", 9]]},
    )
    assert status == 400
    assert body["error"] == "UnknownId"
    assert "AVUS-standard" in body["nearest"]

    status, body = post(fleet_server, "/predict/batch", {"cells": [["AVUS-standard", 64]]})
    assert status == 400
    assert body["error"] == "BadParameter"


# ---------------------------------------------------------------------------
# point path over the fleet
# ---------------------------------------------------------------------------
def test_point_predict_routes_to_a_worker(fleet_server):
    status, body, _ = get(fleet_server, PREDICT + "&metric=9")
    assert status == 200
    assert body["served_metric"] == 9
    assert body["degraded"] is False
    assert body["worker"] in ("w0", "w1")
    assert body["coalesced"] is False
    assert body["predicted_seconds"] > 0


def test_point_routing_is_sticky(fleet_server):
    # The same cell always lands on the same worker (warm caches).
    owners = {
        get(fleet_server, PREDICT)[1]["worker"] for _ in range(5)
    }
    assert len(owners) == 1


def test_point_validation_is_frontend_side(fleet_server):
    status, body, _ = get(
        fleet_server, "/predict?application=AVUS-typo&cpus=64&machine=ARL_Xeon"
    )
    assert status == 400
    assert body["error"] == "UnknownId"
    assert "AVUS-standard" in body["nearest"]

    status, body, _ = get(
        fleet_server, "/predict?application=AVUS-standard&cpus=9999&machine=ARL_Xeon"
    )
    assert status == 400
    assert body["error"] == "BadParameter"

    status, body, _ = get(fleet_server, "/nope")
    assert status == 404
    assert "POST /predict/batch" in body["routes"]
    assert "GET /catalog" in body["routes"]

    status, body, _ = get(fleet_server, "/catalog")
    assert status == 200
    assert body["base_system"] == "NAVO_690"
    assert body["universe"] is None
    assert "AVUS-standard" in body["applications"]
    assert "ARL_Xeon" in body["machines"]


def test_point_errors_match_the_single_process_server(fleet_server):
    """Both front ends share one query parser and one error mapping."""
    import threading

    from repro.serve.httpd import make_server
    from repro.serve.service import PredictionService

    single = make_server("127.0.0.1", 0, PredictionService(noise=False))
    thread = threading.Thread(target=single.serve_forever, daemon=True)
    thread.start()
    single.address = single.server_address[:2]
    try:
        for path in [
            "/predict?cpus=64&machine=ARL_Xeon",
            PREDICT.replace("cpus=64", "cpus=banana"),
            PREDICT.replace("cpus=64", "cpus=99999"),
            PREDICT + "&metric=42",
            PREDICT + "&deadline_ms=soon",
            PREDICT.replace("AVUS-standard", "AVUS-typo"),
        ]:
            expected = get(single, path)[:2]
            assert expected[0] == 400, path
            assert get(fleet_server, path)[:2] == expected, path
    finally:
        single.shutdown()
        single.server_close()
        thread.join(timeout=5)


def test_healthz_aggregates_the_fleet(fleet_server):
    status, body, _ = get(fleet_server, "/healthz")
    assert status == 200
    assert body["status"] in ("ok", "degraded")
    assert body["fleet"]["workers"] == 2
    assert sorted(body["workers"]) == ["w0", "w1"]
    assert body["ring"]["nodes"] == ["w0", "w1"]
    assert pytest.approx(sum(body["ring"]["shares"].values())) == 1.0
    for counter in ("leaders_total", "followers_total", "in_flight"):
        assert counter in body["coalescing"]
    for row in body["workers"].values():
        assert row["alive"] is True
        assert "breakers" in row["health"]  # per-worker breaker board

    status, body, _ = get(fleet_server, "/readyz")
    assert status == 200
    assert body["ready"] is True


# ---------------------------------------------------------------------------
# coalescing, end to end and deterministic (one event loop, no races)
# ---------------------------------------------------------------------------
def test_duplicate_requests_coalesce_to_one_worker_call():
    async def scenario():
        fleet = Fleet(1)
        frontend = FleetFrontend(fleet, default_deadline=30.0)
        await fleet.start()
        try:
            query = {
                "application": "AVUS-standard",
                "cpus": "64",
                "machine": "ARL_Xeon",
                "metric": "9",
            }
            # All eight coroutines enter the coalescer before the leader's
            # worker round-trip resolves (single loop: followers register
            # while the leader awaits the socket), so the collapse is
            # deterministic, not timing-dependent.
            responses = await asyncio.gather(
                *(frontend._predict(dict(query)) for _ in range(8))
            )
            health = await fleet.worker_health()
            return responses, health, frontend.coalescer.counters()
        finally:
            await fleet.stop()

    responses, health, counters = asyncio.run(scenario())
    assert [status for status, _, _ in responses] == [200] * 8
    flags = [body["coalesced"] for _, body, _ in responses]
    assert flags.count(False) == 1 and flags.count(True) == 7
    values = {body["predicted_seconds"] for _, body, _ in responses}
    assert len(values) == 1  # everyone got the leader's answer
    # The worker saw exactly ONE request for the eight clients.
    assert health["w0"]["health"]["requests"]["total"] == 1
    assert counters["leaders_total"] == 1
    assert counters["followers_total"] == 7


# ---------------------------------------------------------------------------
# supervision: kill -> shed/re-route -> respawn -> ring re-add
# ---------------------------------------------------------------------------
def test_worker_death_is_shed_rerouted_and_respawned():
    server = FleetServer(2, respawn_delay=0.2)
    server.start()
    try:
        status, body, _ = get(server, PREDICT)
        assert status == 200
        victim = server.fleet.workers["w0"].proc
        victim_pid = victim.pid
        import os

        os.kill(victim_pid, signal.SIGKILL)
        # Death surfaces on /healthz via the sentinel watch.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            _, health, _ = get(server, "/healthz")
            if health["fleet"]["deaths_total"] >= 1:
                break
            time.sleep(0.02)
        assert health["fleet"]["deaths_total"] >= 1

        # While degraded: every answer is a 200 (re-routed to the
        # survivor) or a retryable 429 — never a 500.
        statuses = [get(server, PREDICT)[0] for _ in range(10)]
        assert set(statuses) <= {200, 429}
        assert 200 in statuses

        # Respawn: ready again, ring whole, same worker name back.
        deadline = time.time() + 15.0
        while time.time() < deadline:
            status, _, _ = get(server, "/readyz")
            if status == 200:
                break
            time.sleep(0.1)
        assert status == 200
        _, health, _ = get(server, "/healthz")
        assert health["fleet"]["respawns_total"] >= 1
        assert health["fleet"]["alive"] == 2
        assert health["ring"]["nodes"] == ["w0", "w1"]
        assert get(server, PREDICT)[0] == 200
    finally:
        server.stop()


def test_retry_after_header_on_shed():
    # A 1-worker fleet with a tiny pending bound sheds concurrent load
    # with 429 + Retry-After (the front end's own EWMA-backed gate).
    server = FleetServer(1, max_pending=1)
    server.start()
    try:
        import threading

        results = []
        lock = threading.Lock()

        def fire():
            result = get(server, PREDICT + "&deadline_ms=30000")
            with lock:
                results.append(result)

        threads = [threading.Thread(target=fire) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = [status for status, _, _ in results]
        assert set(statuses) <= {200, 429}
        for status, body, headers in results:
            if status == 429:
                assert body["error"] == "Overloaded"
                assert int(headers["Retry-After"]) >= 1
    finally:
        server.stop()


# ---------------------------------------------------------------------------
# event log: per-process writer streams, /events/stats, death audit
# ---------------------------------------------------------------------------
def test_fleet_events_disabled_without_dir(fleet_server):
    status, body, _ = get(fleet_server, "/events/stats")
    assert status == 200 and body == {"enabled": False}


def test_fleet_events_stats_and_worker_audit(tmp_path_factory):
    import os

    from repro.events import verify_dir

    events_dir = tmp_path_factory.mktemp("fleet-events")
    server = FleetServer(
        2, respawn_delay=0.2, service_config={"events_dir": str(events_dir)}
    )
    server.start()
    try:
        status, _, _ = get(server, PREDICT)
        assert status == 200
        status, stats, _ = get(server, "/events/stats")
        assert status == 200 and stats["enabled"]
        assert stats["views"]["stats"]["by_kind"].get("prediction-emitted", 0) >= 1

        # SIGKILL a worker: the supervisor's own writer stream records the
        # death and the respawn, visible through the same stats surface.
        os.kill(server.fleet.workers["w0"].proc.pid, signal.SIGKILL)
        deadline = time.time() + 15.0
        kinds = {}
        while time.time() < deadline:
            _, stats, _ = get(server, "/events/stats")
            kinds = stats["views"]["stats"]["by_kind"]
            if kinds.get("worker-respawned"):
                break
            time.sleep(0.1)
        assert kinds.get("worker-died", 0) >= 1
        assert kinds.get("worker-respawned", 0) >= 1
    finally:
        server.stop()
    # After a SIGKILL mid-run, every stream still verifies clean: the
    # dead worker's log loses at most its unflushed suffix, never frames.
    report = verify_dir(events_dir)
    assert report["ok"]
    # Segment files appear lazily on first append, so only writers that
    # actually emitted something have streams: the supervisor (death +
    # respawn events) and whichever worker served the prediction.
    writers = {stream["writer"] for stream in report["streams"]}
    assert "frontend" in writers
    assert any(writer.startswith("w") for writer in writers - {"frontend"})


# ---------------------------------------------------------------------------
# shutdown: socket EOF, never SIGTERM; no handler cancelled mid-read
# ---------------------------------------------------------------------------
def test_stop_shuts_workers_down_by_socket_eof(monkeypatch):
    import multiprocessing.process

    terminated = []
    real_terminate = multiprocessing.process.BaseProcess.terminate

    def counting_terminate(self):
        terminated.append(self.name)
        real_terminate(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "terminate", counting_terminate
    )
    server = FleetServer(2)
    server.start()
    procs = [handle.proc for handle in server.fleet.workers.values()]
    server.stop()
    assert terminated == []
    assert [proc.exitcode for proc in procs] == [0, 0]


def test_stop_with_idle_keepalive_client_logs_no_error(caplog):
    import http.client
    import logging

    server = FleetServer(2)
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        # The connection stays open and idle while the fleet stops.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            server.stop()
    finally:
        conn.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []
