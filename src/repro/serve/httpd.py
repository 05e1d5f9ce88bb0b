"""Stdlib HTTP front end for :class:`~repro.serve.service.PredictionService`.

A deliberately small JSON-over-HTTP surface on
:class:`http.server.ThreadingHTTPServer` — no framework, no new
dependencies, one thread per connection feeding the service's own
admission queue:

``GET /predict?application=..&cpus=..&machine=..[&metric=9][&deadline_ms=..]``
    One prediction.  Always JSON; the resilient error mapping
    (:func:`~repro.serve.service.error_payload`, shared with the fleet
    front end) is the whole point:

    * invalid ids → **400** with the known set and nearest matches,
      never a traceback;
    * shed by admission → **429** with a ``Retry-After`` header;
    * every ladder rung failed → **503** with ``Retry-After`` when a
      breaker cooldown suggests one;
    * degraded answers are **200** with ``degraded: true`` and the
      ``served_metric`` that actually answered.

``GET /healthz``
    Liveness + diagnostics (always 200 while the process can answer at
    all): breaker states, admission depth, store invalidation counter,
    request counters.

``GET /readyz``
    Readiness: 200 when no breaker is open and the queue has room,
    503 otherwise — load balancers drain the instance while it heals.

``GET /events/stats``
    Live projection views over the service's event log (leaderboards,
    failure history, event counts); ``{"enabled": false}`` when the
    service runs without one.

``GET /catalog``
    The loaded scenario catalog: application labels, machine names,
    metric numbers, the base system, and the mounted universe (if any)
    — so clients can discover valid ids instead of guessing them.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.serve.service import (
    PredictionService,
    ServedPrediction,
    catalog_doc,
    error_payload,
    parse_point_query,
)

__all__ = ["PredictionHTTPServer", "make_server"]


class PredictionHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`PredictionService`."""

    daemon_threads = True
    #: Quick restarts during tests/chaos runs beat lingering TIME_WAITs.
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PredictionService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    """Request handler: parse, dispatch, map errors to statuses."""

    server: PredictionHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        url = urlsplit(self.path)
        try:
            if url.path == "/predict":
                served = self._predict(dict(parse_qsl(url.query)))
                self._json(200, served.to_dict())
            elif url.path == "/healthz":
                self._json(200, self.server.service.health())
            elif url.path == "/readyz":
                ok, body = self.server.service.ready()
                self._json(200 if ok else 503, body)
            elif url.path == "/events/stats":
                self._json(200, self.server.service.events_stats())
            elif url.path == "/catalog":
                self._json(200, catalog_doc())
            else:
                self._json(
                    404,
                    {
                        "error": "NotFound",
                        "message": f"no route {url.path!r}",
                        "routes": [
                            "/predict",
                            "/healthz",
                            "/readyz",
                            "/events/stats",
                            "/catalog",
                        ],
                    },
                )
        except Exception as exc:  # the shared mapping: JSON, never a traceback page
            mapped = error_payload(exc)
            self._json(
                mapped["status"], mapped["body"], retry_after=mapped.get("retry_after")
            )

    # ------------------------------------------------------------------
    def _predict(self, query: dict[str, str]) -> ServedPrediction:
        q = parse_point_query(query)
        return self.server.service.predict(
            q.application,
            q.cpus,
            q.machine,
            q.metric,
            deadline_seconds=None if q.deadline_ms is None else q.deadline_ms / 1000.0,
        )

    # ------------------------------------------------------------------
    def _json(
        self, status: int, body: dict, *, retry_after: float | None = None
    ) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            # RFC 9110 allows only integral seconds; round up so clients
            # never retry before the hint.
            self.send_header("Retry-After", str(max(1, round(retry_after + 0.5))))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (the CLI owns output)."""


def make_server(
    host: str, port: int, service: PredictionService
) -> PredictionHTTPServer:
    """Bind a :class:`PredictionHTTPServer`; ``port=0`` picks a free port."""
    return PredictionHTTPServer((host, port), service)
