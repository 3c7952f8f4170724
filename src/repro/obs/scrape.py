"""The HTTP side of :class:`~repro.obs.export.TelemetryServer`.

A stdlib :class:`~http.server.ThreadingHTTPServer` serving ``GET
/metrics`` (Prometheus text) and ``GET /health`` (JSON roll-up; 503
while any SLO rule fires).  :meth:`TelemetryServer.start` imports this
module, so ``import repro`` never loads ``http.server`` (and with it
``http.client``, ``ssl`` and ``socketserver``) unless a server
actually starts.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.obs.export import CONTENT_TYPE

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.obs.telemetry import Telemetry

__all__ = ["ScrapeServer"]


class _Handler(BaseHTTPRequestHandler):
    """Serves /metrics (Prometheus text) and /health (JSON)."""

    server: "ScrapeServer"  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        telemetry = self.server.telemetry
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = telemetry.render_prometheus().encode("utf-8")
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/health":
            health = telemetry.health()
            body = json.dumps(health, indent=2).encode("utf-8")
            status = 200 if health["healthy"] else 503
            self._reply(status, "application/json", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        pass  # scrapes should not spam the service's stderr


class ScrapeServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one telemetry hub."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], telemetry: "Telemetry") -> None:
        super().__init__(address, _Handler)
        self.telemetry = telemetry
