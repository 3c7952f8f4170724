"""Telemetry export surfaces: Prometheus text, atomic files, HTTP scrape.

Three ways out for a :class:`~repro.obs.telemetry.Telemetry` snapshot:

* :func:`to_prometheus` — render a snapshot into the Prometheus text
  exposition format (version 0.0.4): ``repro_*_total`` counters,
  plain gauges, and ``{quantile="..."}``-labelled summary-style gauges
  for the P² estimates, each with ``# HELP``/``# TYPE`` comments.
* :class:`FileExporter` — atomically republish the rendering to a file
  on every window close (tmp-write + ``os.replace``), for headless runs
  scraped by node-exporter's textfile collector or plain ``cat``.
* :class:`TelemetryServer` — a stdlib :class:`~http.server.ThreadingHTTPServer`
  on a daemon thread serving ``GET /metrics`` (Prometheus text) and
  ``GET /health`` (JSON roll-up; 503 while any SLO rule fires, so a
  load balancer can act on it).  ``port=0`` binds an ephemeral port;
  :meth:`TelemetryServer.start` returns the bound port.  The HTTP
  handler lives in :mod:`repro.obs.scrape`, which ``start`` imports:
  the HTTP/TLS stack loads only when a server starts.

Everything here is stdlib + the telemetry snapshot: no engine imports,
no third-party servers, nothing on the simulation hot path.
"""

from __future__ import annotations

import math
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.obs.scrape import ScrapeServer
    from repro.obs.telemetry import Telemetry

__all__ = [
    "to_prometheus",
    "FileExporter",
    "TelemetryServer",
    "CONTENT_TYPE",
    "METRIC_PREFIX",
]

#: Content type of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every exported metric family starts with this.
METRIC_PREFIX = "repro"

_COUNTER_HELP = {
    "tasks_mapped": "Tasks admitted and committed to an assignment.",
    "tasks_completed": "Tasks whose execution finished.",
    "tasks_on_time": "Completions at or before their deadline.",
    "tasks_late": "Completions after their deadline.",
    "tasks_discarded": "Arrivals discarded (no feasible assignment).",
    "tasks_shed": "Arrivals dropped by the admission controller.",
    "tasks_deferred": "Arrivals deferred (retry-later) by admission control.",
    "windows": "Closed metric windows.",
}

_GAUGE_HELP = {
    "in_system": "Tasks in system at the last window close.",
    "budget_remaining": "Rolling energy budget remaining (joules).",
    "window_on_time_prob": "On-time fraction of the last closed window.",
    "window_energy_joules": "Energy consumed in the last closed window.",
    "burn_rate": "Last window's energy over its budget allowance.",
}

_SUMMARY_HELP = {
    "completion_latency_seconds": "Task completion latency (arrival to finish).",
    "queue_depth": "Average queue depth observed at task admission.",
    "window_energy_joules_dist": "Per-window energy consumption.",
}


def _fmt(value: float) -> str:
    """Prometheus sample value: NaN spelled ``NaN``, floats via repr."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _family(
    lines: list[str], name: str, kind: str, help_text: str
) -> str:
    full = f"{METRIC_PREFIX}_{name}"
    lines.append(f"# HELP {full} {help_text}")
    lines.append(f"# TYPE {full} {kind}")
    return full


def _summary(
    lines: list[str],
    name: str,
    help_text: str,
    quantiles: Mapping[float, float],
    count: int,
    total: float,
) -> None:
    full = _family(lines, name, "summary", help_text)
    for q in sorted(quantiles):
        lines.append(f'{full}{{quantile="{q:g}"}} {_fmt(quantiles[q])}')
    lines.append(f"{full}_sum {_fmt(total)}")
    lines.append(f"{full}_count {count}")


def to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`Telemetry.snapshot` as Prometheus text (0.0.4)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    for name in counters:
        full = _family(
            lines,
            f"{name}_total",
            "counter",
            _COUNTER_HELP.get(name, f"Count of {name.replace('_', ' ')}."),
        )
        lines.append(f"{full} {counters[name]}")
    gauges = snapshot.get("gauges", {})
    for name in gauges:
        full = _family(
            lines, name, "gauge", _GAUGE_HELP.get(name, f"Gauge {name}.")
        )
        lines.append(f"{full} {_fmt(gauges[name])}")
    for key, metric in (
        ("latency", "completion_latency_seconds"),
        ("queue_depth", "queue_depth"),
        ("window_energy", "window_energy_joules_dist"),
    ):
        stream = snapshot.get(key)
        if not stream:
            continue
        _summary(
            lines,
            metric,
            _SUMMARY_HELP[metric],
            stream["quantiles"],
            stream["count"],
            stream["sum"],
        )
    for name, key in (
        ("arrival_rate", "arrival_rate"),
        ("completion_rate", "completion_rate"),
        ("on_time_ewma", "on_time_ewma"),
    ):
        if key in snapshot:
            full = _family(
                lines,
                name,
                "gauge",
                {
                    "arrival_rate": "EWMA task arrival rate (1/s, simulated time).",
                    "completion_rate": "EWMA task completion rate (1/s, simulated time).",
                    "on_time_ewma": "EWMA of the per-completion on-time indicator.",
                }[name],
            )
            lines.append(f"{full} {_fmt(snapshot[key])}")
    steady = snapshot.get("steady_state", {})
    if steady:
        warm = _family(
            lines,
            "warmup_window_index",
            "gauge",
            "MSER-5 warm-up truncation point (raw window index).",
        )
        for metric in sorted(steady):
            lines.append(
                f'{warm}{{metric="{metric}"}} {steady[metric]["warmup_windows"]}'
            )
        mean = _family(
            lines, "steady_mean", "gauge", "Post-warm-up batch-means mean."
        )
        for metric in sorted(steady):
            value = steady[metric]["mean"]
            lines.append(
                f'{mean}{{metric="{metric}"}} '
                f"{_fmt(math.nan if value is None else value)}"
            )
        half = _family(
            lines,
            "steady_ci_half_width",
            "gauge",
            "Batch-means confidence-interval half-width.",
        )
        for metric in sorted(steady):
            value = steady[metric]["ci_half_width"]
            lines.append(
                f'{half}{{metric="{metric}"}} '
                f"{_fmt(math.nan if value is None else value)}"
            )
        conv = _family(
            lines,
            "steady_converged",
            "gauge",
            "1 when the steady-state estimate is trustworthy.",
        )
        for metric in sorted(steady):
            lines.append(
                f'{conv}{{metric="{metric}"}} '
                f"{1 if steady[metric]['converged'] else 0}"
            )
    health = snapshot.get("health", {})
    if health:
        full = _family(
            lines, "healthy", "gauge", "1 while no SLO rule is firing."
        )
        lines.append(f"{full} {1 if health.get('healthy', True) else 0}")
        firing = _family(
            lines, "slo_firing", "gauge", "1 while this SLO rule is firing."
        )
        for state in health.get("rules", []):
            rule = str(state["rule"]).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'{firing}{{rule="{rule}"}} {1 if state["firing"] else 0}')
    if "history_dropped" in snapshot:
        full = _family(
            lines,
            "history_dropped_total",
            "counter",
            "Window rows dropped from the bounded telemetry history.",
        )
        lines.append(f"{full} {snapshot['history_dropped']}")
    return "\n".join(lines) + "\n"


class FileExporter:
    """Atomically republish the Prometheus rendering to one file.

    Each :meth:`export` writes to ``<path>.tmp`` and ``os.replace``s it
    over the target, so readers never observe a torn file.  Wire it as a
    telemetry sink by calling :meth:`export` from the window-close path
    (the service layer does this when ``--telemetry-out`` is given).
    """

    def __init__(self, path: str | Path, telemetry: "Telemetry") -> None:
        self.path = Path(path)
        self.telemetry = telemetry
        self.exports = 0

    def export(self) -> None:
        """Render the current snapshot and atomically replace the file."""
        text = self.telemetry.render_prometheus()
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)
        self.exports += 1


class TelemetryServer:
    """Background scrape endpoint over one :class:`Telemetry` hub.

    The server runs on a daemon thread and never touches the simulation:
    request handlers only call the hub's locked read-side methods.  Use
    ``port=0`` for an OS-assigned port (tests); :meth:`start` returns
    the actual bound port either way.
    """

    def __init__(
        self, telemetry: "Telemetry", *, port: int = 9464, host: str = "127.0.0.1"
    ) -> None:
        self.telemetry = telemetry
        self.host = host
        self.port = port
        self._server: ScrapeServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Bind and serve in the background; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("telemetry server already started")
        from repro.obs.scrape import ScrapeServer

        server = ScrapeServer((self.host, self.port), self.telemetry)
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        """The endpoint base URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
