"""``repro monitor`` internals: tail window JSONL into a live view.

A running ``repro serve --windows-out`` appends one JSON line per closed
window; this module turns that file (or a live telemetry endpoint) into
a terminal dashboard:

* :func:`read_window_rows` — incremental, tail-tolerant JSONL reader:
  resumes from a byte offset, ignores the in-progress last line until
  its newline lands, separates the truncation trailer from window rows
  and counts the complete lines it could not parse.
* :func:`evaluate_rules` — replay the SLO rule streak machine
  (:meth:`~repro.obs.telemetry.RuleState.update`) over the rows,
  yielding the same firing states a live
  :class:`~repro.obs.telemetry.Telemetry` would hold.
* :func:`render_monitor` — the dashboard text: a recent-windows table,
  steady-state summaries (warm-up index + batch-means CIs) once enough
  windows exist, and SLO health.
* :func:`scrape` — fetch a ``/metrics`` or ``/health`` document from a
  live :class:`~repro.obs.export.TelemetryServer` URL (stdlib urllib).

Rendering is pure string building over parsed rows — no engine imports,
so the monitor can run far from the simulating process.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.telemetry import AlertRule, RuleState, parse_rule

__all__ = [
    "read_window_rows",
    "evaluate_rules",
    "render_monitor",
    "scrape",
]

#: Steady-state section appears once this many windows have closed.
MIN_STEADY_WINDOWS = 10


def read_window_rows(
    path: str | Path, *, offset: int = 0
) -> tuple[list[dict[str, Any]], dict[str, Any] | None, int, int]:
    """Read complete window rows from ``path`` starting at byte ``offset``.

    Returns ``(rows, trailer, new_offset, skipped)``.  Only
    newline-terminated lines are consumed (a writer mid-line leaves
    ``new_offset`` at the last complete row), so a follow loop can poll
    a growing file safely.  The ``repro.window_trailer/...`` row comes
    back separately and JSON objects of another format are ignored;
    ``skipped`` counts the lines that are not JSON objects at all.
    """
    rows: list[dict[str, Any]] = []
    trailer: dict[str, Any] | None = None
    skipped = 0
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n")
    if end < 0:
        return rows, trailer, offset, skipped
    for line in data[: end + 1].splitlines():
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(row, dict):
            skipped += 1
            continue
        fmt = str(row.get("format", ""))
        if fmt.startswith("repro.window_trailer/"):
            trailer = row
        elif fmt.startswith("repro.window/"):
            rows.append(row)
    return rows, trailer, offset + end + 1, skipped


def evaluate_rules(
    rules: Sequence[AlertRule | str],
    rows: Sequence[Mapping[str, Any]],
    *,
    budget_rate: float | None = None,
) -> list[RuleState]:
    """Replay the SLO streak machine over window rows, newest state out."""
    from repro.sim.metrics import derived_window_metrics

    parsed = [parse_rule(r) if isinstance(r, str) else r for r in rules]
    states = [RuleState(rule) for rule in parsed]
    for row in rows:
        metrics = derived_window_metrics(row, budget_rate=budget_rate)
        for state in states:
            state.update(metrics)
    return states


def _fmt_cell(value: float, scale: float = 1.0, digits: int = 2) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value / scale:.{digits}f}"


def render_monitor(
    rows: Sequence[Mapping[str, Any]],
    *,
    rules: Sequence[AlertRule | str] = (),
    tail: int = 10,
    budget_rate: float | None = None,
    trailer: Mapping[str, Any] | None = None,
    skipped: int = 0,
) -> str:
    """Render the dashboard text over the window rows seen so far.

    ``skipped`` is the number of unparseable lines the reader dropped;
    a non-zero count is reported so a damaged file never reads as a
    clean one.
    """
    from repro.sim.metrics import derived_window_metrics

    lines: list[str] = []
    notice = f"{skipped} unparseable rows skipped\n" if skipped else ""
    if not rows:
        return "no windows yet\n" + notice
    derived = [derived_window_metrics(row, budget_rate=budget_rate) for row in rows]
    label = rows[-1].get("label", "?")
    traffic = rows[-1].get("traffic", "?")
    span = derived[-1]["end"] - derived[0]["start"]
    lines.append(
        f"{label} [{traffic}] — {len(rows)} windows, "
        f"t = {derived[-1]['end']:.0f} s ({span:.0f} s covered)"
    )
    if trailer is not None:
        lines.append("run truncated (graceful shutdown trailer present)")
    lines.append("")
    header = (
        f"{'#':>5} {'end':>10} {'arr':>6} {'done':>6} {'late':>5} "
        f"{'on-time':>8} {'queue':>6} {'MJ':>8} {'burn':>6} {'shed':>5}"
    )
    lines.append(header)
    shown = list(enumerate(rows))[-max(tail, 1):]
    for index, row in shown:
        m = derived[index]
        lines.append(
            f"{row.get('index', index):>5} {m['end']:>10.1f} "
            f"{int(m['arrivals']):>6} {int(m['completed']):>6} "
            f"{int(m['late']):>5} {_fmt_cell(m['on_time_prob'], digits=3):>8} "
            f"{int(m['queue_depth']):>6} {_fmt_cell(m['energy'], 1e6, 3):>8} "
            f"{_fmt_cell(m['burn_rate']):>6} {int(m['shed']):>5}"
        )
    if len(rows) >= MIN_STEADY_WINDOWS:
        from repro.analysis.steady_state import analyze_windows, steady_state_table

        lines.append("")
        lines.append("steady state (MSER-5 warm-up, batch-means CI):")
        lines.append(
            steady_state_table(analyze_windows(rows, budget_rate=budget_rate))
        )
    if rules:
        states = evaluate_rules(rules, rows, budget_rate=budget_rate)
        lines.append("")
        firing = [s for s in states if s.firing]
        lines.append(
            "SLO health: "
            + ("OK" if not firing else f"{len(firing)} rule(s) FIRING")
        )
        for state in states:
            mark = "FIRING" if state.firing else "ok"
            value = _fmt_cell(state.last_value, digits=4)
            lines.append(
                f"  [{mark:>6}] {state.rule.spec}  last={value}  "
                f"breached {state.breached_windows}/{len(rows)} windows"
            )
    return "\n".join(lines) + "\n" + notice


def scrape(url: str, *, timeout: float = 5.0) -> str:
    """GET a telemetry document (``/metrics`` text or ``/health`` JSON).

    A bare endpoint base URL gets ``/metrics`` appended.  A 503 from
    ``/health`` (SLO firing) still returns the body — the caller decides
    what unhealthy means for it.
    """
    from urllib.error import HTTPError
    from urllib.request import urlopen

    if not url.rstrip("/").endswith(("/metrics", "/health")):
        url = url.rstrip("/") + "/metrics"
    try:
        with urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except HTTPError as exc:  # 503 health responses still carry a body
        return exc.read().decode("utf-8")
