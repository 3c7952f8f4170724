"""Top-spans tables from Chrome trace-event profiles and timeline views.

The ``repro profile`` CLI renders these; they also serve notebook /
script users who saved a profile with ``--profile-out`` and want the
numbers without opening Perfetto.

Self time is reconstructed from the complete ("X") events alone: within
each ``(pid, tid)`` track, events are nested by interval containment —
an event's self time is its duration minus the durations of its direct
children.  The exporter also embeds ``args.self_us`` per event, but
recomputing from intervals keeps this reader usable on any conforming
Chrome trace, not only ours.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.analysis.tables import markdown_table
from repro.obs.timeline import TimelineSet

__all__ = [
    "SpanStat",
    "span_summary",
    "profile_table",
    "timeline_table",
    "metrics_tables",
]


class SpanStat:
    """Aggregated statistics for one span name."""

    __slots__ = ("name", "count", "total_us", "self_us")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_us = 0.0
        self.self_us = 0.0


def _complete_events(events: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    out = []
    for e in events:
        if e.get("ph") == "X" and "ts" in e and "dur" in e:
            out.append(
                {
                    "name": str(e.get("name", "?")),
                    "ts": float(e["ts"]),
                    "dur": float(e["dur"]),
                    "pid": e.get("pid", 0),
                    "tid": e.get("tid", 0),
                }
            )
    return out


def span_summary(events: Sequence[Mapping[str, Any]]) -> list[SpanStat]:
    """Aggregate trace events into per-name stats, total-time descending.

    Ties in total time break by name, so the ordering is deterministic
    for any input event order.
    """
    stats: dict[str, SpanStat] = {}
    tracks: dict[tuple[Any, Any], list[dict[str, Any]]] = {}
    for e in _complete_events(events):
        tracks.setdefault((e["pid"], e["tid"]), []).append(e)
    for track in tracks.values():
        # Sort by start, longest-first on ties, so a parent precedes the
        # children it encloses; a stack then yields direct-child time.
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict[str, Any]] = []
        for e in track:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            stat = stats.setdefault(e["name"], SpanStat(e["name"]))
            stat.count += 1
            stat.total_us += e["dur"]
            stat.self_us += e["dur"]
            if stack:
                parent = stats.setdefault(stack[-1]["name"], SpanStat(stack[-1]["name"]))
                parent.self_us -= e["dur"]
            stack.append(e)
    return sorted(stats.values(), key=lambda s: (-s.total_us, s.name))


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f} s"
    if us >= 1e3:
        return f"{us / 1e3:.3f} ms"
    return f"{us:.1f} us"


def profile_table(events: Sequence[Mapping[str, Any]], *, limit: int = 20) -> str:
    """Markdown top-spans table: count, total, self, mean per call."""
    stats = span_summary(events)[: max(limit, 1)]
    rows = [
        (
            s.name,
            s.count,
            _fmt_us(s.total_us),
            _fmt_us(max(s.self_us, 0.0)),
            _fmt_us(s.total_us / s.count if s.count else 0.0),
        )
        for s in stats
    ]
    return markdown_table(["span", "count", "total", "self", "mean/call"], rows)


def timeline_table(timeline: TimelineSet, *, limit: int = 10) -> str:
    """Markdown per-stream timeline digest: peaks and final counts."""
    rows = []
    for stream in timeline.sorted_streams()[: max(limit, 1)]:
        ts = stream["t"]
        busy = stream["busy_cores"]
        depth_peak = max((sum(d) for d in stream["node_depth"]), default=0)
        rows.append(
            (
                stream["label"],
                len(ts),
                f"{ts[-1]:.0f}" if ts else "-",
                max(busy, default=0),
                depth_peak,
                stream["completed"][-1] if stream["completed"] else 0,
                stream["discarded"][-1] if stream["discarded"] else 0,
            )
        )
    return markdown_table(
        ["timeline", "samples", "t_end", "peak busy", "peak in-system", "completed", "discarded"],
        rows,
    )


#: Cache counters folded per spec by ``observe_trial``; the order here
#: is the column order of the kernel-cache table.
_CACHE_FIELDS = ("hits", "misses", "evictions", "entries")


def _cache_table(counters: Mapping[str, int]) -> str | None:
    """Per-spec kernel-cache stats from ``perf.cache.*`` counters.

    One row per ``heuristic/variant`` label (the attribution deltas the
    engine reports even when the specs of a trial share one
    :class:`~repro.perf.KernelCache`), plus a total row; hit rate is
    derived.  Returns ``None`` when the registry carries no cache
    counters at all.
    """
    if not any(k.startswith("perf.cache.") for k in counters):
        return None
    labels = sorted(
        {
            k.split(".", 3)[3]
            for k in counters
            if k.startswith("perf.cache.") and k.count(".") >= 3
        }
    )
    rows = []
    for label in labels + ["(total)"]:
        suffix = "" if label == "(total)" else f".{label}"
        values = [counters.get(f"perf.cache.{f}{suffix}", 0) for f in _CACHE_FIELDS]
        lookups = values[0] + values[1]
        rate = f"{values[0] / lookups:.1%}" if lookups else "-"
        rows.append((label, *values, rate))
    return markdown_table(["spec", *_CACHE_FIELDS, "hit rate"], rows)


def _executor_table(counters: Mapping[str, int]) -> str | None:
    """Dispatch and recovery stats from ``executor.*`` counters."""
    rows = [
        (key.removeprefix("executor.").replace("_", " "), str(value))
        for key, value in sorted(counters.items())
        if key.startswith("executor.")
    ]
    return markdown_table(["executor", "value"], rows) if rows else None


#: Counter prefixes the fault/shedding table claims from the registry.
_FAULT_PREFIXES = ("faults.", "tasks_orphaned.", "tasks_shed.", "tasks_deferred")


def _faults_table(counters: Mapping[str, int]) -> str | None:
    """Fault-layer counters (PR 7's ``faults.*``/``tasks_*`` families).

    Rows are grouped: fault transitions (``faults.<action>.<kind>``),
    then orphan dispositions, then shedding causes and deferrals.
    Returns ``None`` when no fault-layer counter is present (the common
    fault-free run).
    """
    items = {
        k: v for k, v in counters.items() if k.startswith(_FAULT_PREFIXES)
    }
    if not items:
        return None
    rows: list[tuple[str, str, int]] = []
    for key in sorted(items):
        if key.startswith("faults."):
            _, action, kind = (key.split(".", 2) + ["", ""])[:3]
            rows.append(("fault", f"{action} {kind}".strip(), items[key]))
        elif key.startswith("tasks_orphaned."):
            rows.append(("orphaned", key.removeprefix("tasks_orphaned."), items[key]))
        elif key.startswith("tasks_shed."):
            rows.append(("shed", key.removeprefix("tasks_shed."), items[key]))
        else:  # tasks_deferred (no sub-key)
            rows.append(("deferred", "retry pushes", items[key]))
    return markdown_table(["family", "detail", "count"], rows)


def metrics_tables(data: Mapping[str, Any]) -> str:
    """Render a ``repro.metrics/1`` document as counter/histogram tables.

    ``perf.cache.*``, ``executor.*`` and the fault-layer families
    (``faults.*``, ``tasks_orphaned.*``, ``tasks_shed.*``,
    ``tasks_deferred``) get dedicated derived tables and are omitted
    from the generic counter dump.
    """
    if data.get("format") != "repro.metrics/1":
        raise ValueError("not a repro.metrics/1 document")
    parts: list[str] = []
    counters = data.get("counters", {})
    generic = {
        k: v
        for k, v in counters.items()
        if not k.startswith(("perf.cache.", "executor.", *_FAULT_PREFIXES))
    }
    if generic:
        parts.append("## Counters\n")
        parts.append(markdown_table(["counter", "value"], sorted(generic.items())))
    cache = _cache_table(counters)
    if cache is not None:
        parts.append("\n## Kernel cache\n")
        parts.append(cache)
    executor = _executor_table(counters)
    if executor is not None:
        parts.append("\n## Executor\n")
        parts.append(executor)
    faults = _faults_table(counters)
    if faults is not None:
        parts.append("\n## Faults / shedding\n")
        parts.append(faults)
    histograms = data.get("histograms", {})
    if histograms:
        parts.append("\n## Histograms\n")
        rows = []
        for name, hist in sorted(histograms.items()):
            count = int(hist.get("count", 0))
            total = float(hist.get("total", 0.0))
            mean = f"{total / count:.3g}" if count else "-"
            rows.append((name, count, mean, hist.get("min"), hist.get("max")))
        parts.append(markdown_table(["histogram", "count", "mean", "min", "max"], rows))
    return "\n".join(parts) if parts else "(empty metrics registry)"
