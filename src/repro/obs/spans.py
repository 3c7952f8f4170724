"""Span profiling: where wall-clock time goes inside an observed run.

A *span* is one timed region of code — an engine event handler, a filter
chain evaluation, a heuristic decision, a whole trial.  Spans nest, and
every completed span records both its total duration and its *self*
time (total minus the time spent in child spans), which is what a
top-spans profile actually needs.

The design mirrors the rest of :mod:`repro.obs`: profiling is strictly
opt-in and inert by default.

* :class:`SpanRecorder` collects spans for one *stream* (one process or
  worker; the stream id becomes the ``pid`` of the exported trace).
  ``recorder.span("name")`` is a context manager; ``recorder.add``
  records an externally-timed region (used by
  :class:`~repro.obs.hooks.TimedHeuristic` and the ensemble executor).
* :class:`SpanProfile` merges the streams of many recorders (parent +
  workers) deterministically — stable sort by stream id, then span
  start order — and exports Chrome trace-event JSON loadable in
  Perfetto or ``chrome://tracing``.

Timing uses ``time.perf_counter``; span *counts* and nesting are
deterministic for a fixed seed, durations of course are not.  The
recorder is intentionally not thread-safe: a trial is single-threaded
and worker processes each own their recorder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "SpanRecord",
    "SpanRecorder",
    "SpanProfile",
]

#: On-disk format tag of a serialized span stream.
SPANS_FORMAT = "repro.spans/1"


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span.

    ``seq`` is the span's *open* order within its stream (0-based), the
    deterministic sort key; ``start`` is a ``perf_counter`` reading,
    normalized per stream only on export.  ``self_dur`` is ``dur`` minus
    the total duration of direct children.
    """

    seq: int
    name: str
    start: float
    dur: float
    self_dur: float
    depth: int
    stream: int = 0
    tid: int = 0


class _OpenSpan:
    """Context manager for one in-flight span of a :class:`SpanRecorder`."""

    __slots__ = ("_recorder", "_name", "_tid")

    def __init__(self, recorder: "SpanRecorder", name: str, tid: int) -> None:
        self._recorder = recorder
        self._name = name
        self._tid = tid

    def __enter__(self) -> "_OpenSpan":
        self._recorder._open(self._name, self._tid)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._recorder._close()
        return False


class SpanRecorder:
    """Collects nested spans for one stream (process/worker).

    Parameters
    ----------
    stream:
        Integer stream id; becomes the ``pid`` of exported trace events.
        Give every worker a distinct id (the runner uses ``trial + 1``,
        reserving 0 for the parent) so streams merge deterministically.
    label:
        Human-readable stream name shown by trace viewers.
    """

    __slots__ = ("stream", "label", "records", "_stack", "_next_seq", "_clock")

    def __init__(
        self,
        stream: int = 0,
        label: str = "",
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.stream = int(stream)
        self.label = label or f"stream-{stream}"
        self.records: list[SpanRecord] = []
        #: In-flight frames: [seq, name, tid, t0, child_time]
        self._stack: list[list[Any]] = []
        self._next_seq = 0
        self._clock = clock

    # -- timing ---------------------------------------------------------

    def span(self, name: str, tid: int = 0) -> _OpenSpan:
        """Context manager timing one region as a span named ``name``."""
        return _OpenSpan(self, name, tid)

    def _open(self, name: str, tid: int) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self._stack.append([seq, name, tid, self._clock(), 0.0])

    def _close(self) -> None:
        seq, name, tid, t0, child = self._stack.pop()
        dur = self._clock() - t0
        self.records.append(
            SpanRecord(
                seq=seq,
                name=name,
                start=t0,
                dur=dur,
                self_dur=max(dur - child, 0.0),
                depth=len(self._stack),
                stream=self.stream,
                tid=tid,
            )
        )
        if self._stack:
            self._stack[-1][4] += dur

    def add(self, name: str, start: float, dur: float, *, tid: int = 0) -> None:
        """Record an externally-timed span (``start`` from the same clock).

        The span is attributed as a child of whatever span is currently
        open, exactly as if it had been opened and closed through
        :meth:`span` — this is how wrappers that already measure a
        duration (e.g. ``TimedHeuristic``) feed the profile without
        timing the region twice.
        """
        seq = self._next_seq
        self._next_seq += 1
        self.records.append(
            SpanRecord(
                seq=seq,
                name=name,
                start=start,
                dur=dur,
                self_dur=dur,
                depth=len(self._stack),
                stream=self.stream,
                tid=tid,
            )
        )
        if self._stack:
            self._stack[-1][4] += dur

    def __len__(self) -> int:
        return len(self.records)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize the stream for the trip back to the parent process."""
        return {
            "format": SPANS_FORMAT,
            "stream": self.stream,
            "label": self.label,
            "spans": [
                [r.seq, r.name, r.start, r.dur, r.self_dur, r.depth, r.tid]
                for r in self.records
            ],
        }


# ----------------------------------------------------------------------
# Merged profiles and Chrome trace export
# ----------------------------------------------------------------------


class SpanProfile:
    """Span streams from one run (parent + workers), merged.

    Streams merge deterministically: records are ordered by
    ``(stream, seq)``, i.e. stable sort by worker id then span start
    (``seq`` is open order, and starts are monotone in it within a
    stream).  Span names, counts and nesting are therefore identical
    across repeated same-seed runs; only the measured durations differ.
    """

    def __init__(self) -> None:
        self.labels: dict[int, str] = {}
        self.records: list[SpanRecord] = []

    def add_stream(self, stream: "SpanRecorder | Mapping[str, Any]") -> None:
        """Fold one recorder (or its :meth:`SpanRecorder.to_dict`) in."""
        if isinstance(stream, SpanRecorder):
            self.labels[stream.stream] = stream.label
            self.records.extend(stream.records)
            return
        if stream.get("format") != SPANS_FORMAT:
            raise ValueError(f"not a {SPANS_FORMAT} document")
        sid = int(stream["stream"])
        self.labels[sid] = str(stream.get("label", f"stream-{sid}"))
        for seq, name, start, dur, self_dur, depth, tid in stream["spans"]:
            self.records.append(
                SpanRecord(
                    seq=int(seq),
                    name=str(name),
                    start=float(start),
                    dur=float(dur),
                    self_dur=float(self_dur),
                    depth=int(depth),
                    stream=sid,
                    tid=int(tid),
                )
            )

    def sorted_records(self) -> list[SpanRecord]:
        """All records in the deterministic merge order."""
        return sorted(self.records, key=lambda r: (r.stream, r.seq))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.sorted_records())

    def span_counts(self) -> dict[str, int]:
        """Deterministic summary: span name -> call count (name-sorted)."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.name] = counts.get(record.name, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> list[tuple[str, int, float, float]]:
        """Per-name ``(name, count, total_s, self_s)`` rows, total-descending."""
        totals: dict[str, list[float]] = {}
        for record in self.records:
            entry = totals.setdefault(record.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += record.dur
            entry[2] += record.self_dur
        rows = [
            (name, int(count), total, self_t)
            for name, (count, total, self_t) in totals.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def to_chrome_trace(self) -> dict[str, Any]:
        """Export as a Chrome trace-event document (Perfetto-loadable).

        Spans become complete ``"X"`` events; each stream is one process
        (``pid`` = stream id, named by a ``process_name`` metadata
        record).  Timestamps are microseconds, normalized per stream to
        that stream's earliest span start, so every ``ts`` is
        non-negative and events within a ``(pid, tid)`` track are
        time-ordered.
        """
        t0_by_stream: dict[int, float] = {}
        for record in self.records:
            t0 = t0_by_stream.get(record.stream)
            if t0 is None or record.start < t0:
                t0_by_stream[record.stream] = record.start
        events: list[dict[str, Any]] = []
        for sid in sorted(self.labels):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": sid,
                    "tid": 0,
                    "args": {"name": self.labels[sid]},
                }
            )
        for record in self.sorted_records():
            t0 = t0_by_stream[record.stream]
            events.append(
                {
                    "ph": "X",
                    "cat": "repro",
                    "name": record.name,
                    "ts": round((record.start - t0) * 1e6, 3),
                    "dur": round(record.dur * 1e6, 3),
                    "pid": record.stream,
                    "tid": record.tid,
                    "args": {"depth": record.depth, "self_us": round(record.self_dur * 1e6, 3)},
                }
            )
        # Stable viewer ordering: metadata first, then (pid, tid, ts).
        events.sort(key=lambda e: (e["pid"], e.get("ph") != "M", e["tid"], e.get("ts", -1.0)))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"format": "repro.profile/1", "streams": len(self.labels)},
        }
