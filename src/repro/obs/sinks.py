"""Event sinks: JSONL traces, ring buffers, and a metrics registry.

A *sink* is anything with an ``emit(event)`` method; the
:class:`~repro.obs.hooks.ObservingHooks` adapter fans every event out to
all attached sinks.  Sinks are deliberately dumb — no threading, no
buffering policy beyond what the host object provides — because a trial
is single-threaded and the ensemble runner isolates workers per process
(each worker owns its own :class:`MetricsRegistry`, merged afterwards).
"""

from __future__ import annotations

import collections
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import IO, Any, Iterator, Protocol, runtime_checkable

from repro.obs.events import Event, event_to_dict

__all__ = [
    "EventSink",
    "JsonlSink",
    "RingBufferSink",
    "Histogram",
    "MetricsRegistry",
    "DEPTH_EDGES",
    "GRID_EDGES",
]


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive a stream of events."""

    def emit(self, event: Event) -> None:
        """Consume one event."""


class JsonlSink:
    """Append events to a JSON-lines trace file (one object per line).

    Accepts a path (opened lazily, closed by :meth:`close` or the
    context manager) or an already-open text file object (left open).

    Durability: path-backed sinks open their file *line-buffered* and
    each event is written as a single ``write`` call, so a sink
    abandoned mid-trial (worker crash, ``os._exit``) leaves only whole,
    parseable lines behind — a truncated trace is still a valid trace
    prefix for :func:`repro.io.trace_io.load_trace`.
    """

    def __init__(self, target: str | pathlib.Path | IO[str]) -> None:
        if isinstance(target, (str, pathlib.Path)):
            path = pathlib.Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file: IO[str] = path.open("w", encoding="utf-8", buffering=1)
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self.count = 0

    def emit(self, event: Event) -> None:
        """Write one event as a compact JSON line (a single ``write``)."""
        self._file.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
        self.count += 1

    def flush(self) -> None:
        """Push buffered lines to the OS without closing the sink."""
        self._file.flush()

    def close(self) -> None:
        """Flush and close the underlying file if this sink opened it."""
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory.

    Useful for post-mortem inspection of long runs where a full trace
    would be too large: attach a ring, and on an anomaly read back the
    tail of the event stream.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: collections.deque[Event] = collections.deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: Event) -> None:
        self._buffer.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> tuple[Event, ...]:
        """The retained events, oldest first."""
        return tuple(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._buffer)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _encode_float(x: float) -> float | str:
    """JSON has no inf/nan; encode them as strings (``float()`` reads them back)."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


#: Default bucket upper bounds for cluster-average queue depth.
DEPTH_EDGES: tuple[float, ...] = (0.25, 0.5, 0.8, 1.2, 2.0, 4.0, 8.0, 16.0)

#: Default bucket upper bounds for pmf grid sizes (support lengths) seen
#: by the stoch op observer: powers of four from 4 up, overflow catches
#: pathologically wide supports.
GRID_EDGES: tuple[float, ...] = tuple(4.0**k for k in range(1, 8))


@dataclass
class Histogram:
    """A fixed-bucket histogram with running count/sum/min/max.

    ``edges`` are *upper bounds* of the first ``len(edges)`` buckets; one
    overflow bucket is appended, so ``counts`` has ``len(edges) + 1``
    entries.  Fixed buckets make merging across worker processes an
    element-wise add.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("need at least one bucket edge")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)
        elif len(self.counts) != len(self.edges) + 1:
            raise ValueError("counts length must be len(edges) + 1")

    def observe(self, value: float) -> None:
        """Record one sample."""
        i = 0
        for i, edge in enumerate(self.edges):
            if value <= edge:
                break
        else:
            i = len(self.edges)
        self.counts[i] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def mean(self) -> float:
        """Mean of all observed samples (``nan`` when empty)."""
        return self.total / self.count if self.count else math.nan

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical edges into this one."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        """Serialize (infinities encoded as strings for JSON)."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": _encode_float(self.min),
            "max": _encode_float(self.max),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`to_dict` output."""
        return Histogram(
            edges=tuple(data["edges"]),
            counts=[int(c) for c in data["counts"]],
            count=int(data["count"]),
            total=float(data["total"]),
            min=float(data["min"]),
            max=float(data["max"]),
        )


class MetricsRegistry:
    """Named counters and histograms, mergeable across processes.

    The registry itself is schema-free; :mod:`repro.obs.hooks` uses the
    conventional names

    * ``tasks_mapped``, ``tasks_completed`` — counters;
    * ``tasks_discarded.<cause>`` — one counter per discard cause;
    * ``queue_depth`` — histogram of cluster-average queue depth at
      each mapping event (:data:`DEPTH_EDGES`).

    The supervised ensemble executor
    (:mod:`repro.experiments.executor`) adds

    * ``executor.trials_retried``, ``executor.trials_quarantined``,
      ``executor.trials_resumed``, ``executor.checkpoints_written`` —
      recovery-action counters;
    * ``executor.faults.<kind>`` — one counter per observed fault kind
      (``crash``, ``timeout``, ``corrupt``, ``error``).
    """

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- collection -----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float, edges: tuple[float, ...]) -> None:
        """Record ``value`` into histogram ``name`` (created with ``edges``)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(edges)
        hist.observe(value)

    # -- aggregation ----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. from a worker process) into this one."""
        for name, n in other.counters.items():
            self.inc(name, n)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram.from_dict(hist.to_dict())
            else:
                mine.merge(hist)

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """All counters whose name starts with ``prefix`` (suffix-keyed)."""
        cut = len(prefix)
        return {
            name[cut:]: n for name, n in self.counters.items() if name.startswith(prefix)
        }

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize for JSON dumps and cross-process transfer."""
        return {
            "format": "repro.metrics/1",
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict() for name, hist in sorted(self.histograms.items())
            },
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild from :meth:`to_dict` output."""
        if data.get("format") != "repro.metrics/1":
            raise ValueError("not a repro.metrics/1 document")
        registry = MetricsRegistry()
        registry.counters = {str(k): int(v) for k, v in data["counters"].items()}
        registry.histograms = {
            str(k): Histogram.from_dict(v) for k, v in data["histograms"].items()
        }
        return registry
