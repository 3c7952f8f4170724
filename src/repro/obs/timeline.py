"""Simulation timelines: sampled system-state snapshots over sim time.

Events record *what happened*; the timeline records *how system state
evolved between events*: per-node queue depth, busy-core count, the
heuristic's remaining-energy estimate ``zeta(t)``, and cumulative
completion/discard counts, sampled on a uniform simulated-time grid.

Sampling is driven by the engine's own event stream (there is no
separate clock): on every mapped/discarded/completed callback the
recorder emits one snapshot per ``dt`` tick the simulation has crossed
since the last sample, reading the engine state as of the first event at
or after the tick.  Sample times and values are therefore fully
deterministic for a fixed seed — a timeline is as reproducible as the
trial it describes — and the number of samples is bounded by
``makespan / dt`` regardless of event density.

Like every other observability surface, timelines observe and never
steer: the engine does not know this module exists; the recorder is an
:class:`~repro.sim.engine.EngineHooks` subscriber like any other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from repro.sim.engine import Engine, EngineHooks
from repro.workload.task import Task

__all__ = ["TimelineSample", "TimelineRecorder", "TimelineSet", "TIMELINE_FORMAT"]

#: On-disk format tag of a timeline document.
TIMELINE_FORMAT = "repro.timeline/1"


@dataclass(frozen=True, slots=True)
class TimelineSample:
    """System state at one sample tick.

    ``node_depth[i]`` counts tasks queued or executing on node ``i``;
    ``busy_cores`` counts cores with a running task; ``energy_estimate``
    is the heuristic's remaining-energy estimate ``zeta``;
    ``completed``/``discarded`` are cumulative counts up to the tick.
    """

    t: float
    node_depth: tuple[int, ...]
    busy_cores: int
    energy_estimate: float
    completed: int
    discarded: int

    @property
    def in_system(self) -> int:
        """Tasks queued or executing, cluster-wide."""
        return sum(self.node_depth)


class TimelineRecorder(EngineHooks):
    """Samples engine state every ``dt`` simulated seconds of one trial.

    ``stream``/``label`` identify the trial (and spec) the way span
    streams are identified, so per-worker timelines merge
    deterministically in the parent.
    """

    def __init__(
        self,
        dt: float,
        *,
        stream: int = 0,
        label: str = "",
        capacity: int | None = None,
    ) -> None:
        if not (dt > 0.0):
            raise ValueError(f"timeline dt must be positive, got {dt}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"timeline capacity must be positive, got {capacity}")
        self.dt = float(dt)
        self.stream = int(stream)
        self.label = label or f"stream-{stream}"
        self.capacity = capacity
        # With a capacity the recorder is a ring buffer holding only the
        # most recent samples — bounded memory for unbounded service
        # runs; ``None`` keeps the full batch-mode history.
        self.samples: "deque[TimelineSample] | list[TimelineSample]" = (
            deque(maxlen=capacity) if capacity is not None else []
        )
        self._next_t = 0.0
        self._completed = 0
        self._discarded = 0

    # -- EngineHooks ------------------------------------------------------

    def on_mapped(self, engine: Engine, task: Task, core_id: int, pstate: int) -> None:
        """A task was mapped; sample any ticks the sim just crossed."""
        self._sample_up_to(engine)

    def on_discarded(self, engine: Engine, task: Task) -> None:
        """A task was discarded; bump the cumulative count and sample."""
        self._discarded += 1
        self._sample_up_to(engine)

    def on_completion(self, engine: Engine, core_id: int, task: Task, t_now: float) -> None:
        """A task completed; bump the cumulative count and sample."""
        self._completed += 1
        self._sample_up_to(engine)

    def _sample_up_to(self, engine: Engine) -> None:
        now = engine.now
        if self._next_t > now:
            return
        cores = engine.cores
        node_depth = [0] * engine.system.cluster.num_nodes
        busy = 0
        for core in cores:
            node_depth[core.node_index] += core.assigned_count
            if core.running is not None:
                busy += 1
        depth = tuple(node_depth)
        while self._next_t <= now:
            self.samples.append(
                TimelineSample(
                    t=self._next_t,
                    node_depth=depth,
                    busy_cores=busy,
                    energy_estimate=engine.energy_estimate,
                    completed=self._completed,
                    discarded=self._discarded,
                )
            )
            self._next_t += self.dt

    def __len__(self) -> int:
        return len(self.samples)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialize as parallel arrays (compact for JSON dumps)."""
        return {
            "stream": self.stream,
            "label": self.label,
            "dt": self.dt,
            "num_nodes": len(self.samples[0].node_depth) if self.samples else 0,
            "t": [s.t for s in self.samples],
            "busy_cores": [s.busy_cores for s in self.samples],
            "energy_estimate": [s.energy_estimate for s in self.samples],
            "completed": [s.completed for s in self.samples],
            "discarded": [s.discarded for s in self.samples],
            "node_depth": [list(s.node_depth) for s in self.samples],
        }


class TimelineSet:
    """The timelines of one run: one stream per (trial, spec).

    Streams are kept as their serialized dict form (they cross process
    boundaries that way) and ordered by ``(stream, label)`` so repeated
    runs — at any ``n_jobs`` — produce byte-identical documents.
    """

    def __init__(self, dt: float) -> None:
        if not (dt > 0.0):
            raise ValueError(f"timeline dt must be positive, got {dt}")
        self.dt = float(dt)
        self.streams: list[dict[str, Any]] = []

    def add(self, stream: "TimelineRecorder | dict[str, Any]") -> None:
        """Fold one recorder (or its :meth:`TimelineRecorder.to_dict`) in."""
        self.streams.append(
            stream.to_dict() if isinstance(stream, TimelineRecorder) else dict(stream)
        )

    def sorted_streams(self) -> list[dict[str, Any]]:
        """Streams in the deterministic merge order."""
        return sorted(self.streams, key=lambda s: (s["stream"], s["label"]))

    def __len__(self) -> int:
        return len(self.streams)

    def __iter__(self) -> Iterable[dict[str, Any]]:
        return iter(self.sorted_streams())

    def to_dict(self) -> dict[str, Any]:
        """The on-disk ``repro.timeline/1`` document."""
        return {
            "format": TIMELINE_FORMAT,
            "dt": self.dt,
            "streams": self.sorted_streams(),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TimelineSet":
        """Rebuild from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("format") != TIMELINE_FORMAT:
            raise ValueError(f"not a {TIMELINE_FORMAT} document")
        out = TimelineSet(float(data["dt"]))
        for stream in data["streams"]:
            out.add(stream)
        return out
