"""repro.faults — deterministic in-simulation faults and overload shedding.

PR 2's chaos layer (:mod:`repro.experiments.chaos`) kills *worker
processes around* trials; this module models failures *inside* the
simulated cluster: nodes and cores go down mid-run, run slow, and come
back, while the scheduler keeps mapping against whatever capacity
survives.

The pieces:

* :class:`FaultEvent` / :class:`FaultSchedule` — a typed, explicit or
  seed-generated list of outages and slowdowns.  The schedule is pure
  data; :meth:`FaultSchedule.transitions` compiles it against a cluster
  into the time-ordered fail/recover :class:`FaultTransition` stream the
  engine injects into its event heap.
* :class:`FaultPolicy` — what happens to work caught by an outage:
  running tasks are ``lost`` or ``resume``-orphaned, and orphans are
  (by default) re-mapped through the normal heuristic/filter stack.
* :class:`SheddingConfig` / :class:`AdmissionController` — overload
  protection for continuous service: arrivals are deferred or dropped
  when queue depth or the rolling energy budget cross thresholds, or
  when the chosen assignment's ``prob_on_time`` falls below a floor;
  queued tasks are dropped at dispatch below a second floor
  (probabilistic task pruning, Gentry et al., arXiv:1901.09312).
* :class:`FaultStats` — the engine's running counters over all of the
  above, surfaced per window in service mode.

Determinism: generated schedules draw exclusively from
``rng.stream(seed, "faults", scope, target)`` sub-streams, so the same
seed always yields the same failure/repair process, independent of every
other stream in the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

from repro import rng as rng_mod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.cluster import ClusterSpec

__all__ = [
    "FAULT_KINDS",
    "FAULTS_FORMAT",
    "FaultEvent",
    "FaultTransition",
    "FaultSchedule",
    "FaultPolicy",
    "SheddingConfig",
    "AdmissionController",
    "FaultStats",
]

#: Valid :attr:`FaultEvent.kind` values.
FAULT_KINDS = ("node_outage", "core_outage", "node_slowdown")

#: Format tag of a serialized fault schedule (see :mod:`repro.io.faults_io`).
FAULTS_FORMAT = "repro.faults/1"

#: Shed / defer causes recorded by the admission controller.
SHED_QUEUE_DEPTH = "queue_depth"
SHED_BUDGET = "budget"
SHED_MIN_PROB = "min_prob"


@dataclass(frozen=True)
class FaultEvent:
    """One failure episode: a target degrades at ``start`` for ``duration``.

    ``target`` is a node index for ``node_outage`` / ``node_slowdown``
    and a flat core id for ``core_outage``.  ``pstate_floor`` applies to
    slowdowns only: while active, P-states *faster* than the floor index
    are forbidden (index 0 is the fastest, so a floor of 2 caps the node
    to P-states 2 and deeper — DVFS throttling under thermal or power
    emergencies).
    """

    kind: str
    target: int
    start: float
    duration: float
    pstate_floor: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if self.target < 0:
            raise ValueError(f"target must be non-negative, got {self.target}")
        if not (self.start >= 0.0) or not math.isfinite(self.start):
            raise ValueError(f"start must be finite and >= 0, got {self.start}")
        if not (self.duration > 0.0) or not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        if self.pstate_floor < 0:
            raise ValueError(f"pstate_floor must be non-negative, got {self.pstate_floor}")
        if self.kind != "node_slowdown" and self.pstate_floor != 0:
            raise ValueError("pstate_floor only applies to node_slowdown events")

    @property
    def end(self) -> float:
        """The recovery instant."""
        return self.start + self.duration


@dataclass(frozen=True)
class FaultTransition:
    """One compiled edge of a fault episode: a fail or a recover.

    Produced by :meth:`FaultSchedule.transitions`; ``core_ids`` is the
    resolved flat-core extent of the originating event, so the engine
    never needs to map node indices itself.
    """

    time: float
    action: str  # "fail" | "recover"
    event: FaultEvent
    core_ids: tuple[int, ...]

    @property
    def is_outage(self) -> bool:
        """Whether the originating event removes capacity entirely."""
        return self.event.kind in ("node_outage", "core_outage")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, replayable list of in-simulation fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def empty(cls) -> "FaultSchedule":
        """A schedule with no events (engine behaves exactly as baseline)."""
        return cls(())

    @classmethod
    def generate(
        cls,
        *,
        num_targets: int,
        horizon: float,
        mtbf: float,
        mttr: float,
        seed: int,
        scope: str = "node",
        pstate_floor: int = 0,
    ) -> "FaultSchedule":
        """Draw a failure/repair renewal process per target.

        Each target alternates exponentially-distributed up intervals
        (mean ``mtbf``) and down intervals (mean ``mttr``), starting up
        at time 0; episodes beginning before ``horizon`` are kept.
        ``scope`` picks the event kind: ``"node"`` emits node outages
        over node indices ``0..num_targets-1``, ``"core"`` core outages
        over flat core ids, and ``"slowdown"`` node slowdowns capped at
        ``pstate_floor``.  Every target draws from its own
        ``rng.stream(seed, "faults", scope, target)``, so schedules are
        reproducible and adding targets never perturbs existing ones.
        """
        kinds = {"node": "node_outage", "core": "core_outage", "slowdown": "node_slowdown"}
        if scope not in kinds:
            raise ValueError(f"unknown fault scope {scope!r}; known: {', '.join(kinds)}")
        if num_targets < 1:
            raise ValueError(f"num_targets must be positive, got {num_targets}")
        if not (horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not (mtbf > 0.0) or not (mttr > 0.0):
            raise ValueError(f"mtbf and mttr must be positive, got {mtbf}, {mttr}")
        kind = kinds[scope]
        floor = pstate_floor if kind == "node_slowdown" else 0
        events: list[FaultEvent] = []
        for target in range(num_targets):
            gen = rng_mod.stream(seed, "faults", scope, target)
            t = float(gen.exponential(mtbf))
            while t < horizon:
                duration = float(gen.exponential(mttr))
                events.append(
                    FaultEvent(
                        kind=kind,
                        target=target,
                        start=t,
                        duration=duration,
                        pstate_floor=floor,
                    )
                )
                t += duration + float(gen.exponential(mtbf))
        events.sort(key=lambda e: (e.start, e.target, e.kind))
        return cls(tuple(events))

    def transitions(self, cluster: "ClusterSpec") -> tuple[FaultTransition, ...]:
        """Compile to the time-ordered fail/recover edges for ``cluster``.

        Ties at one instant order recoveries before failures (capacity
        returning at the exact moment another fault lands is visible to
        it), then schedule order — fully deterministic.
        """
        import numpy as np

        edges: list[tuple[float, int, int, FaultTransition]] = []
        for index, event in enumerate(self.events):
            if event.kind == "core_outage":
                if event.target >= cluster.num_cores:
                    raise ValueError(
                        f"core_outage target {event.target} outside cluster "
                        f"({cluster.num_cores} cores)"
                    )
                core_ids: tuple[int, ...] = (event.target,)
            else:
                if event.target >= cluster.num_nodes:
                    raise ValueError(
                        f"{event.kind} target {event.target} outside cluster "
                        f"({cluster.num_nodes} nodes)"
                    )
                core_ids = tuple(
                    int(c) for c in np.flatnonzero(cluster.core_node_index == event.target)
                )
            if event.kind == "node_slowdown" and event.pstate_floor >= cluster.num_pstates:
                raise ValueError(
                    f"pstate_floor {event.pstate_floor} >= num_pstates "
                    f"{cluster.num_pstates} would forbid every P-state"
                )
            fail = FaultTransition(event.start, "fail", event, core_ids)
            recover = FaultTransition(event.end, "recover", event, core_ids)
            edges.append((event.start, 1, index, fail))
            edges.append((event.end, 0, index, recover))
        edges.sort(key=lambda e: e[:3])
        return tuple(edge[3] for edge in edges)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (see :data:`FAULTS_FORMAT`)."""
        return {
            "format": FAULTS_FORMAT,
            "events": [
                {
                    "kind": e.kind,
                    "target": e.target,
                    "start": e.start,
                    "duration": e.duration,
                    "pstate_floor": e.pstate_floor,
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSchedule":
        """Rebuild from :meth:`to_dict` output (strict about the tag).

        Raises :class:`ValueError` for anything malformed, naming the
        missing key of an incomplete event.
        """
        if not isinstance(data, dict) or data.get("format") != FAULTS_FORMAT:
            found = data.get("format") if isinstance(data, dict) else type(data).__name__
            raise ValueError(
                f"not a fault schedule: format {found!r} != {FAULTS_FORMAT!r}"
            )
        events = []
        for index, e in enumerate(data.get("events", ())):
            try:
                events.append(
                    FaultEvent(
                        kind=e["kind"],
                        target=e["target"],
                        start=e["start"],
                        duration=e["duration"],
                        pstate_floor=e.get("pstate_floor", 0),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"fault event {index} has no {exc.args[0]!r} key") from None
            except TypeError as exc:
                raise ValueError(f"fault event {index} is malformed: {exc}") from None
        return cls(tuple(events))


@dataclass(frozen=True)
class FaultPolicy:
    """What the engine does with work caught by an outage.

    ``running`` decides the fate of a task executing when its core goes
    down: ``"lost"`` kills it (the energy already spent stays on the
    ledger — the paper's budget is consumed, not refunded), ``"resume"``
    orphans it for re-mapping, restarting from scratch on the surviving
    cluster (a checkpoint-restart with zero salvaged progress — the
    conservative bound).  ``remap`` controls whether orphans (queued
    tasks always, resumed running tasks under ``"resume"``) go back
    through the heuristic/filter stack; with ``remap=False`` every
    orphan is lost, which is the no-recovery baseline the degraded
    report compares against.
    """

    running: str = "lost"
    remap: bool = True

    def __post_init__(self) -> None:
        if self.running not in ("lost", "resume"):
            raise ValueError(f"running policy must be 'lost' or 'resume', got {self.running!r}")


@dataclass(frozen=True)
class SheddingConfig:
    """Overload-protection thresholds for the admission controller.

    Every threshold defaults to ``None`` (check disabled); a config with
    all checks disabled is inert and the engine treats it exactly as
    "no shedding".

    Attributes
    ----------
    queue_depth:
        Defer/shed an arrival when the cluster-average queue depth
        exceeds this many tasks per core.
    budget_frac:
        Defer/shed when the energy allowance falls below this fraction
        of its cap (rolling budget) or of the trial budget (batch).
    min_prob:
        After selection, shed the task anyway when the *chosen*
        assignment's ``prob_on_time`` is below this floor — admitting
        work that will almost surely be late wastes energy that
        on-time-capable tasks need (probabilistic task pruning).
    dispatch_prob:
        When a core frees up, drop each queued task whose probability
        of finishing by its deadline if started now is below this floor
        before starting the next one.  A drop counts as lost, like a
        mapped task killed by an outage.
    defer:
        When the queue-depth or budget threshold trips, re-try the
        arrival this many simulated seconds later instead of dropping it
        immediately (``None`` drops at once).  Requires ``queue_depth``
        or ``budget_frac``: no other check defers.
    max_defers:
        Deferrals per task before it is shed for good.
    """

    queue_depth: float | None = None
    budget_frac: float | None = None
    min_prob: float | None = None
    dispatch_prob: float | None = None
    defer: float | None = None
    max_defers: int = 3

    def __post_init__(self) -> None:
        if self.queue_depth is not None and not (self.queue_depth >= 0.0):
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.budget_frac is not None and not (0.0 <= self.budget_frac <= 1.0):
            raise ValueError(f"budget_frac must be in [0, 1], got {self.budget_frac}")
        if self.min_prob is not None and not (0.0 <= self.min_prob <= 1.0):
            raise ValueError(f"min_prob must be in [0, 1], got {self.min_prob}")
        if self.dispatch_prob is not None and not (0.0 <= self.dispatch_prob <= 1.0):
            raise ValueError(f"dispatch_prob must be in [0, 1], got {self.dispatch_prob}")
        if self.defer is not None and not (self.defer > 0.0):
            raise ValueError(f"defer must be positive, got {self.defer}")
        if self.defer is not None and self.queue_depth is None and self.budget_frac is None:
            # Only queue-depth and budget trips defer; anything else
            # would silently run without the deferral asked for.
            raise ValueError("defer needs queue_depth or budget_frac")
        if self.max_defers < 0:
            raise ValueError(f"max_defers must be >= 0, got {self.max_defers}")

    @property
    def screens_arrivals(self) -> bool:
        """Whether an admission check (queue depth, budget, rho floor) is set."""
        return (
            self.queue_depth is not None
            or self.budget_frac is not None
            or self.min_prob is not None
        )

    @property
    def enabled(self) -> bool:
        """Whether any check is active."""
        return self.screens_arrivals or self.dispatch_prob is not None


class AdmissionController:
    """Stateful load-shedder: decides admit / defer / shed per arrival.

    The pre-mapping checks (queue depth, budget level) run before any
    candidate scoring, so a shed arrival costs nothing; the
    ``min_prob`` floor is applied by the engine *after* selection, when
    the chosen assignment's on-time probability is known.  Deferral
    state is per task id and bounded by the number of in-flight
    deferrals, so memory stays O(deferred tasks).
    """

    __slots__ = ("config", "_defers")

    def __init__(self, config: SheddingConfig) -> None:
        self.config = config
        self._defers: dict[int, int] = {}

    def admit(
        self, task_id: int, queue_depth: float, budget_frac: float | None
    ) -> tuple[str, str]:
        """Pre-mapping decision: ``("admit"|"defer"|"shed", cause)``."""
        cfg = self.config
        cause = ""
        if cfg.queue_depth is not None and queue_depth > cfg.queue_depth:
            cause = SHED_QUEUE_DEPTH
        elif (
            cfg.budget_frac is not None
            and budget_frac is not None
            and budget_frac < cfg.budget_frac
        ):
            cause = SHED_BUDGET
        if not cause:
            self._defers.pop(task_id, None)
            return "admit", ""
        if cfg.defer is not None:
            seen = self._defers.get(task_id, 0)
            if seen < cfg.max_defers:
                self._defers[task_id] = seen + 1
                return "defer", cause
        self._defers.pop(task_id, None)
        return "shed", cause

    def below_prob_floor(self, prob: float) -> bool:
        """Post-selection check: chosen assignment under the rho floor."""
        return self.config.min_prob is not None and prob < self.config.min_prob

    def settle(self, task_id: int) -> None:
        """Forget deferral state after a terminal disposition."""
        self._defers.pop(task_id, None)


@dataclass
class FaultStats:
    """Mutable counters over fault and shedding activity in one run.

    Kept *outside* :class:`~repro.sim.results.TrialResult` on purpose:
    manifest trial digests hash the result's scalars, and a zero-fault
    run must stay digest-identical to the pre-fault baseline.
    """

    outages: int = 0
    recoveries: int = 0
    slowdowns: int = 0
    orphaned: int = 0
    remapped: int = 0
    lost: int = 0
    shed: int = 0
    deferred: int = 0

    def to_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def any_activity(self) -> bool:
        """Whether any counter is nonzero."""
        return any(getattr(self, f.name) for f in fields(self))
