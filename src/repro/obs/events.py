"""Typed structured events emitted by an observed trial.

Every event is a small frozen dataclass with a class-level ``kind``
string.  ``event_to_dict`` / ``event_from_dict`` give a stable JSON
round-trip (the JSONL trace format written by
:class:`~repro.obs.sinks.JsonlSink` and read back by
:func:`repro.io.trace_io.load_trace`).

Trial-level events are only ever constructed inside
:class:`~repro.obs.hooks.ObservingHooks`; with no hooks attached the
engine allocates none of them.  The ensemble-level recovery events
(``TrialRetried``, ``TrialQuarantined``, ``CheckpointWritten``) are
emitted by :mod:`repro.experiments.executor` in the parent process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Union

__all__ = [
    "Event",
    "TrialStarted",
    "TaskMapped",
    "TaskDiscarded",
    "TaskCompleted",
    "EnergyExhausted",
    "TrialFinished",
    "TrialRetried",
    "TrialQuarantined",
    "CheckpointWritten",
    "FaultInjected",
    "TaskOrphaned",
    "TaskShed",
    "AlertFired",
    "AlertResolved",
    "EVENT_KINDS",
    "event_to_dict",
    "event_from_dict",
]

#: Discard cause recorded when filtering leaves no feasible assignment.
CAUSE_EMPTY_FEASIBLE = "empty_feasible_set"


@dataclass(frozen=True, slots=True)
class TrialStarted:
    """Emitted once before the first simulation event of a trial."""

    kind: ClassVar[str] = "trial_started"

    seed: int
    num_tasks: int
    heuristic: str
    variant: str
    budget: float


@dataclass(frozen=True, slots=True)
class TaskMapped:
    """A task was committed to a (core, P-state) assignment.

    ``energy_estimate`` is the heuristic's remaining-energy estimate
    ``zeta(t_l)`` *after* subtracting this assignment's EEC.
    """

    kind: ClassVar[str] = "task_mapped"

    t: float
    task_id: int
    type_id: int
    core_id: int
    pstate: int
    energy_estimate: float
    queue_depth: float


@dataclass(frozen=True, slots=True)
class TaskDiscarded:
    """Filtering left no feasible assignment."""

    kind: ClassVar[str] = "task_discarded"

    t: float
    task_id: int
    type_id: int
    cause: str = CAUSE_EMPTY_FEASIBLE


@dataclass(frozen=True, slots=True)
class TaskCompleted:
    """A running task's sampled execution time elapsed."""

    kind: ClassVar[str] = "task_completed"

    t: float
    task_id: int
    type_id: int
    core_id: int


@dataclass(frozen=True, slots=True)
class EnergyExhausted:
    """Cumulative consumed energy crossed the budget at time ``t``.

    Exhaustion is a ledger quantity computed after the run (DESIGN.md
    §4.4), so this event is emitted at trial end, not mid-stream.
    """

    kind: ClassVar[str] = "energy_exhausted"

    t: float
    budget: float


@dataclass(frozen=True, slots=True)
class TrialFinished:
    """Emitted once after scoring, mirroring the TrialResult scalars."""

    kind: ClassVar[str] = "trial_finished"

    makespan: float
    missed: int
    completed_within: int
    discarded: int
    late: int
    energy_cutoff: int
    total_energy: float


@dataclass(frozen=True, slots=True)
class TrialRetried:
    """The supervised executor is re-running a trial after a fault.

    ``attempt`` is the 1-based attempt that failed; ``fault`` is one of
    the executor's fault kinds (``crash``, ``timeout``, ``corrupt``,
    ``error``); ``delay`` is the backoff (seconds) before the retry.
    """

    kind: ClassVar[str] = "trial_retried"

    trial: int
    attempt: int
    fault: str
    delay: float


@dataclass(frozen=True, slots=True)
class TrialQuarantined:
    """A trial exhausted its retry budget and was set aside as poison.

    The ensemble continues without it; the resulting
    ``PartialEnsembleResult`` names the trial as missing.
    """

    kind: ClassVar[str] = "trial_quarantined"

    trial: int
    attempts: int
    fault: str


@dataclass(frozen=True, slots=True)
class CheckpointWritten:
    """One completed trial's results were appended to a checkpoint shard.

    ``records`` counts the records this process has written to ``path``
    so far (resume appends, so the shard may hold more overall).
    """

    kind: ClassVar[str] = "checkpoint_written"

    trial: int
    path: str
    records: int


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """An in-simulation fault transition fired (fail or recover).

    ``fault`` is the :class:`~repro.faults.FaultEvent` kind
    (``node_outage``/``core_outage``/``node_slowdown``), ``action`` is
    ``"fail"`` or ``"recover"``, ``target`` the node index or flat core
    id, and ``cores`` how many cores the transition covers.
    """

    kind: ClassVar[str] = "fault_injected"

    t: float
    fault: str
    action: str
    target: int
    cores: int


@dataclass(frozen=True, slots=True)
class TaskOrphaned:
    """A mapped task left ``core_id`` without completing there.

    ``disposition`` is ``"remapped"`` (displaced by an outage, re-placed
    on a surviving core), ``"lost"`` (displaced, nowhere to go),
    ``"killed"`` (running task terminated under the ``"lost"`` policy)
    or ``"dropped"`` (queued task below the ``dispatch_prob`` floor when
    its core freed up).
    """

    kind: ClassVar[str] = "task_orphaned"

    t: float
    task_id: int
    type_id: int
    core_id: int
    disposition: str


@dataclass(frozen=True, slots=True)
class TaskShed:
    """The admission controller deferred or dropped an arrival.

    ``cause`` is the tripped threshold (``queue_depth``/``budget``/
    ``min_prob``); ``deferred`` is true for a retry-later push (the
    task is not yet terminal) and false for a terminal drop.
    """

    kind: ClassVar[str] = "task_shed"

    t: float
    task_id: int
    type_id: int
    cause: str
    deferred: bool


@dataclass(frozen=True, slots=True)
class AlertFired:
    """An SLO rule breached for its required number of windows.

    ``rule`` is the canonical rule spec (e.g. ``"on_time_prob<0.9:3"``),
    ``value`` the metric value of the tripping window, ``window_index``
    the 0-based index of that window, and ``streak`` how many
    consecutive windows have breached.  Emitted by
    :class:`repro.obs.telemetry.Telemetry` at window close.
    """

    kind: ClassVar[str] = "alert_fired"

    t: float
    rule: str
    metric: str
    value: float
    window_index: int
    streak: int


@dataclass(frozen=True, slots=True)
class AlertResolved:
    """A previously firing SLO rule saw a non-breaching window."""

    kind: ClassVar[str] = "alert_resolved"

    t: float
    rule: str
    metric: str
    window_index: int


Event = Union[
    TrialStarted,
    TaskMapped,
    TaskDiscarded,
    TaskCompleted,
    EnergyExhausted,
    TrialFinished,
    TrialRetried,
    TrialQuarantined,
    CheckpointWritten,
    FaultInjected,
    TaskOrphaned,
    TaskShed,
    AlertFired,
    AlertResolved,
]

#: kind string -> event class, for deserialization.
EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        TrialStarted,
        TaskMapped,
        TaskDiscarded,
        TaskCompleted,
        EnergyExhausted,
        TrialFinished,
        TrialRetried,
        TrialQuarantined,
        CheckpointWritten,
        FaultInjected,
        TaskOrphaned,
        TaskShed,
        AlertFired,
        AlertResolved,
    )
}


def event_to_dict(event: Event) -> dict[str, Any]:
    """Serialize an event to a plain dict with its ``kind`` tag first."""
    data: dict[str, Any] = {"kind": event.kind}
    data.update(asdict(event))
    return data


def event_from_dict(data: dict[str, Any]) -> Event:
    """Rebuild an event from :func:`event_to_dict` output.

    Unknown keys are rejected (they indicate a schema drift the reader
    should not silently swallow); unknown kinds and non-objects raise
    ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"not an event object ({type(data).__name__})")
    kind = data.get("kind")
    cls = EVENT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    payload = {k: v for k, v in data.items() if k != "kind"}
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown fields for {kind!r}: {sorted(unknown)}")
    return cls(**payload)
