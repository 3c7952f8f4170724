"""Trial outcome records.

The paper's figure of merit is the number of tasks *not* completed by
their individual deadlines within the energy constraint, out of 1,000.
:class:`TrialResult` decomposes that number into its three causes:

* ``discarded`` — the filter chain eliminated every assignment, so the
  task was never mapped;
* ``late`` — the task completed after its deadline;
* ``energy_cutoff`` — the task completed on time, but after the instant
  cumulative consumed energy crossed the budget, so it does not count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.energy import EnergyLedger
    from repro.sim.system import TrialSystem

__all__ = ["ON_TIME_TOL", "TaskOutcome", "TrialResult", "score_trial"]

#: Slack on the deadline comparison: a task completing at or before
#: ``deadline + ON_TIME_TOL`` is on time.
ON_TIME_TOL = 1e-9


@dataclass(frozen=True, slots=True, eq=False)
class TaskOutcome:
    """Per-task record of what the simulation did with one task.

    ``core_id``/``pstate``/``start``/``completion`` are ``-1``/``nan``
    for discarded tasks.  Equality is NaN-aware (two discarded outcomes
    of the same task compare equal), so identical trials compare equal.
    """

    task_id: int
    type_id: int
    arrival: float
    deadline: float
    core_id: int
    pstate: int
    start: float
    completion: float
    discarded: bool

    def on_time(self) -> bool:
        """Whether the task completed by its deadline."""
        return not self.discarded and self.completion <= self.deadline + ON_TIME_TOL

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskOutcome):
            return NotImplemented

        def feq(a: float, b: float) -> bool:
            return a == b or (math.isnan(a) and math.isnan(b))

        return (
            self.task_id == other.task_id
            and self.type_id == other.type_id
            and self.arrival == other.arrival
            and self.deadline == other.deadline
            and self.core_id == other.core_id
            and self.pstate == other.pstate
            and feq(self.start, other.start)
            and feq(self.completion, other.completion)
            and self.discarded == other.discarded
        )

    def __hash__(self) -> int:
        return hash((self.task_id, self.core_id, self.pstate, self.discarded))


@dataclass(frozen=True)
class TrialResult:
    """Aggregate result of one (heuristic, variant) run over one trial.

    Attributes
    ----------
    missed:
        The paper's metric — tasks not counted as completed
        (``discarded + late + energy_cutoff``).
    exhaustion_time:
        When cumulative consumed energy crossed the budget (``inf`` if it
        never did).
    makespan:
        Completion time of the last task (close of the ledger).
    """

    heuristic: str
    variant: str
    seed: int
    num_tasks: int
    missed: int
    completed_within: int
    discarded: int
    late: int
    energy_cutoff: int
    total_energy: float
    budget: float
    exhaustion_time: float
    makespan: float
    outcomes: tuple[TaskOutcome, ...]

    def __post_init__(self) -> None:
        if self.missed != self.discarded + self.late + self.energy_cutoff:
            raise ValueError("miss decomposition does not add up")
        if self.missed + self.completed_within != self.num_tasks:
            raise ValueError("missed + completed must cover all tasks")

    @property
    def miss_fraction(self) -> float:
        """Missed deadlines as a fraction of the workload."""
        return self.missed / self.num_tasks

    @property
    def label(self) -> str:
        """"HEURISTIC/variant" display label."""
        return f"{self.heuristic}/{self.variant}"

    def energy_utilization(self) -> float:
        """Consumed energy as a fraction of the budget."""
        return self.total_energy / self.budget if self.budget > 0 else float("nan")

    def completion_times(self) -> np.ndarray:
        """Completion times of non-discarded tasks (for analysis)."""
        return np.array(
            [o.completion for o in self.outcomes if not o.discarded], dtype=np.float64
        )


def score_trial(
    system: "TrialSystem",
    placements: Mapping[int, Any],
    ledger: "EnergyLedger",
    end_time: float,
    *,
    heuristic: str,
    variant: str,
) -> TrialResult:
    """Score a finished run over the system's whole workload.

    ``placements`` maps a task id to where and when it ran (anything
    with ``core_id``, ``pstate``, ``start`` and ``completion``); a task
    that is absent or maps to ``None`` was discarded.  An on-time
    completion after the ledger's budget-exhaustion instant is an
    energy cut-off (DESIGN.md §4.4).  ``end_time`` is the makespan.
    """
    exhaustion = ledger.exhaustion_time(system.budget)
    outcomes: list[TaskOutcome] = []
    discarded = late = cutoff = within = 0
    for task in system.workload.tasks:
        placed = placements.get(task.task_id)
        if placed is None:
            discarded += 1
            outcomes.append(
                TaskOutcome(
                    task_id=task.task_id,
                    type_id=task.type_id,
                    arrival=task.arrival,
                    deadline=task.deadline,
                    core_id=-1,
                    pstate=-1,
                    start=float("nan"),
                    completion=float("nan"),
                    discarded=True,
                )
            )
            continue
        outcome = TaskOutcome(
            task_id=task.task_id,
            type_id=task.type_id,
            arrival=task.arrival,
            deadline=task.deadline,
            core_id=placed.core_id,
            pstate=placed.pstate,
            start=placed.start,
            completion=placed.completion,
            discarded=False,
        )
        outcomes.append(outcome)
        if not outcome.on_time():
            late += 1
        elif outcome.completion > exhaustion:
            cutoff += 1
        else:
            within += 1
    return TrialResult(
        heuristic=heuristic,
        variant=variant,
        seed=system.config.seed,
        num_tasks=system.num_tasks,
        missed=discarded + late + cutoff,
        completed_within=within,
        discarded=discarded,
        late=late,
        energy_cutoff=cutoff,
        total_energy=ledger.total_energy(),
        budget=system.budget,
        exhaustion_time=exhaustion,
        makespan=end_time,
        outcomes=tuple(outcomes),
    )
