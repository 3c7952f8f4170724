"""Task priorities (paper Section VIII: "tasks with varying priorities").

Pieces:

* :func:`with_priorities` stamps a workload's tasks with priority levels;
* :class:`PriorityLightestLoad` generalizes the LL heuristic: the load of
  Eq. 5 becomes ``EEC * (1 - rho) ** priority``, so high-priority tasks
  weight robustness more heavily against energy (for unit priorities this
  is exactly the paper's LL).  Note that merely *dividing* the load by
  the priority would be a no-op — a per-task constant cannot change that
  task's argmin — so the priority must reshape the energy/robustness
  trade-off, which the exponent does;
* :class:`PriorityEnergyFilter` scales the fair-share threshold by the
  task's priority relative to the workload's mean priority: important
  tasks may claim a larger slice of the remaining budget (and low-priority
  tasks a smaller one, keeping the total fair);
* :func:`weighted_missed` scores a trial by priority-weighted misses,
  the natural generalization of the paper's metric.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.config import FilterConfig
from repro.filters.energy_filter import EnergyFilter
from repro.heuristics.base import CandidateSet, Heuristic, MappingContext, argmin_lexicographic
from repro.sim.results import TrialResult
from repro.workload.workload import Workload

__all__ = [
    "with_priorities",
    "PriorityLightestLoad",
    "PriorityEnergyFilter",
    "weighted_missed",
]


def with_priorities(
    workload: Workload,
    rng: np.random.Generator,
    levels: Sequence[float] = (1.0, 2.0, 4.0),
    probabilities: Sequence[float] | None = None,
) -> Workload:
    """Return a copy of ``workload`` with random task priorities.

    ``levels`` are the priority values (higher = more important);
    ``probabilities`` their selection weights (uniform by default).
    """
    levels_arr = np.asarray(levels, dtype=np.float64)
    if levels_arr.size == 0 or np.any(levels_arr <= 0.0):
        raise ValueError("priority levels must be positive")
    if probabilities is not None:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != levels_arr.shape or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must align with levels and sum to 1")
    else:
        probs = None
    drawn = rng.choice(levels_arr, size=workload.num_tasks, p=probs)
    tasks = tuple(
        replace(task, priority=float(p)) for task, p in zip(workload.tasks, drawn)
    )
    return replace(workload, tasks=tasks)


class PriorityLightestLoad(Heuristic):
    """LL with priority-shaped load: ``EEC * (1 - rho) ** priority``.

    A priority of 1 reproduces the paper's LL exactly.  Larger priorities
    make the miss-probability factor dominate, pushing important tasks
    toward faster/more-robust assignments even when they cost more energy;
    priorities below 1 do the reverse.
    """

    name = "LL-prio"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the minimum priority-shaped load."""
        miss = np.clip(1.0 - cands.feasible_rho(), 1e-12, 1.0)
        load = cands.eec * np.power(miss, ctx.task.priority)
        return argmin_lexicographic(cands.mask, load)


class PriorityEnergyFilter(EnergyFilter):
    """Energy filter whose fair share scales with task priority.

    ``zeta_fair`` is multiplied by ``priority / mean_priority``: a 4x
    task in a workload of mean priority 2 may spend twice the plain fair
    share, while a 1x task gets half.  With uniform priorities this is
    exactly the paper's filter.
    """

    label = "en-prio"

    def __init__(self, config: FilterConfig | None = None, mean_priority: float = 1.0) -> None:
        super().__init__(config)
        if mean_priority <= 0.0:
            raise ValueError("mean_priority must be positive")
        self.mean_priority = float(mean_priority)

    @classmethod
    def for_workload(
        cls, workload: Workload, config: FilterConfig | None = None
    ) -> "PriorityEnergyFilter":
        """Construct with ``mean_priority`` measured from a workload."""
        mean_p = float(np.mean([t.priority for t in workload.tasks]))
        return cls(config, mean_priority=mean_p)

    def fair_share(self, ctx: MappingContext) -> float:
        """Plain fair share scaled by priority over the mean priority."""
        base = super().fair_share(ctx)
        return base * ctx.task.priority / self.mean_priority


def weighted_missed(result: TrialResult, workload: Workload) -> float:
    """Priority-weighted missed work, normalized to total priority mass.

    0.0 means every task counted; 1.0 means no priority-weighted value
    was delivered.  Requires the trial to have been run with
    ``keep_outcomes`` (outcome tuples present).
    """
    if len(result.outcomes) != workload.num_tasks:
        raise ValueError("result lacks per-task outcomes; run with keep_outcomes")
    exhaustion = result.exhaustion_time
    total = 0.0
    lost = 0.0
    for task, outcome in zip(workload.tasks, result.outcomes):
        total += task.priority
        counted = outcome.on_time() and outcome.completion <= exhaustion
        if not counted:
            lost += task.priority
    return lost / total if total > 0 else 0.0
