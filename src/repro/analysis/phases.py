"""Per-arrival-phase breakdown of trial outcomes.

The workload's three phases (early burst / lull / late burst) fail for
different reasons: bursts miss by congestion, the late burst additionally
misses by budget exhaustion when the early phases overspent.  These
helpers attribute each task's outcome to its phase — the diagnostic view
behind the paper's Section VII explanations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import WorkloadConfig
from repro.sim.results import TrialResult
from repro.workload.arrivals import phase_of_task

__all__ = ["PhaseBreakdown", "phase_breakdown"]

_PHASES = ("head", "lull", "tail")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Counts of one phase's tasks by outcome."""

    phase: str
    total: int
    completed: int
    late: int
    discarded: int
    energy_cutoff: int

    @property
    def missed(self) -> int:
        """Total missed tasks in the phase."""
        return self.late + self.discarded + self.energy_cutoff

    @property
    def miss_fraction(self) -> float:
        """Missed tasks over phase size."""
        return self.missed / self.total if self.total else 0.0

    def __str__(self) -> str:
        return (
            f"{self.phase}: {self.missed}/{self.total} missed "
            f"(late {self.late}, discarded {self.discarded}, "
            f"cutoff {self.energy_cutoff})"
        )


def phase_breakdown(
    result: TrialResult, workload_cfg: WorkloadConfig
) -> dict[str, PhaseBreakdown]:
    """Attribute a trial's outcomes to arrival phases.

    Requires per-task outcomes (run the trial with ``keep_outcomes`` or
    via :meth:`repro.sim.engine.Engine.run`, which keeps them by default).
    """
    if len(result.outcomes) != result.num_tasks:
        raise ValueError("result lacks per-task outcomes")
    counts = {
        p: {"total": 0, "completed": 0, "late": 0, "discarded": 0, "cutoff": 0}
        for p in _PHASES
    }
    exhaustion = result.exhaustion_time
    for outcome in result.outcomes:
        phase = phase_of_task(workload_cfg, outcome.task_id)
        bucket = counts[phase]
        bucket["total"] += 1
        if outcome.discarded:
            bucket["discarded"] += 1
        elif not outcome.on_time():
            bucket["late"] += 1
        elif outcome.completion > exhaustion:
            bucket["cutoff"] += 1
        else:
            bucket["completed"] += 1
    return {
        p: PhaseBreakdown(
            phase=p,
            total=c["total"],
            completed=c["completed"],
            late=c["late"],
            discarded=c["discarded"],
            energy_cutoff=c["cutoff"],
        )
        for p, c in counts.items()
    }
