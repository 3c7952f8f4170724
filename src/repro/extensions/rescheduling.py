"""Task rescheduling via work stealing (paper Section VIII).

The baseline model maps irrevocably; the paper's future work asks what
"the ability to cancel and/or reschedule tasks" buys.  This extension
implements the natural rescheduling policy for a FIFO-core cluster:
**work stealing**.  Whenever a core completes a task and has nothing left
to do, it pulls the tail task from the most backlogged core — but only if
starting it here, now, raises the task's probability of meeting its
deadline above what it faces where it queues.

Stolen tasks keep their P-state *index*; the execution-time pmf is
re-resolved for the thief's node (the engine adjusts the scheduler's
energy estimate by the EEC delta).
"""

from __future__ import annotations

from repro.robustness.completion import prob_on_time
from repro.sim.engine import Engine, EngineHooks
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = ["WorkStealingPolicy"]


class WorkStealingPolicy(EngineHooks):
    """Engine subscriber: idle cores steal backlogged work.

    Parameters
    ----------
    min_gain:
        Required improvement in the stolen task's on-time probability
        (thief's estimate minus victim's estimate) for a steal to
        proceed.  Small positive values avoid thrash on noise.

    Attributes
    ----------
    steals:
        ``(task_id, from_core, to_core)`` triples, in steal order.
    """

    def __init__(self, min_gain: float = 0.02) -> None:
        if not (0.0 <= min_gain <= 1.0):
            raise ValueError("min_gain must be a probability delta in [0, 1]")
        self.min_gain = float(min_gain)
        self.steals: list[tuple[int, int, int]] = []

    def on_completion(self, engine: Engine, core_id: int, task: Task, t_now: float) -> None:
        """Steal for the just-freed core when it would otherwise idle."""
        thief = engine.cores[core_id]
        if thief.queue:
            return  # the core has local work; the engine starts it next

        victim = None
        for candidate in engine.cores:
            if candidate.core_id == core_id or not candidate.queue:
                continue
            if victim is None or candidate.assigned_count > victim.assigned_count:
                victim = candidate
        if victim is None or victim.assigned_count < 3:
            return  # nothing worth stealing: victims keep short backlogs

        entry = victim.queue[-1]  # tail: least disruptive to the FIFO
        stolen = entry.task
        # Victim-side estimate: completion behind everything ahead of it.
        victim_ready_without_tail = _ready_excluding_tail(victim, t_now)
        p_stay = prob_on_time(victim_ready_without_tail, entry.exec_pmf, stolen.deadline)
        # Thief-side estimate: starts immediately on this core.
        thief_pmf = engine.system.table.pmf(
            stolen.type_id, thief.node_index, entry.pstate
        )
        p_move = prob_on_time(
            PMF.delta(t_now, thief.dt), thief_pmf, stolen.deadline
        )
        if p_move < p_stay + self.min_gain:
            return
        if engine.move_queued(victim.core_id, stolen.task_id, core_id, entry.pstate):
            self.steals.append((stolen.task_id, victim.core_id, core_id))


def _ready_excluding_tail(core, t_now: float) -> PMF:
    """Ready-time pmf of a core as seen by its own *tail* queued task."""
    from repro.robustness.completion import ready_pmf, running_completion_pmf

    running = core.running
    assert running is not None and core.queue
    ahead = [e.exec_pmf for e in list(core.queue)[:-1]]
    running_c = running_completion_pmf(running.exec_pmf, running.start_time, t_now)
    return ready_pmf(running_c, ahead, t_now, core.dt)
