"""Task cancellation (paper Section VIII: "cancel and/or reschedule").

The baseline model executes every mapped task to completion even when it
has already missed its deadline.  :class:`AbandonHopelessPolicy` relaxes
that for *queued* tasks only (running tasks still finish, matching the
paper's "cannot stop a task after it has been scheduled" reading for
in-flight work): whenever a core completes a task, queued tasks whose
probability of on-time completion has fallen below a threshold are
abandoned, freeing core time and energy for tasks that can still count.
"""

from __future__ import annotations

from repro.robustness.completion import prob_on_time
from repro.sim.engine import Engine, EngineHooks
from repro.stoch.ops import convolve
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = ["AbandonHopelessPolicy"]


class AbandonHopelessPolicy(EngineHooks):
    """Engine subscriber that drops hopeless queued tasks.

    Parameters
    ----------
    min_prob:
        Queued tasks whose on-time probability (given the queue ahead of
        them) is below this are cancelled.  ``0.0`` disables cancellation
        of anything that is not already past its deadline.

    Attributes
    ----------
    cancelled:
        Task ids this policy abandoned, in cancellation order.
    """

    def __init__(self, min_prob: float = 0.05) -> None:
        if not (0.0 <= min_prob <= 1.0):
            raise ValueError("min_prob must be a probability")
        self.min_prob = float(min_prob)
        self.cancelled: list[int] = []

    def on_completion(self, engine: Engine, core_id: int, task: Task, t_now: float) -> None:
        """Re-evaluate the completing core's queue and abandon lost causes.

        The core is momentarily idle (the engine starts the next task
        after this hook), so the first queued task would start at
        ``t_now``; completion pmfs chain by convolution from there.
        """
        core = engine.cores[core_id]
        if not core.queue:
            return
        ready: PMF = PMF.delta(t_now, core.dt)
        doomed: list[int] = []
        for entry in core.queue:
            if entry.task.deadline < t_now:
                doomed.append(entry.task.task_id)
                continue
            p = prob_on_time(ready, entry.exec_pmf, entry.task.deadline)
            if p < self.min_prob:
                doomed.append(entry.task.task_id)
                continue
            # Survivors consume core time ahead of later entries.
            ready = convolve(ready, entry.exec_pmf)
        for task_id in doomed:
            if engine.cancel_queued(core_id, task_id):
                self.cancelled.append(task_id)
