"""Stochastic completion-time machinery (paper Section IV-B).

Predicting the completion time of a task ``z`` placed on core ``k`` at
time-step ``t_l`` combines three distributions:

1. the *running* task's completion time — its execution-time pmf shifted
   by its start time, with past impulses removed and the remainder
   renormalized;
2. the execution-time pmfs of tasks already queued on the core, convolved
   in order;
3. the execution-time pmf of ``z`` itself in its candidate P-state.

(1) ⊛ (2) is the core's *ready-time* distribution; its convolution with
(3) is the completion-time distribution of ``z``.  The scheduler's hot
path never materializes that final convolution: the probability of an
on-time completion is a single dot product against the ready-time CDF
(:func:`prob_on_time`), and the expected completion time is a sum of
means (linearity of expectation).
"""

from __future__ import annotations

from typing import Sequence

from repro.stoch.ops import convolve, convolve_many, prob_sum_at_most, shift, truncate_below
from repro.stoch.pmf import PMF

__all__ = [
    "running_completion_pmf",
    "ready_pmf",
    "completion_pmf",
    "prob_on_time",
]


def running_completion_pmf(exec_pmf: PMF, start_time: float, t_now: float) -> PMF:
    """Completion-time pmf of the currently-executing task, seen at ``t_now``.

    Shift the execution-time distribution by the start time, delete
    impulses in the past, renormalize (Section IV-B).  If the task is
    overdue relative to its own distribution the prediction degenerates to
    "completes now".
    """
    if t_now < start_time:
        raise ValueError("t_now precedes the task's start time")
    return truncate_below(shift(exec_pmf, start_time), t_now)


def ready_pmf(
    running: PMF | None,
    queued_exec_pmfs: Sequence[PMF],
    t_now: float,
    dt: float,
) -> PMF:
    """Distribution of the time the core becomes free for a new task.

    ``running`` is the (already truncated) completion pmf of the executing
    task, or ``None`` when the core is idle — in which case the core is
    ready immediately and the result is degenerate at ``t_now``.
    """
    if running is None:
        if queued_exec_pmfs:
            raise ValueError("an idle core cannot have queued tasks")
        return PMF.delta(t_now, dt)
    if not queued_exec_pmfs:
        return running
    return convolve(running, convolve_many(list(queued_exec_pmfs)))


def completion_pmf(ready: PMF, exec_pmf: PMF) -> PMF:
    """Completion-time pmf of a candidate task given the core's ready pmf."""
    return convolve(ready, exec_pmf)


def prob_on_time(ready: PMF, exec_pmf: PMF, deadline: float) -> float:
    """``rho(i, j, k, pi, t_l, z)``: probability ``z`` meets its deadline.

    Computed without convolution as ``sum_x P[X=x] * F_ready(d - x)``.
    """
    return prob_sum_at_most(ready, exec_pmf, deadline)
