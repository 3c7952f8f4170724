"""Robustness aggregation (paper Eqs. 3 and 4).

The robustness of an allocation at time-step ``t_l`` is the expected
number of tasks completing by their individual deadlines, predicted at
``t_l``.  Because tasks are independent and cores process independently,
the system value (Eq. 4) is the sum over cores of per-core values
(Eq. 3), each of which sums each queued/running task's probability of
finishing on time.

No program calls these functions: they are the scalar reference for
Eqs. 3 and 4 that the tests hold the model to.  The mapping hot path
only ever needs the marginal ``rho(i, j, k, pi, t_l, z)`` of the task
being placed, which :mod:`repro.robustness.completion` provides
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.robustness.completion import running_completion_pmf
from repro.stoch.ops import convolve
from repro.stoch.pmf import PMF

__all__ = ["QueueEntry", "core_completion_pmfs", "core_robustness", "system_robustness"]


@dataclass(frozen=True)
class QueueEntry:
    """One task on a core, as the robustness model sees it.

    ``start_time`` is ``None`` for queued (not yet executing) tasks and
    the actual start time for the running task (which must be first).
    """

    exec_pmf: PMF
    deadline: float
    start_time: float | None = None


def core_completion_pmfs(entries: Sequence[QueueEntry], t_now: float) -> list[PMF]:
    """Completion-time pmf of every task on one core, in queue order.

    Implements the chained construction at the end of Section IV-B: the
    running task's distribution is shifted/truncated/renormalized; each
    subsequent task's completion pmf is the previous one convolved with
    its own execution-time pmf.
    """
    if not entries:
        return []
    first = entries[0]
    if first.start_time is None:
        raise ValueError("the first entry must be the running task (needs start_time)")
    if any(e.start_time is not None for e in entries[1:]):
        raise ValueError("only the first entry may be running")
    completions: list[PMF] = [running_completion_pmf(first.exec_pmf, first.start_time, t_now)]
    for entry in entries[1:]:
        completions.append(convolve(completions[-1], entry.exec_pmf))
    return completions


def core_robustness(entries: Sequence[QueueEntry], t_now: float) -> float:
    """Eq. 3: expected on-time completions among one core's tasks."""
    completions = core_completion_pmfs(entries, t_now)
    return sum(
        pmf.prob_at_most(entry.deadline) for pmf, entry in zip(completions, entries)
    )


def system_robustness(per_core_entries: Sequence[Sequence[QueueEntry]], t_now: float) -> float:
    """Eq. 4: system robustness ``rho(t_l)``, summed over all cores."""
    return sum(core_robustness(entries, t_now) for entries in per_core_entries if entries)
