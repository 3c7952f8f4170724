"""Robustness model (paper Section IV).

An allocation is *robust* if it completes all tasks by their individual
deadlines; it is robust *against* uncertainty in task execution times; and
its robustness is *quantified* as the expected number of tasks completing
on time (the three questions of [AlM08]).

:mod:`repro.robustness.completion` builds the stochastic completion-time
distributions of Section IV-B (shift / truncate / renormalize / convolve),
and :mod:`repro.robustness.robustness` aggregates per-task on-time
probabilities into the core-level and system-level robustness values of
Eqs. 3 and 4.
"""

from repro.robustness.completion import (
    completion_pmf,
    prob_on_time,
    ready_pmf,
    running_completion_pmf,
)
from repro.robustness.robustness import (
    QueueEntry,
    core_completion_pmfs,
    core_robustness,
    system_robustness,
)

__all__ = [
    "completion_pmf",
    "prob_on_time",
    "ready_pmf",
    "running_completion_pmf",
    "QueueEntry",
    "core_completion_pmfs",
    "core_robustness",
    "system_robustness",
]
