"""Discrete-event simulation of the cluster resource manager.

The engine replays one trial: tasks arrive (pre-scheduled Poisson events),
the immediate-mode mapper builds a vectorized candidate set, the filter
chain prunes it, the heuristic picks an assignment (or the task is
discarded), cores execute tasks FIFO with actual execution times drawn
from the corresponding pmfs, and the energy ledger tracks every P-state
transition (cores park idle between tasks; P-states change only while a
core is idle, per Section III-A).

Entry points:

* :func:`~repro.sim.system.build_trial_system` — generate the Section VI
  environment (cluster, ETC matrix, pmf table, workload, budget).
* :class:`~repro.sim.engine.Engine` — run one (heuristic, filter) variant
  over a trial system; returns a :class:`~repro.sim.results.TrialResult`.
"""

from repro.sim.system import TrialSystem, build_trial_system
from repro.sim.state import CoreState, QueuedTask, RollingEnergyBudget, RunningTask
from repro.sim.mapper import CandidateBuilder
from repro.sim.results import TaskOutcome, TrialResult
from repro.sim.engine import Engine, EngineHooks
from repro.sim.metrics import TraceCollector, WindowAccumulator, WindowStats

__all__ = [
    "TrialSystem",
    "build_trial_system",
    "CoreState",
    "QueuedTask",
    "RunningTask",
    "RollingEnergyBudget",
    "CandidateBuilder",
    "TaskOutcome",
    "TrialResult",
    "Engine",
    "EngineHooks",
    "TraceCollector",
    "WindowStats",
    "WindowAccumulator",
]
