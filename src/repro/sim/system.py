"""Building the Section VI simulation environment for one trial.

A :class:`TrialSystem` bundles everything that is *shared across the 16
(heuristic, filter) variants of a trial*: the sampled cluster, the CVB
ETC matrix, the execution-time pmf table, the task stream, and the energy
budget.  The experiment runner builds it once per trial seed and hands it
to one :class:`~repro.sim.engine.Engine` per variant, giving the paired
comparisons the paper's box plots rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import rng as rng_mod
from repro.cluster.cluster import ClusterSpec
from repro.cluster.generator import generate_cluster
from repro.config import SimulationConfig
from repro.workload.cvb import cvb_etc_matrix
from repro.workload.etc_matrix import ETCMatrix
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.workload import Workload, build_workload

__all__ = ["TrialSystem", "build_trial_system"]


@dataclass(frozen=True)
class TrialSystem:
    """The generated environment of one simulation trial.

    Attributes
    ----------
    budget:
        The energy constraint ``zeta_max = budget_mult * t_avg * p_avg *
        num_tasks`` — "the energy required to execute an average task one
        thousand times" with the paper's defaults.
    exec_luck:
        One uniform draw per task.  A task's *actual* execution time is
        the ``exec_luck[z]`` quantile of whichever pmf its assignment
        selects, so a task keeps the same "luck" across heuristic
        variants even though its placement differs — maximizing the
        pairing of variant comparisons within a trial.
    """

    config: SimulationConfig
    cluster: ClusterSpec
    etc: ETCMatrix
    table: ExecutionTimeTable
    workload: Workload
    budget: float
    exec_luck: np.ndarray

    @property
    def num_tasks(self) -> int:
        """Tasks in the trial."""
        return self.workload.num_tasks

    @property
    def p_avg(self) -> float:
        """Eq. 8: mean per-core power over nodes and P-states."""
        return self.cluster.mean_power()

    @property
    def t_avg(self) -> float:
        """Mean execution time over types, nodes and P-states."""
        return self.workload.t_avg


def build_trial_system(config: SimulationConfig) -> TrialSystem:
    """Generate the full environment from ``config.seed``.

    Sub-streams ("cluster", "etc", task types, arrivals, "exec-luck") are
    independent, so e.g. enlarging the cluster does not perturb the
    workload draw.
    """
    seed = config.seed
    cluster = generate_cluster(config.cluster, rng_mod.stream(seed, "cluster"))
    etc = ETCMatrix(
        cvb_etc_matrix(
            config.workload.num_task_types,
            cluster.num_nodes,
            config.workload.mu_task,
            config.workload.v_task,
            config.workload.v_mach,
            rng_mod.stream(seed, "etc"),
        )
    )
    table = ExecutionTimeTable(etc, cluster, config.grid, config.workload.exec_cv)
    workload = build_workload(config.workload, table, seed)
    budget = (
        config.energy.budget_mult * workload.t_avg * cluster.mean_power() * workload.num_tasks
    )
    exec_luck = rng_mod.stream(seed, "exec-luck").random(workload.num_tasks)
    exec_luck.setflags(write=False)
    return TrialSystem(
        config=config,
        cluster=cluster,
        etc=etc,
        table=table,
        workload=workload,
        budget=budget,
        exec_luck=exec_luck,
    )
