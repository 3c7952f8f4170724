"""The per-core reference candidate builder: the parity oracle.

:func:`build_candidate_set` assembles an arrival's candidate set with
one plain pass over every core.  The engine never runs it; it is the
ground truth that :class:`~repro.sim.mapper.CandidateBuilder`'s batched,
deduplicated arrays must match bit for bit (``tests/perf/test_parity.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.heuristics.base import CandidateSet
from repro.robustness.completion import prob_on_time_all_pstates
from repro.sim.state import CoreState
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = ["build_candidate_set"]


def build_candidate_set(
    task: Task,
    cores: Sequence[CoreState],
    table: ExecutionTimeTable,
    t_now: float,
) -> CandidateSet:
    """Assemble the :class:`~repro.heuristics.base.CandidateSet` for ``task``.

    Reference implementation: one pass over every core.  The engine runs
    the equivalent (and faster) :class:`~repro.sim.mapper.CandidateBuilder`.
    """
    cluster = table.cluster
    C = cluster.num_cores
    P = cluster.num_pstates
    core_node = cluster.core_node_index

    eet_np = table.eet[task.type_id]  # (N, P)
    eec_np = table.eec[task.type_id]  # (N, P)
    eet = eet_np[core_node]  # (C, P)
    eec = eec_np[core_node]

    ready_means = np.empty(C)
    prob = np.empty((C, P))
    queue_len = np.empty(C, dtype=np.int64)
    for c in range(C):
        core = cores[c]
        ready = core.ready_pmf(t_now)
        ready_means[c] = ready.mean()
        pad = table.padded(task.type_id, core.node_index)
        prob[c] = prob_on_time_all_pstates(ready, pad.times, pad.probs, task.deadline)
        queue_len[c] = core.assigned_count

    ect = ready_means[:, None] + eet

    core_ids = np.repeat(np.arange(C), P)
    pstates = np.tile(np.arange(P), C)
    return CandidateSet(
        core_ids=core_ids,
        pstates=pstates,
        queue_len=np.repeat(queue_len, P),
        eet=eet.ravel(),
        eec=eec.ravel(),
        ect=ect.ravel(),
        prob_on_time=prob.ravel(),
    )
