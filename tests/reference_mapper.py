"""The per-core reference candidate builder: the parity oracle.

:func:`build_candidate_set` assembles an arrival's candidate set with
one plain pass over every core.  The engine never runs it; it is the
ground truth that :class:`~repro.sim.mapper.CandidateBuilder`'s batched
arrays must match bit for bit (``tests/perf/test_parity.py``).

Each core's ready pmf is composed from scratch out of the core's
running task and queue with :mod:`repro.robustness.completion` — never
read from the core's own cache or its resident row — so the oracle
checks the engine's ready-pmf refresh too, not only the arithmetic
after it.  Its per-(type, node) impulse matrices are padded here
(:func:`padded`), from the table's pmfs alone, not read from the
builder's per-type arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.heuristics.base import CandidateSet
from repro.robustness.completion import ready_pmf, running_completion_pmf
from repro.sim.state import CoreState
from repro.stoch.pmf import PMF
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = [
    "PaddedPMFMatrix",
    "build_candidate_set",
    "padded",
    "prob_on_time_all_pstates",
    "reference_ready_pmf",
]


@dataclass(frozen=True)
class PaddedPMFMatrix:
    """All P-state pmfs of one (type, node) pair as padded 2-D arrays.

    Rows are P-states; padding entries carry zero probability (their time
    values repeat the row's last impulse so array math stays finite).
    """

    times: np.ndarray  # (num_pstates, L)
    probs: np.ndarray  # (num_pstates, L)


def padded(table: ExecutionTimeTable, type_id: int, node: int) -> PaddedPMFMatrix:
    """Padded per-P-state impulse matrices of a (type, node) pair."""
    cell = [table.pmf(type_id, node, pi) for pi in range(table.cluster.num_pstates)]
    length = max(len(p) for p in cell)
    times = np.empty((len(cell), length))
    probs = np.zeros((len(cell), length))
    for pi, pmf in enumerate(cell):
        n = len(pmf)
        times[pi, :n] = pmf.times
        times[pi, n:] = pmf.stop
        probs[pi, :n] = pmf.probs
    times.setflags(write=False)
    probs.setflags(write=False)
    return PaddedPMFMatrix(times=times, probs=probs)


def reference_ready_pmf(core: CoreState, t_now: float) -> PMF:
    """``core``'s ready pmf at ``t_now``, composed from its tasks alone."""
    running = core.running
    if running is None:
        return ready_pmf(None, [], t_now, core.dt)
    return ready_pmf(
        running_completion_pmf(running.exec_pmf, running.start_time, t_now),
        [entry.exec_pmf for entry in core.queue],
        t_now,
        core.dt,
    )


def prob_on_time_all_pstates(
    ready: PMF,
    times_matrix: np.ndarray,
    probs_matrix: np.ndarray,
    deadline: float,
) -> np.ndarray:
    """On-time probabilities for every P-state of one core in one pass.

    ``times_matrix``/``probs_matrix`` are one (type, node)'s P-state
    pmfs padded to a common width (rows = P-states; padded entries have
    zero probability and repeat the row's last impulse time).  Row ``pi``
    of the result equals ``prob_on_time(ready, pmf[pi], deadline)``.
    """
    # Index of F_ready at (deadline - x) for each impulse time x:
    # k = floor((deadline - x - ready.start) / dt); k < 0 contributes 0.
    ks = np.floor((deadline - times_matrix - ready.start) / ready.dt + 1e-9).astype(np.int64)
    np.minimum(ks, ready.probs.size - 1, out=ks)
    np.maximum(ks, -1, out=ks)
    cdf = ready.cdf
    fr = np.where(ks >= 0, cdf[np.maximum(ks, 0)], 0.0)
    return np.einsum("pl,pl->p", probs_matrix, fr)


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
        ready = reference_ready_pmf(core, t_now)
        ready_means[c] = ready.mean()
        pad = padded(table, task.type_id, core.node_index)
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
