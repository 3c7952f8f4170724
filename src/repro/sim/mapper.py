"""Building the vectorized candidate set for one arriving task.

For a task of type ``tau`` arriving at ``t_l``, every (core, P-state)
pair is a potential assignment.  This module assembles the aligned arrays
of Section V-A quantities over all candidates in candidate order
(core-major, then P-state):

* ``EET`` and ``EEC`` come straight from the precomputed tables;
* ``ECT`` is the core's expected ready time plus EET (linearity of
  expectation over the convolution, so no pmf product is formed);
* ``rho`` (on-time probability) is one padded-matrix pass per core
  against the core's ready-time CDF.

:class:`CandidateBuilder` is the engine's one implementation.  It
precomputes the per-candidate coordinate arrays once per trial, shares a
single degenerate ready pmf across all idle cores, and deduplicates the
per-core probability rows by ``(node, ready pmf)`` — every idle core of
a node yields the same row, so a mostly-idle cluster computes a handful
of rows instead of one per core.  Its arithmetic expressions are those
of a plain per-core loop (``tests/reference_mapper.py``, the parity
oracle), so the results match that loop bit for bit
(``tests/perf/test_parity.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.heuristics.base import CandidateSet
from repro.sim.state import CoreState
from repro.stoch.pmf import PMF
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = ["CandidateBuilder"]


class CandidateBuilder:
    """Per-trial candidate-set builder with batched array construction.

    Bound to one core list and one execution-time table (both live for a
    whole trial), so the candidate coordinate arrays — identical for
    every arrival — are built once.  Per arrival it shares one
    degenerate ready pmf across all idle cores and computes one
    probability row per *distinct* ``(node, ready pmf)`` pair instead of
    one per core.  Output is bitwise identical to the per-core
    reference loop the parity tests hold it to.
    """

    __slots__ = (
        "_cores",
        "_table",
        "_num_cores",
        "_num_pstates",
        "_core_ids",
        "_pstates",
        "_dt",
        "_node_cores",
    )

    def __init__(self, cores: Sequence[CoreState], table: ExecutionTimeTable) -> None:
        self._cores = list(cores)
        self._table = table
        cluster = table.cluster
        if len(self._cores) != cluster.num_cores:
            raise ValueError("core list does not match the table's cluster")
        if any(core.dt != table.grid.dt for core in self._cores):
            raise ValueError("every core must use the table's grid step")
        self._num_cores = cluster.num_cores
        self._num_pstates = cluster.num_pstates
        core_ids = np.repeat(np.arange(self._num_cores), self._num_pstates)
        pstates = np.tile(np.arange(self._num_pstates), self._num_cores)
        core_ids.setflags(write=False)
        pstates.setflags(write=False)
        self._core_ids = core_ids
        self._pstates = pstates
        self._dt = table.grid.dt
        # Cores grouped by node: collecting distinct ready pmfs in node
        # order keeps each node's rows contiguous, so the per-node dot
        # can run on array slices without gather copies.
        grouped: dict[int, list[int]] = {}
        for c, core in enumerate(self._cores):
            grouped.setdefault(core.node_index, []).append(c)
        self._node_cores: list[tuple[int, list[int]]] = list(grouped.items())

    def build(self, task: Task, t_now: float) -> CandidateSet:
        """Assemble the candidate set for one arrival at ``t_now``."""
        cores = self._cores
        C = self._num_cores
        P = self._num_pstates
        dt = self._dt
        deadline = task.deadline
        type_id = task.type_id

        # Per-type gathers memoized on the table: identical values to the
        # per-arrival lookups of the reference loop, shared read-only
        # across arrivals and across every builder over the table.
        eet, eet_flat, eec_flat, times_stack, probs_stack, widths = (
            self._table.candidate_arrays(type_id)
        )

        # ``deadline - time`` for every (node, P-state, impulse), once
        # per arrival — the same elementwise expression the reference
        # evaluates per node (elementwise ufuncs are exact per element
        # regardless of batching).
        a_stack = deadline - times_stack  # (N, P, width)

        # One pass over the cores, grouped by node, collects per
        # *distinct* (node, ready pmf) pair the quantities the batched
        # row computation needs; grouping keeps each node's rows
        # contiguous.  One degenerate pmf stands in for every idle
        # core's ready time: its values are exactly what
        # CoreState.ready_pmf would build, and sharing the object caches
        # the mean and collapses all idle cores of a node onto one
        # probability row (identity against it is the only way two
        # cores can share a ready pmf).
        idle_delta: PMF | None = None
        idle_mean = 0.0
        slots: list[int] = [0] * C  # per core: its distinct-row index
        means: list[float] = [0.0] * C
        qlens: list[int] = [0] * C
        starts_l: list[float] = []
        sizes_l: list[int] = []
        cdfs: list[np.ndarray] = []
        node_blocks: list[tuple[int, int, int]] = []  # (node, row lo, row hi)
        for node, node_core_ids in self._node_cores:
            row_lo = len(starts_l)
            idle_slot = -1
            for c in node_core_ids:
                core = cores[c]
                if core.running is None:
                    if idle_delta is None:
                        idle_delta = PMF.delta(t_now, dt)
                        idle_mean = idle_delta.mean()
                    means[c] = idle_mean
                    if idle_slot < 0:
                        idle_slot = len(starts_l)
                        starts_l.append(idle_delta.start)
                        sizes_l.append(idle_delta.probs.size)
                        cdfs.append(idle_delta.cdf)
                    slots[c] = idle_slot
                    qlens[c] = len(core.queue)
                else:
                    ready = core.ready_pmf(t_now)
                    # Inline of PMF.mean's cached branch (same
                    # expression, minus the method dispatch).
                    m1 = ready._m1
                    means[c] = (
                        float(ready.start + ready.dt * m1) if m1 is not None else ready.mean()
                    )
                    slots[c] = len(starts_l)
                    starts_l.append(ready.start)
                    sizes_l.append(ready.probs.size)
                    cdfs.append(ready.cdf)
                    qlens[c] = len(core.queue) + 1
            # Every core owns or shares a row, so no node's block is empty.
            node_blocks.append((node, row_lo, len(starts_l)))
        ready_means = np.array(means)
        queue_len = np.array(qlens, dtype=np.int64)

        # Probability rows, one per distinct (node, ready pmf), over all
        # nodes in one batch: the offset/index grid is one elementwise
        # pass, then the CDF gather and the per-P-state dot run per
        # distinct pmf on its contiguous (P, width) slice — the same
        # expressions, on the same values, as prob_on_time_all_pstates
        # evaluates one core at a time.
        u = len(starts_l)
        starts = np.array(starts_l)
        sizes = np.array(sizes_l, dtype=np.int64)
        # floor((a - start) / dt + 1e-9) in-place on a writable
        # stack of each distinct pmf's node rows: the same
        # elementwise chain as the expression form, without the
        # intermediate temporaries.
        work = np.empty((u, a_stack.shape[1], a_stack.shape[2]))
        for node, row_lo, row_hi in node_blocks:
            work[row_lo:row_hi] = a_stack[node]
        np.subtract(work, starts[:, None, None], out=work)
        np.divide(work, dt, out=work)
        np.add(work, 1e-9, out=work)
        np.floor(work, out=work)
        ks_all = work.astype(np.int64)
        np.minimum(ks_all, (sizes - 1)[:, None, None], out=ks_all)
        np.maximum(ks_all, -1, out=ks_all)
        # One flat gather over all distinct CDFs, with an exact-0.0
        # sentinel ahead of each block: entry ``j`` of pmf ``i``
        # lives at ``offsets[i] + j`` and the clamped ``j == -1``
        # (query before the pmf's start) lands on the sentinel — the
        # same per-element values the reference's ``np.where`` form
        # produces, without materializing the mask.
        offsets_l: list[int] = []
        acc = 1
        for size in sizes_l:
            offsets_l.append(acc)
            acc += size + 1
        flat_cdf = np.zeros(acc - 1)
        for i, cdf in enumerate(cdfs):
            off = offsets_l[i]
            flat_cdf[off : off + cdf.size] = cdf
        np.add(ks_all, np.array(offsets_l, dtype=np.int64)[:, None, None], out=ks_all)
        fr_all = np.take(flat_cdf, ks_all)
        # One sum-of-products per node over its contiguous row
        # block: einsum's u axis is an outer loop over independent
        # (p, l) reductions, so each row is bitwise the per-slice
        # two-operand reduction, and broadcasting the node's shared
        # probability matrix avoids a gather copy.  Sliced to the
        # node's native pad width: the reduction must run over
        # exactly the reference's terms, because extra zero-probability
        # columns — while value-neutral term by term — change the
        # inner loop's accumulator blocking and therefore rounding.
        rows = np.empty((u, P))
        for node, row_lo, row_hi in node_blocks:
            w = widths[node]
            np.einsum(
                "pl,upl->up",
                probs_stack[node, :, :w],
                fr_all[row_lo:row_hi, :, :w],
                out=rows[row_lo:row_hi],
            )
        prob = np.take(rows, slots, axis=0)  # (C, P) scatter by slot

        ect = ready_means[:, None] + eet

        return CandidateSet(
            core_ids=self._core_ids,
            pstates=self._pstates,
            queue_len=np.repeat(queue_len, P),
            eet=eet_flat,
            eec=eec_flat,
            ect=ect.ravel(),
            prob_on_time=prob.ravel(),
        )

