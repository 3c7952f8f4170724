"""Building the vectorized candidate set for one arriving task.

For a task of type ``tau`` arriving at ``t_l``, every (core, P-state)
pair is a potential assignment.  This module assembles the aligned arrays
of Section V-A quantities over all candidates in candidate order
(core-major, then P-state):

* ``EET`` and ``EEC`` come straight from the precomputed tables;
* ``ECT`` is the core's expected ready time plus EET (linearity of
  expectation over the convolution, so no pmf product is formed);
* ``rho`` (on-time probability) takes one CDF index per (core,
  P-state): impulses sit one grid step apart, so a window of the core's
  ready-time CDF, read backwards from that index, holds the CDF value at
  every impulse, and one sum-of-products per P-state weighs it.

:class:`CandidateBuilder` is the engine's one implementation.  It
precomputes the per-candidate coordinate arrays once per trial and, per
arrival, fills queue lengths, EET and EEC for every candidate.  A core's
ECT row and rho row are built on first read (:class:`_ArrivalColumns`),
at most once per arrival: SQ and Random read neither column, MECT reads
ECT and the robustness filter and LL read rho, each only for the cores
with a feasible candidate.

The cores' ready pmfs stay resident across arrivals in one
:class:`~repro.sim.state.ReadyRows` arena: each core's CDF row, laid
out for windowed reads, plus its start, size, first moment, horizon and
queue length as arrays.  A read refreshes, through
``CoreState.ready_pmf``, only the cores whose row is stale (a mutation,
or ``t_now`` past the row's horizon); every other core goes straight to
the arrays, so per-core Python runs over stale cores only.  Rows are
computed by one routine over any core subset.  Its arithmetic
expressions are those of a plain per-core loop
(``tests/reference_mapper.py``, the parity oracle, which composes every
ready pmf from scratch), so any subset of rows matches that loop bit
for bit (``tests/perf/test_parity.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.heuristics.base import CandidateSet
from repro.sim.state import CoreState, ReadyRows
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

# np.einsum's kernel: without ``optimize`` the function only forwards
# to it, and the forwarding costs more than a small row block's dot.
try:  # numpy >= 2
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = ["CandidateBuilder"]

# Rho rows index each row's ready CDF at ``floor(y)``, where
# ``y = (deadline - time - start) / dt + 1e-9`` is evaluated per impulse
# (``tests/reference_mapper.py::prob_on_time_all_pstates``).  Impulse ``l`` of a P-state sits at
# ``time_0 + l*dt``, so ``y_l = y_0 - l`` up to rounding: four operations
# on magnitudes up to ``scale = |deadline| + |time| + |start|`` plus the
# time grid's own two, about ``6 * eps * scale / dt`` index units between
# any two impulses.  A ``y_0`` farther than the margin below from every
# integer therefore floors to ``floor(y_0) - l`` at every impulse; the
# rest recompute per impulse.  The relative term carries a 10x slack
# over that bound; at the paper's magnitudes the floor, orders of
# magnitude above it, is the margin in force, and it still leaves the
# per-impulse recompute unused on the benchmark workloads.
_INDEX_MARGIN_REL = 64 * float(np.finfo(np.float64).eps)
_INDEX_MARGIN_FLOOR = 1e-6


class CandidateBuilder:
    """Per-trial candidate-set builder.

    Bound to one core list and one execution-time table (both live for a
    whole trial), so the candidate coordinate arrays — identical for
    every arrival — are built once, and the cores' ready CDFs stay
    resident in one :class:`~repro.sim.state.ReadyRows` arena across
    arrivals.  ECT and rho are left to each arrival's
    :class:`_ArrivalColumns`, which builds only the rows that are read.
    Output is bitwise identical to the per-core reference loop the
    parity tests hold it to.
    """

    __slots__ = (
        "_cores",
        "_table",
        "_num_cores",
        "_num_pstates",
        "_core_ids",
        "_pstates",
        "_dt",
        "_core_node",
        "_node_order",
        "_node_edges",
        "_rows",
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
        self._core_node = np.array([core.node_index for core in self._cores], dtype=np.int64)
        # Core indices grouped by node: walking a core subset in this
        # order keeps each node's rows contiguous, so the per-node dot
        # can run on array slices without gather copies.
        self._node_order = np.argsort(self._core_node, kind="stable")
        self._node_edges = np.arange(cluster.num_nodes + 1)
        self._rows = ReadyRows.bind(self._cores, table.max_width)

    def build(self, task: Task, t_now: float) -> CandidateSet:
        """Assemble the candidate set for one arrival at ``t_now``."""
        # Per-type arrays memoized on the table: identical values to the
        # per-arrival lookups of the reference loop, shared read-only
        # across arrivals and across every builder over the table.
        eet, eet_flat, eec_flat, *rho_arrays = self._table.candidate_arrays(task.type_id)
        return CandidateSet(
            core_ids=self._core_ids,
            pstates=self._pstates,
            queue_len=np.repeat(self._rows.qlen, self._num_pstates),
            eet=eet_flat,
            eec=eec_flat,
            columns=_ArrivalColumns(self, task, t_now, eet, *rho_arrays),
        )


class _ArrivalColumns:
    """One arrival's ECT and rho columns, built per core on first read.

    A read names the cores it needs (every core, the cores with a
    candidate in a mask, or one candidate's core); the rows of those
    cores not built yet are computed then, and a column is allocated
    on its first read (SQ and Random read one rho, only MECT reads
    ECT).  Each read first refreshes the needed cores whose resident
    row is stale — the only per-core Python — and then works on the
    arena's arrays.  The engine reads every column before it commits
    the arrival's assignment, so the cores' state is the one the
    arrival saw.
    """

    __slots__ = (
        "_builder",
        "_rows",
        "_type_id",
        "_deadline",
        "_t_now",
        "_eet",
        "_time0",
        "_time_scale",
        "_node_probs",
        "_width",
        "_ect",
        "_ect_flat",
        "_ect_done",
        "_rho",
        "_rho_flat",
        "_rho_done",
    )

    def __init__(
        self,
        builder: CandidateBuilder,
        task: Task,
        t_now: float,
        eet: np.ndarray,
        time0: np.ndarray,
        time_scale: float,
        node_probs: tuple[np.ndarray, ...],
        width: int,
    ) -> None:
        self._builder = builder
        self._rows = builder._rows
        self._type_id = task.type_id
        self._deadline = task.deadline
        self._t_now = t_now
        self._eet = eet  # (C, P)
        self._time0 = time0  # (N, P)
        self._time_scale = time_scale
        self._node_probs = node_probs  # N x (P, native width)
        self._width = width  # the widest native width
        self._ect_done: np.ndarray | None = None
        self._rho_done: np.ndarray | None = None

    def _column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A new column (flat and (C, P)) and its per-core done-mask.

        Entries of cores not built yet are NaN, never stale numbers.
        """
        C, P = self._builder._num_cores, self._builder._num_pstates
        flat = np.full(C * P, np.nan)
        return flat, flat.reshape(C, P), np.zeros(C, dtype=bool)

    # ColumnSource -------------------------------------------------------

    def ect(self, mask: np.ndarray | None) -> np.ndarray:
        if self._ect_done is None:
            self._ect_flat, self._ect, self._ect_done = self._column()
        need = self._pending(self._ect_done, mask)
        if need.any():
            self._ect_rows(np.flatnonzero(need))
        return self._ect_flat

    def rho(self, mask: np.ndarray | None) -> np.ndarray:
        if self._rho_done is None:
            self._rho_flat, self._rho, self._rho_done = self._column()
        need = self._pending(self._rho_done, mask)
        if need.any():
            order = self._builder._node_order
            self._rho_rows(order[need[order]])
        return self._rho_flat

    def rho_at(self, index: int) -> float:
        if self._rho_done is None:
            self._rho_flat, self._rho, self._rho_done = self._column()
        c = int(index) // self._builder._num_pstates
        if not self._rho_done[c]:
            self._rho_rows(np.array([c]))
        return float(self._rho_flat[index])

    # Rows ---------------------------------------------------------------

    @staticmethod
    def _pending(done: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Per core: asked for by ``mask`` (``None``: all) and not built yet."""
        if mask is None:
            return ~done
        need = mask.reshape(done.size, -1).any(axis=1)
        need &= ~done
        return need

    def _starts(self, cores: np.ndarray) -> np.ndarray:
        """Ready-pmf starts of ``cores``, refreshing their stale rows first.

        A stale row (see :class:`~repro.sim.state.ReadyRows`) is one
        whose core would recompute in ``CoreState.ready_pmf``; that call
        refreshes the core's cache and rewrites its row.  An idle core's
        ready pmf is the degenerate one at ``t_now``.
        """
        rows = self._rows
        t_now = self._t_now
        stale = rows.horizon[cores] < t_now - 1e-9
        if stale.any():
            every = self._builder._cores
            for c in cores[stale].tolist():
                every[c].ready_pmf(t_now)
        starts = rows.start[cores]
        np.copyto(starts, t_now, where=np.isnan(starts))
        return starts

    def _ect_rows(self, cores: np.ndarray) -> None:
        starts = self._starts(cores)
        rows = self._rows
        m1 = rows.m1[cores]
        missing = np.isnan(m1)
        if missing.any():
            # PMF.mean's first moment, computed once per refreshed pmf.
            every = self._builder._cores
            for c in cores[missing].tolist():
                ready = every[c]._ready_pmf
                ready.mean()
                rows.m1[c] = ready._m1
            m1 = rows.m1[cores]
        # ready.start + ready.dt * m1 (PMF.mean) per row, then + EET.
        m1 *= self._builder._dt
        m1 += starts
        self._ect[cores] = m1[:, None] + self._eet[cores]
        self._ect_done[cores] = True

    def _rho_rows(self, cores: np.ndarray) -> None:
        """Fill the rho rows of ``cores`` (grouped by node, in node order).

        The reference's CDF index is evaluated once per (row, P-state),
        at the first impulse; one gather from the arena's windows then
        yields the CDF value at every impulse, and the per-P-state dot
        runs per node on its contiguous (P, width) slice.  The values
        gathered, and the dot over them, are those the reference
        oracle's prob_on_time_all_pstates computes one core at a time: a pair
        whose index rounding could differ between impulses (see
        ``_INDEX_MARGIN_REL``) is recomputed with its per-impulse
        expression.  Each row is an independent reduction, so a
        subset's rows equal the same rows of the full computation.
        """
        starts = self._starts(cores)
        rows = self._rows
        sizes = rows.size[cores]
        anchors = rows.anchor[cores]
        row_nodes = self._builder._core_node[cores]
        deadline = self._deadline
        dt = self._builder._dt
        W = self._width
        # The reference's index chain at each P-state's first impulse, in
        # the same order, on a (rows, P) array only:
        # y0 = (deadline - time_0 - start) / dt + 1e-9.
        y0 = self._time0[row_nodes]
        np.subtract(deadline, y0, out=y0)
        np.subtract(y0, starts[:, None], out=y0)
        np.divide(y0, dt, out=y0)
        np.add(y0, 1e-9, out=y0)
        k0 = np.floor(y0)
        # Impulse l sits at time_0 + l*dt, so the reference's index there
        # is k0 - l unless rounding carries y_l across an integer, which
        # only a y0 within the margin of one allows; those pairs take
        # the exact per-impulse fallback below.
        np.subtract(y0, k0, out=y0)  # the fraction, in [0, 1)
        np.subtract(y0, 0.5, out=y0)
        np.abs(y0, out=y0)
        scale = abs(deadline) + self._time_scale + float(np.abs(starts).max())
        near = y0 >= 0.5 - max(_INDEX_MARGIN_FLOOR, _INDEX_MARGIN_REL * scale / dt)
        # The W entries from anchor - k0 hold F[k0 - l] at offset l, with
        # the reference's clamping (F[m-1] above the support, 0 below
        # it) built into the arena once k0 is clamped to [-1, m + W - 2]
        # (W is at most the arena's pad).  Past a P-state's own support
        # the window reads other CDF values than the reference (whose
        # padded times repeat the last impulse) does; their probability
        # is exactly 0, so both add +0.0.
        data = rows.data
        step = data.strides[0]
        # windows[j] is data[j : j + W], sliding_window_view's layout
        # built directly (the arena may have grown since the last read).
        windows = np.ndarray((data.size - W + 1, W), data.dtype, data, 0, (step, step))
        np.minimum(k0, (sizes + (W - 2))[:, None], out=k0)
        np.maximum(k0, -1.0, out=k0)
        fr_all = windows[anchors[:, None] - k0.astype(np.int64)]  # (rows, P, W)
        if near.any():
            table = self._builder._table
            for i, p in zip(*np.nonzero(near)):
                # The reference's per-impulse expression, for this pair's
                # own support only (past it the probability is 0).
                m = int(sizes[i])
                times = table.pmf(self._type_id, int(row_nodes[i]), int(p)).times
                ks = np.floor((deadline - times - starts[i]) / dt + 1e-9).astype(np.int64)
                np.minimum(ks, m - 1, out=ks)
                np.maximum(ks, -1, out=ks)
                top = int(anchors[i]) + 1
                cdf = data[top - m : top][::-1]
                fr_all[i, p, : times.size] = np.where(ks >= 0, cdf[np.maximum(ks, 0)], 0.0)
        # One sum-of-products per node over its contiguous row block:
        # einsum's u axis is an outer loop over independent (p, l)
        # reductions, so each row is bitwise the per-slice two-operand
        # reduction, and broadcasting the node's shared probability
        # matrix avoids a gather copy.  Sliced to the node's native pad
        # width: the reduction must run over exactly the reference's
        # terms, because extra zero-probability columns — while
        # value-neutral term by term — change the inner loop's
        # accumulator blocking and therefore rounding.
        out = np.empty((cores.size, self._builder._num_pstates))
        bounds = row_nodes.searchsorted(self._builder._node_edges).tolist()
        for n, probs in enumerate(self._node_probs):
            lo, hi = bounds[n], bounds[n + 1]
            if lo < hi:
                w = probs.shape[1]
                _einsum("pl,upl->up", probs, fr_all[lo:hi, :, :w], out=out[lo:hi])
        self._rho[cores] = out
        self._rho_done[cores] = True
