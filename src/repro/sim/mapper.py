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
ready pmf, ECT row and rho row are built on first read
(:class:`_ArrivalColumns`), at most once per arrival: SQ and Random read
neither column, MECT reads ECT and the robustness filter and LL read
rho, each only for the cores with a feasible candidate.  Rows are
computed by one routine over any core subset; it shares a single
degenerate ready pmf across all idle cores and one probability row per
node across them.  Its arithmetic expressions are those of a plain
per-core loop (``tests/reference_mapper.py``, the parity oracle), so any
subset of rows matches that loop bit for bit
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

# Rho rows index each row's ready CDF at ``floor(y)``, where
# ``y = (deadline - time - start) / dt + 1e-9`` is evaluated per impulse
# (``prob_on_time_all_pstates``).  Impulse ``l`` of a P-state sits at
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
    every arrival — are built once.  ECT and rho are left to each
    arrival's :class:`_ArrivalColumns`, which builds only the rows that
    are read.  Output is bitwise identical to the per-core reference
    loop the parity tests hold it to.
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
        self._core_node = [core.node_index for core in self._cores]
        # Core indices grouped by node: walking a core subset in this
        # order keeps each node's rows contiguous, so the per-node dot
        # can run on array slices without gather copies.
        self._node_order = np.argsort(np.array(self._core_node), kind="stable")

    def build(self, task: Task, t_now: float) -> CandidateSet:
        """Assemble the candidate set for one arrival at ``t_now``."""
        P = self._num_pstates
        # Per-type gathers memoized on the table: identical values to the
        # per-arrival lookups of the reference loop, shared read-only
        # across arrivals and across every builder over the table.
        eet, eet_flat, eec_flat, times_stack, probs_stack, widths = (
            self._table.candidate_arrays(task.type_id)
        )
        qlens = [len(core.queue) + (core.running is not None) for core in self._cores]
        return CandidateSet(
            core_ids=self._core_ids,
            pstates=self._pstates,
            queue_len=np.repeat(np.array(qlens, dtype=np.int64), P),
            eet=eet_flat,
            eec=eec_flat,
            columns=_ArrivalColumns(
                self, task.deadline, t_now, eet, times_stack, probs_stack, widths
            ),
        )


class _ArrivalColumns:
    """One arrival's ECT and rho columns, built per core on first read.

    A read names the cores it needs (every core, the cores with a
    candidate in a mask, or one candidate's core); the rows of those
    cores not built yet are computed then, together with any ready pmf
    they need.  The engine reads every column before it commits the
    arrival's assignment, so the cores' state is the one the arrival saw.
    """

    __slots__ = (
        "_builder",
        "_deadline",
        "_t_now",
        "_eet",
        "_times",
        "_probs",
        "_widths",
        "_ready",
        "_idle",
        "_idle_rows",
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
        deadline: float,
        t_now: float,
        eet: np.ndarray,
        times_stack: np.ndarray,
        probs_stack: np.ndarray,
        widths: tuple[int, ...],
    ) -> None:
        C, P = builder._num_cores, builder._num_pstates
        self._builder = builder
        self._deadline = deadline
        self._t_now = t_now
        self._eet = eet  # (C, P)
        self._times = times_stack  # (N, P, width)
        self._probs = probs_stack  # (N, P, width)
        self._widths = widths
        self._ready: list[PMF | None] = [None] * C
        self._idle: PMF | None = None
        self._idle_rows: dict[int, np.ndarray] = {}  # node -> its idle cores' rho row
        # Entries of cores not built yet are NaN, never stale numbers.
        self._ect_flat = np.full(C * P, np.nan)
        self._ect = self._ect_flat.reshape(C, P)
        self._ect_done = np.zeros(C, dtype=bool)
        self._rho_flat = np.full(C * P, np.nan)
        self._rho = self._rho_flat.reshape(C, P)
        self._rho_done = np.zeros(C, dtype=bool)

    # ColumnSource -------------------------------------------------------

    def ect(self, mask: np.ndarray | None) -> np.ndarray:
        need = self._pending(self._ect_done, mask)
        if need.any():
            self._ect_rows(np.flatnonzero(need).tolist())
        return self._ect_flat

    def rho(self, mask: np.ndarray | None) -> np.ndarray:
        need = self._pending(self._rho_done, mask)
        if need.any():
            order = self._builder._node_order
            self._rho_rows(order[need[order]].tolist())
        return self._rho_flat

    def rho_at(self, index: int) -> float:
        c = int(index) // self._builder._num_pstates
        if not self._rho_done[c]:
            self._rho_rows([c])
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

    def _ready_pmf(self, c: int) -> PMF:
        """Core ``c``'s ready pmf, computed at most once per arrival.

        One degenerate pmf stands in for every idle core's ready time:
        its values are exactly what CoreState.ready_pmf would build, and
        sharing the object caches the mean and lets all idle cores of a
        node share one probability row.
        """
        ready = self._ready[c]
        if ready is None:
            core = self._builder._cores[c]
            if core.running is None:
                ready = self._idle
                if ready is None:
                    ready = self._idle = PMF.delta(self._t_now, self._builder._dt)
            else:
                ready = core.ready_pmf(self._t_now)
            self._ready[c] = ready
        return ready

    def _ect_rows(self, cores: list[int]) -> None:
        means: list[float] = []
        for c in cores:
            ready = self._ready_pmf(c)
            # Inline of PMF.mean's cached branch (same expression, minus
            # the method dispatch).
            m1 = ready._m1
            means.append(float(ready.start + ready.dt * m1) if m1 is not None else ready.mean())
        self._ect[cores] = np.array(means)[:, None] + self._eet[cores]
        self._ect_done[cores] = True

    def _rho_rows(self, cores: list[int]) -> None:
        """Fill the rho rows of ``cores`` (grouped by node, in node order).

        One probability row per distinct (node, ready pmf) pair, batched
        over the subset.  The reference's CDF index is evaluated once per
        (row, P-state), at the first impulse; one gather from a flat
        buffer of the rows' CDFs then yields the CDF value at every
        impulse, and the per-P-state dot runs per node on its contiguous
        (P, width) slice.  The values gathered, and the dot over them,
        are those prob_on_time_all_pstates computes one core at a time:
        a pair whose index rounding could differ between impulses (see
        ``_INDEX_MARGIN_REL``) is recomputed with its per-impulse
        expression.  Each row is an independent reduction, so a subset's
        rows equal the same rows of the full computation.
        """
        idle_rows = self._idle_rows
        core_node = self._builder._core_node
        rho = self._rho
        starts_l: list[float] = []
        sizes_l: list[int] = []
        cdfs: list[np.ndarray] = []
        row_nodes: list[int] = []
        node_blocks: list[tuple[int, int, int]] = []  # (node, row lo, row hi)
        dest: list[int] = []  # cores filled from this batch ...
        slots: list[int] = []  # ... and their rows in it
        fresh_idle: dict[int, int] = {}  # node -> row of its idle cores
        node = -1
        row_lo = 0
        for c in cores:
            n = core_node[c]
            if n != node:
                if len(starts_l) > row_lo:
                    node_blocks.append((node, row_lo, len(starts_l)))
                node, row_lo = n, len(starts_l)
            ready = self._ready_pmf(c)
            idle = ready is self._idle
            if idle and n in idle_rows:
                rho[c] = idle_rows[n]
                continue
            slot = fresh_idle.get(n, -1) if idle else -1
            if slot < 0:
                slot = len(starts_l)
                starts_l.append(ready.start)
                sizes_l.append(ready.probs.size)
                cdfs.append(ready.cdf)
                row_nodes.append(n)
                if idle:
                    fresh_idle[n] = slot
            dest.append(c)
            slots.append(slot)
        if len(starts_l) > row_lo:
            node_blocks.append((node, row_lo, len(starts_l)))
        self._rho_done[cores] = True
        if not starts_l:
            return

        deadline = self._deadline
        dt = self._builder._dt
        times = self._times
        W = times.shape[2]
        sizes = np.array(sizes_l)
        # The reference's index chain at each P-state's first impulse, in
        # the same order, on a (rows, P) array only:
        # y0 = (deadline - time_0 - start) / dt + 1e-9.
        y0 = times[:, :, 0][row_nodes]
        np.subtract(deadline, y0, out=y0)
        np.subtract(y0, np.array(starts_l)[:, None], out=y0)
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
        # Times rows are nondecreasing: their largest magnitudes sit at
        # the ends.
        scale = (
            abs(deadline)
            + float(np.abs(times[:, :, [0, -1]]).max())
            + max(map(abs, starts_l))
        )
        near = y0 >= 0.5 - max(_INDEX_MARGIN_FLOOR, _INDEX_MARGIN_REL * scale / dt)
        # One flat buffer holds each row's CDF as W copies of F[m-1],
        # then F reversed, then W zeros.  F[k] of a row sits at its
        # anchor minus k, so the W entries from anchor - k0 hold
        # F[k0 - l] at offset l: the reference's clamping (F[m-1] above
        # the support, 0 below it) is built in once k0 is clamped to
        # [-1, m + W - 2].  Past a P-state's own support the padded
        # times repeat its last impulse and the window reads other CDF
        # values than the reference does; their probability is exactly
        # 0, so both add +0.0.
        flat = np.zeros(sum(sizes_l) + 2 * W * len(cdfs))
        bases_l: list[int] = []
        pos = 0
        for cdf in cdfs:
            bases_l.append(pos)
            flat[pos + W : pos + W + cdf.size] = cdf[::-1]
            pos += cdf.size + 2 * W
        # windows[j] is flat[j : j + W], sliding_window_view's layout
        # built directly (this runs on every read).
        step = flat.strides[0]
        windows = np.ndarray((flat.size - W + 1, W), flat.dtype, flat, 0, (step, step))
        bases = np.array(bases_l)
        windows[bases] = flat[bases + W][:, None]  # the copies of F[m-1]
        np.minimum(k0, (sizes + (W - 2))[:, None], out=k0)
        np.maximum(k0, -1.0, out=k0)
        anchors = bases + (W - 1) + sizes
        fr_all = windows[anchors[:, None] - k0.astype(np.int64)]  # (rows, P, W)
        if near.any():
            for i, p in zip(*np.nonzero(near)):
                # The reference's per-impulse expression, for this pair only.
                ks = np.floor(
                    (deadline - times[row_nodes[i], p] - starts_l[i]) / dt + 1e-9
                ).astype(np.int64)
                np.minimum(ks, sizes_l[i] - 1, out=ks)
                np.maximum(ks, -1, out=ks)
                cdf = cdfs[i]
                fr_all[i, p] = np.where(ks >= 0, cdf[np.maximum(ks, 0)], 0.0)
        # One sum-of-products per node over its contiguous row block:
        # einsum's u axis is an outer loop over independent (p, l)
        # reductions, so each row is bitwise the per-slice two-operand
        # reduction, and broadcasting the node's shared probability
        # matrix avoids a gather copy.  Sliced to the node's native pad
        # width: the reduction must run over exactly the reference's
        # terms, because extra zero-probability columns — while
        # value-neutral term by term — change the inner loop's
        # accumulator blocking and therefore rounding.
        rows = np.empty((len(starts_l), times.shape[1]))
        for n, lo, hi in node_blocks:
            w = self._widths[n]
            np.einsum(
                "pl,upl->up",
                self._probs[n, :, :w],
                fr_all[lo:hi, :, :w],
                out=rows[lo:hi],
            )
        rho[dest] = rows[slots]
        for n, slot in fresh_idle.items():
            idle_rows[n] = rows[slot]
