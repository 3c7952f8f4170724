"""Execution-time pmfs for every (task type, node, P-state) combination.

The paper assumes "we are provided an execution-time probability mass
function for each task type executing on a single core of each node in
each P-state".  :class:`ExecutionTimeTable` realizes that assumption: the
pmf of type ``t`` on node ``n`` in state ``pi`` is a discretized gamma
with mean ``etc[t, n] * exec_multiplier[n, pi]`` and a configurable
coefficient of variation.

Each probability is stored once.  A (type, node) cell keeps its
P-state pmfs as the rows of one read-only ``(num_pstates, L)`` matrix,
zero past each row's own support (``L`` is the cell's longest pmf), and
``table.pmf(t, n, pi).probs`` is the view ``matrix[pi, :len]`` of it.

The table also precomputes everything the vectorized mapping hot path
needs:

* ``eet[t, n, pi]``  — expected execution times (pmf means);
* ``eec[t, n, pi]``  — expected energy consumption
  (``eet * mu(n, pi) / epsilon(n)``, Section V-A);
* per type, what the candidate builder's rho rows read
  (:meth:`ExecutionTimeTable.candidate_arrays`): core-major gathers,
  each pmf's first impulse time, and the type's cell matrices
  themselves, shared by every engine over the table.

Construction cost matters: the table is rebuilt per trial per worker,
and at paper scale it holds T*N*P = 4,000 discretized gammas.  The
cells are evaluated through
:func:`~repro.stoch.distributions.iter_discretized_gamma` (one
``gammainc`` call per block of laws instead of 4,000, in bounded
transient memory), bitwise identical per cell to
:func:`~repro.stoch.distributions.discretized_gamma`, and each cell's
laws are copied into its matrix as they are produced, so the build
never holds a second copy of the table.  The candidate gathers are
deferred to first access — the mapper only ever asks for the task
types that actually arrive.  They are a pure function of the table
whenever they run, so laziness is results-neutral.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.config import GridConfig
from repro.stoch.distributions import iter_discretized_gamma
from repro.stoch.pmf import PMF
from repro.workload.etc_matrix import ETCMatrix

__all__ = ["ExecutionTimeTable", "CandidateArrays"]

#: Per-type arrays of :meth:`ExecutionTimeTable.candidate_arrays`:
#: ``eet`` (C, P), ``eet_flat``, ``eec_flat``, each (node, P-state)'s
#: first impulse time (N, P), the largest impulse-time magnitude, each
#: node's (P, native width) cell matrix, and the widest of them.
CandidateArrays = tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, tuple[np.ndarray, ...], int
]


class ExecutionTimeTable:
    """Pmfs plus derived expectation tables for the whole workload."""

    def __init__(
        self,
        etc: ETCMatrix,
        cluster: ClusterSpec,
        grid: GridConfig,
        exec_cv: float,
    ) -> None:
        if exec_cv <= 0.0:
            raise ValueError("exec_cv must be positive")
        if etc.num_nodes != cluster.num_nodes:
            raise ValueError("ETC matrix width must match the cluster's node count")
        self._etc = etc
        self._cluster = cluster
        self._grid = grid
        self._exec_cv = float(exec_cv)

        T, N, P = etc.num_task_types, cluster.num_nodes, cluster.num_pstates
        mult = cluster.exec_multiplier_table()  # (N, P)
        power = cluster.power_table()  # (N, P)
        eff = cluster.efficiency_vector()  # (N,)

        # One vectorized discretization pass over all T*N*P cells.  The
        # broadcast product's element (t, n, pi) is the same two-scalar
        # multiply a per-cell loop would evaluate.  The laws arrive in
        # (t, n, pi) order, one cell's P-states consecutive.
        means = (etc.means[:, :, None] * mult[None, :, :]).ravel()
        laws = iter_discretized_gamma(means, exec_cv, grid.dt, tail_sigmas=grid.tail_sigmas)
        cells = [_cell(cell_laws) for cell_laws in zip(*[laws] * P)]
        eet = np.array([pmf.mean() for _, pmfs in cells for pmf in pmfs]).reshape(T, N, P)

        self._pmfs = [[pmfs for _, pmfs in cells[t * N : t * N + N]] for t in range(T)]
        self._matrices = [
            tuple(matrix for matrix, _ in cells[t * N : t * N + N]) for t in range(T)
        ]
        self._max_width = max(matrix.shape[1] for matrix, _ in cells)
        # Built per type on first use: most task types of a finite trial
        # never arrive.
        self._candidate_arrays: dict[int, CandidateArrays] = {}
        self._eet = eet
        self._eet.setflags(write=False)
        eec = eet * (power / eff[:, None])[None, :, :]
        eec.setflags(write=False)
        self._eec = eec

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster this table was built against."""
        return self._cluster

    @property
    def etc(self) -> ETCMatrix:
        """The underlying mean-time matrix."""
        return self._etc

    @property
    def grid(self) -> GridConfig:
        """Grid configuration of every pmf in the table."""
        return self._grid

    @property
    def exec_cv(self) -> float:
        """Coefficient of variation of each execution-time pmf."""
        return self._exec_cv

    @property
    def max_width(self) -> int:
        """Support length of the longest execution pmf: the widest padding."""
        return self._max_width

    def pmf(self, type_id: int, node: int, pstate: int) -> PMF:
        """Execution-time pmf of a (type, node, P-state) combination."""
        return self._pmfs[type_id][node][pstate]

    def candidate_arrays(self, type_id: int) -> CandidateArrays:
        """The candidate builder's per-type arrays, memoized on first use.

        Core-major ``eet``/``eec`` gathers over the cluster's cores; per
        (node, P-state) the pmf's first impulse time (``pmf.start``);
        the largest ``|start|``/``|stop|`` (the rho index margin's
        scale); and per node the cell matrix whose rows are the
        P-states' pmfs, zero past each row's own support, at the cell's
        *native* width ``L`` (its longest pmf), so row reductions run
        over exactly the reference's term count (an appended ``+0.0``
        term is value-neutral but can change the reduction's
        accumulator blocking, which is a bitwise difference).  The last
        entry is the widest node's ``L``, the width of the builder's CDF
        gathers.  All arrays are read-only.
        """
        cached = self._candidate_arrays.get(type_id)
        if cached is None:
            core_node = self._cluster.core_node_index
            eet = self._eet[type_id][core_node]  # (C, P)
            eec_flat = self._eec[type_id][core_node].ravel()
            eet_flat = eet.ravel()
            cells = self._pmfs[type_id]
            time0 = np.array([[pmf.start for pmf in cell] for cell in cells])
            time_scale = max(
                max(abs(pmf.start), abs(pmf.stop)) for cell in cells for pmf in cell
            )
            node_probs = self._matrices[type_id]
            width = max(probs.shape[1] for probs in node_probs)
            for arr in (eet, eet_flat, eec_flat, time0):
                arr.setflags(write=False)
            cached = (eet, eet_flat, eec_flat, time0, time_scale, node_probs, width)
            self._candidate_arrays[type_id] = cached
        return cached

    @property
    def eet(self) -> np.ndarray:
        """Expected execution times, shape (types, nodes, pstates)."""
        return self._eet

    @property
    def eec(self) -> np.ndarray:
        """Expected energy consumptions (joules), same shape as ``eet``."""
        return self._eec

    # ------------------------------------------------------------------
    # Aggregates used by the simulation environment (Section VI)
    # ------------------------------------------------------------------

    def t_avg(self) -> float:
        """Average execution time over all types, nodes and P-states."""
        return float(self._eet.mean())

    def mean_exec_of_type(self, type_id: int) -> float:
        """Average execution time of one type over nodes and P-states."""
        return float(self._eet[type_id].mean())

    def mean_exec_per_type(self) -> np.ndarray:
        """Vector of per-type averages (types,)."""
        return self._eet.mean(axis=(1, 2))


def _cell(laws: tuple[PMF, ...]) -> tuple[np.ndarray, tuple[PMF, ...]]:
    """One (type, node)'s P-state laws as the rows of a (P, L) matrix.

    Returns the read-only matrix, zero-padded past each row's support,
    and one pmf per row whose ``probs`` is a view of it: each law moved
    into its row, nothing about it changed but where its probabilities
    live.
    """
    sizes = [law.probs.size for law in laws]
    matrix = np.zeros((len(laws), max(sizes)))
    for pi, law in enumerate(laws):
        matrix[pi, : sizes[pi]] = law.probs
    matrix.setflags(write=False)
    pmfs = tuple(law._moved_to(matrix[pi, : sizes[pi]]) for pi, law in enumerate(laws))
    return matrix, pmfs
