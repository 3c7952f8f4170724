"""Execution-time pmfs for every (task type, node, P-state) combination.

The paper assumes "we are provided an execution-time probability mass
function for each task type executing on a single core of each node in
each P-state".  :class:`ExecutionTimeTable` realizes that assumption: the
pmf of type ``t`` on node ``n`` in state ``pi`` is a discretized gamma
with mean ``etc[t, n] * exec_multiplier[n, pi]`` and a configurable
coefficient of variation.

The table also precomputes everything the vectorized mapping hot path
needs:

* ``eet[t, n, pi]``  — expected execution times (pmf means);
* ``eec[t, n, pi]``  — expected energy consumption
  (``eet * mu(n, pi) / epsilon(n)``, Section V-A);
* per ``(t, n)`` padded ``(num_pstates, L)`` impulse time/probability
  matrices, letting one NumPy pass score all P-states of a core.

Construction cost matters: the table is rebuilt per trial per worker,
and at paper scale it holds T*N*P = 4,000 discretized gammas.  Every
cell is evaluated through one vectorized
:func:`~repro.stoch.distributions.discretized_gamma_batch` call (a
single scipy CDF round trip instead of 4,000), bitwise identical per
cell to :func:`~repro.stoch.distributions.discretized_gamma`, and the
padded matrices are deferred to first :meth:`padded` access — the mapper
only ever asks for the task types that actually arrive.  Padding is a
pure function of the cell's pmfs whenever it runs, so laziness is
results-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.config import GridConfig
from repro.stoch.distributions import discretized_gamma_batch
from repro.stoch.pmf import PMF
from repro.workload.etc_matrix import ETCMatrix

__all__ = ["ExecutionTimeTable", "PaddedPMFMatrix"]


@dataclass(frozen=True)
class PaddedPMFMatrix:
    """All P-state pmfs of one (type, node) pair as padded 2-D arrays.

    Rows are P-states; padding entries carry zero probability (their time
    values repeat the row's last impulse so array math stays finite).
    """

    times: np.ndarray  # (num_pstates, L)
    probs: np.ndarray  # (num_pstates, L)


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
        # multiply a per-cell loop would evaluate.
        means = (etc.means[:, :, None] * mult[None, :, :]).ravel()
        flat = discretized_gamma_batch(means, exec_cv, grid.dt, tail_sigmas=grid.tail_sigmas)
        pmfs = [
            [flat[(t * N + n) * P : (t * N + n) * P + P] for n in range(N)]
            for t in range(T)
        ]
        eet = np.array([pmf.mean() for pmf in flat]).reshape(T, N, P)

        self._pmfs = pmfs
        # Padded matrices are built lazily per (type, node) on first
        # padded() access; most task types of a finite trial never
        # arrive, so eager padding is pure waste.
        self._padded: list[list[PaddedPMFMatrix | None]] = [
            [None] * N for _ in range(T)
        ]
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

    def pmf(self, type_id: int, node: int, pstate: int) -> PMF:
        """Execution-time pmf of a (type, node, P-state) combination."""
        return self._pmfs[type_id][node][pstate]

    def padded(self, type_id: int, node: int) -> PaddedPMFMatrix:
        """Padded per-P-state impulse matrices of a (type, node) pair.

        Built on first access and memoized; ``_pad`` is deterministic in
        the cell's pmfs, so lazy construction is results-neutral.
        """
        pad = self._padded[type_id][node]
        if pad is None:
            pad = _pad(self._pmfs[type_id][node])
            self._padded[type_id][node] = pad
        return pad

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


def _pad(cell: list[PMF]) -> PaddedPMFMatrix:
    """Pad a list of pmfs into rectangular (P, L) time/prob matrices."""
    length = max(len(p) for p in cell)
    P = len(cell)
    times = np.empty((P, length))
    probs = np.zeros((P, length))
    for pi, pmf in enumerate(cell):
        n = len(pmf)
        times[pi, :n] = pmf.times
        times[pi, n:] = pmf.stop
        probs[pi, :n] = pmf.probs
    times.setflags(write=False)
    probs.setflags(write=False)
    return PaddedPMFMatrix(times=times, probs=probs)
