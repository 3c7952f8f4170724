"""Shared heuristic machinery: candidate sets, contexts, selection helpers.

An *assignment* maps a single task to a node, multicore processor, core
and P-state (Section V-A); the simulator flattens (node, processor, core)
into a flat core id, so a candidate is a (core_id, pstate) pair.  For each
arriving task the mapper builds one :class:`CandidateSet` with dense,
aligned arrays over all ``num_cores * num_pstates`` candidates; filters
clear entries of its boolean feasibility mask; the heuristic then picks
one index (or none, in which case the task is discarded).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from repro.workload.task import Task

__all__ = [
    "Assignment",
    "CandidateSet",
    "ColumnSource",
    "MappingContext",
    "Heuristic",
    "argmin_lexicographic",
]


class ColumnSource(Protocol):
    """Where a :class:`CandidateSet`'s ECT and rho columns come from.

    ``ect(mask)`` and ``rho(mask)`` return a full-length column in which
    every candidate of a core with at least one candidate in ``mask`` is
    filled (``mask=None``: every candidate); the other entries are
    undefined.  ``rho_at(index)`` returns one candidate's rho.  The
    engine's source (:mod:`repro.sim.mapper`) computes each core's rows
    on first read, so a policy pays only for the cores it looks at.
    """

    def ect(self, mask: np.ndarray | None) -> np.ndarray: ...

    def rho(self, mask: np.ndarray | None) -> np.ndarray: ...

    def rho_at(self, index: int) -> float: ...


class _GivenColumns:
    """Columns handed to the constructor as ready-made arrays."""

    __slots__ = ("_ect", "_rho")

    def __init__(self, ect: np.ndarray, rho: np.ndarray) -> None:
        self._ect = ect
        self._rho = rho

    def ect(self, mask: np.ndarray | None) -> np.ndarray:
        return self._ect

    def rho(self, mask: np.ndarray | None) -> np.ndarray:
        return self._rho

    def rho_at(self, index: int) -> float:
        return float(self._rho[index])


class Assignment(NamedTuple):
    """The heuristic's decision: run the task on ``core_id`` at ``pstate``."""

    core_id: int
    pstate: int


class CandidateSet:
    """Vectorized view of every potential assignment for one task.

    All arrays share length ``num_cores * num_pstates`` and candidate
    order (core-major, then P-state), so ``argmin`` indices translate
    directly to assignments.

    ``ect`` and ``prob_on_time`` are either passed as arrays or come
    from a :class:`ColumnSource` (``columns=``), which the engine's
    builder uses to compute them only where they are read.  The two
    properties always return the full column; :meth:`feasible_ect`,
    :meth:`feasible_rho` and :meth:`rho_at` are the cheaper reads a
    policy should prefer.  A source reads live core state, so read the
    columns before the mapping step commits its assignment.

    Attributes
    ----------
    core_ids, pstates:
        Candidate coordinates.
    queue_len:
        ``|MQ(i, j, k, t_l)|`` — tasks queued or executing on the
        candidate's core.
    eet:
        Expected execution time of the task under the candidate.
    eec:
        Expected energy consumption (Section V-A: ``EET * mu / epsilon``).
    ect:
        Expected completion time (core ready-time mean + EET).
    prob_on_time:
        ``rho(i, j, k, pi, t_l, z)`` — probability of meeting the deadline.
    mask:
        Feasibility mask; filters clear entries, heuristics respect it.
    """

    __slots__ = ("core_ids", "pstates", "queue_len", "eet", "eec", "mask", "_columns")

    def __init__(
        self,
        core_ids: np.ndarray,
        pstates: np.ndarray,
        queue_len: np.ndarray,
        eet: np.ndarray,
        eec: np.ndarray,
        ect: np.ndarray | None = None,
        prob_on_time: np.ndarray | None = None,
        mask: np.ndarray | None = None,
        *,
        columns: ColumnSource | None = None,
    ) -> None:
        self.core_ids = core_ids
        self.pstates = pstates
        self.queue_len = queue_len
        self.eet = eet
        self.eec = eec
        n = core_ids.size
        named = {"pstates": pstates, "queue_len": queue_len, "eet": eet, "eec": eec}
        if columns is None:
            if ect is None or prob_on_time is None:
                raise TypeError("pass ect and prob_on_time, or columns=")
            named.update(ect=ect, prob_on_time=prob_on_time)
            columns = _GivenColumns(ect, prob_on_time)
        elif ect is not None or prob_on_time is not None:
            raise TypeError("pass ect and prob_on_time, or columns=, not both")
        for name, arr in named.items():
            if arr.size != n:
                raise ValueError(f"candidate array {name!r} misaligned")
        if mask is None:
            mask = np.ones(n, dtype=bool)
        elif mask.size != n:
            raise ValueError("mask misaligned")
        self.mask = mask
        self._columns = columns

    def __len__(self) -> int:
        return int(self.core_ids.size)

    @property
    def ect(self) -> np.ndarray:
        """Expected completion time of every candidate."""
        return self._columns.ect(None)

    @property
    def prob_on_time(self) -> np.ndarray:
        """On-time probability rho of every candidate."""
        return self._columns.rho(None)

    def feasible_ect(self) -> np.ndarray:
        """ECT, defined on every candidate of a core with one in ``mask``."""
        return self._columns.ect(self.mask)

    def feasible_rho(self) -> np.ndarray:
        """rho, defined on every candidate of a core with one in ``mask``."""
        return self._columns.rho(self.mask)

    def rho_at(self, index: int) -> float:
        """rho of the one candidate ``index``."""
        return self._columns.rho_at(index)

    @property
    def num_feasible(self) -> int:
        """How many candidates remain feasible."""
        return int(np.count_nonzero(self.mask))

    def assignment(self, index: int) -> Assignment:
        """Translate a candidate index into an :class:`Assignment`."""
        return Assignment(int(self.core_ids[index]), int(self.pstates[index]))


@dataclass(frozen=True)
class MappingContext:
    """Everything filters/heuristics may consult besides the candidates.

    Attributes
    ----------
    t_now:
        The mapping time-step ``t_l`` (the task's arrival time).
    task:
        The task being mapped.
    energy_estimate:
        The heuristic's running estimate of remaining energy
        ``zeta(t_l)`` (budget minus EEC of all previous assignments).
    tasks_left:
        ``T_left(t_l)``: tasks that have *not yet arrived* (excludes the
        one being mapped).
    avg_queue_depth:
        Tasks queued or executing per core, cluster-wide, at ``t_l``.
    """

    t_now: float
    task: Task
    energy_estimate: float
    tasks_left: int
    avg_queue_depth: float


class Heuristic(abc.ABC):
    """Interface of an immediate-mode mapping heuristic."""

    #: Short display name ("SQ", "MECT", ...).
    name: str = "?"

    @abc.abstractmethod
    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick a candidate index among ``cands.mask``, or ``None`` to discard."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def argmin_lexicographic(
    mask: np.ndarray, primary: np.ndarray, secondary: np.ndarray | None = None
) -> int | None:
    """Index of the masked minimum of ``primary``; ties broken by ``secondary``.

    Remaining ties resolve to the lowest candidate index, which makes all
    heuristics fully deterministic.  Returns ``None`` when nothing is
    feasible.
    """
    feasible = np.flatnonzero(mask)
    if feasible.size == 0:
        return None
    p = primary[feasible]
    best = p.min()
    contenders = feasible[p <= best]
    if secondary is None or contenders.size == 1:
        return int(contenders[0])
    s = secondary[contenders]
    return int(contenders[int(np.argmin(s))])
