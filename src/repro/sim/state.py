"""Per-core runtime state with cached ready-time distributions.

The dominant cost of a mapping event is computing, for every core, the
*ready-time* pmf — the completion distribution of everything already on
the core (Section IV-B).  :class:`CoreState` caches it, and its pieces:

* the convolution of queued tasks' execution pmfs, folded once by
  :func:`~repro.stoch.ops.convolve_many` on the first read after a queue
  change (every queue mutation invalidates it);
* the running task's execution pmf shifted to its start time, built
  once when the task starts rather than on every refresh;
* the ready pmf itself, with one validity bound, its *horizon*: the
  pmf serves every ``t_now`` up to it.  Truncation at a later time
  ``t`` changes nothing as long as the truncated distribution has no
  impulse before ``t``, so a busy core's horizon is that first-impulse
  time and stays valid across most events; an idle core's is ``+inf``
  and a mutation drops it to ``-inf``.

A stale ready pmf is refreshed in one step.  A core with queued work
runs :func:`~repro.stoch.ops.truncate_convolve` (truncate, then convolve
with the queue; its truncated tail is never cached).  A core with only
a running task truncates through the engine's
:class:`~repro.perf.KernelCache`, handed to every core, since that
truncation *is* the ready pmf and repeats across cores and specs.

:class:`ReadyRows` keeps the result resident for the candidate builder:
each core of a builder's core list owns a slot in one arena holding its
ready CDF laid out for windowed reads, plus its start, size, first
moment, horizon and queue length as arrays.  The row's horizon is the
core's: a mutation drops both to ``-inf`` and a refresh rewrites the
row, so a read runs Python only over stale cores.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.perf.kernel_cache import KernelCache
from repro.stoch.ops import convolve_many, shift, truncate_below, truncate_convolve
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = ["RunningTask", "QueuedTask", "CoreState", "ReadyRows", "RollingEnergyBudget"]


@dataclass(frozen=True)
class RunningTask:
    """The task currently executing on a core.

    ``completion_time`` is the *actual* (sampled) completion instant; the
    scheduler's predictions never read it — they only see ``exec_pmf``
    and ``start_time``.
    """

    task: Task
    pstate: int
    exec_pmf: PMF
    start_time: float
    completion_time: float


@dataclass(frozen=True)
class QueuedTask:
    """A task waiting on a core, with its committed P-state and pmf."""

    task: Task
    pstate: int
    exec_pmf: PMF


class CoreState:
    """Mutable state of one core during a trial.

    ``cache`` memoizes the running task's truncations (the engine passes
    its kernel cache to every core); ``None`` computes each one fresh.
    Results are bitwise identical either way.  A core bound to a
    :class:`ReadyRows` (by the candidate builder) also keeps its ready
    CDF resident there.
    """

    __slots__ = (
        "core_id",
        "node_index",
        "dt",
        "_cache",
        "running",
        "_running_pmf",
        "queue",
        "epoch",
        "_queue_conv",
        "_ready_pmf",
        "_horizon",
        "_rows",
        "_slot",
    )

    def __init__(
        self, core_id: int, node_index: int, dt: float, *, cache: KernelCache | None = None
    ) -> None:
        self.core_id = core_id
        self.node_index = node_index
        self.dt = dt
        self._cache = cache
        self.running: RunningTask | None = None
        self._running_pmf: PMF | None = None  # running task's pmf at its start
        self.queue: deque[QueuedTask] = deque()
        self.epoch = 0
        self._queue_conv: PMF | None = None
        # The cached ready pmf (None: the idle core's) is valid for every
        # t_now with horizon >= t_now - 1e-9: -inf after a mutation, +inf
        # for an idle core, the truncation's start for a busy one.
        self._ready_pmf: PMF | None = None
        self._horizon = -math.inf
        self._rows: ReadyRows | None = None
        self._slot = 0

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    @property
    def assigned_count(self) -> int:
        """``|MQ(i, j, k, t_l)|``: tasks queued for or in execution."""
        return len(self.queue) + (1 if self.running is not None else 0)

    @property
    def is_idle(self) -> bool:
        """Whether the core has no work at all."""
        return self.running is None and not self.queue

    # ------------------------------------------------------------------
    # Mutations (each marks the cached ready pmf stale)
    # ------------------------------------------------------------------

    def _changed(self) -> None:
        """Mark the cached ready pmf and the resident row stale."""
        self._horizon = -math.inf
        rows = self._rows
        if rows is not None:
            slot = self._slot
            rows.horizon[slot] = -math.inf
            rows.qlen[slot] = len(self.queue) + (self.running is not None)

    def enqueue(self, entry: QueuedTask) -> None:
        """Append a task to the core's FIFO queue."""
        if self.running is None:
            raise RuntimeError("enqueue on an idle core; start the task instead")
        self.queue.append(entry)
        self._changed()
        self._queue_conv = None

    def set_running(self, running: RunningTask) -> None:
        """Begin executing a task (the core must not be busy)."""
        if self.running is not None:
            raise RuntimeError("core already running a task")
        self.running = running
        self._running_pmf = shift(running.exec_pmf, running.start_time)
        self._changed()

    def clear_running(self) -> None:
        """Mark the running task finished."""
        if self.running is None:
            raise RuntimeError("no running task to clear")
        self.running = None
        self._running_pmf = None
        self._changed()

    def interrupt(self) -> RunningTask:
        """Forcibly remove the running task (fault injection only).

        Bumps :attr:`epoch`, invalidating the completion event the
        engine scheduled for the interrupted task; the model's normal
        run-to-completion guarantee (Section III-B) is suspended only
        at fault transitions.  Returns the removed task.
        """
        running = self.running
        if running is None:
            raise RuntimeError("no running task to interrupt")
        self.running = None
        self._running_pmf = None
        self.epoch += 1
        self._changed()
        return running

    def drain_queue(self) -> list[QueuedTask]:
        """Remove and return every queued task (fault orphaning), FIFO order."""
        if not self.queue:
            return []
        entries = list(self.queue)
        self.queue.clear()
        self._changed()
        self._queue_conv = None
        return entries

    def pop_next(self) -> QueuedTask | None:
        """Remove and return the next queued task (FIFO), if any."""
        if not self.queue:
            return None
        entry = self.queue.popleft()
        self._changed()
        self._queue_conv = None
        return entry

    # ------------------------------------------------------------------
    # Ready-time distribution
    # ------------------------------------------------------------------

    def _queue_convolution(self) -> PMF | None:
        """Cached convolution of queued tasks' execution pmfs."""
        if not self.queue:
            return None
        if self._queue_conv is None:
            self._queue_conv = convolve_many([e.exec_pmf for e in self.queue])
        return self._queue_conv

    def ready_pmf(self, t_now: float) -> PMF:
        """Distribution of when this core can start a newly-mapped task.

        An idle core is ready at ``t_now``; its resident row is the
        degenerate one, written once per idle spell.  A busy core's
        cached pmf is returned until a mutation or a ``t_now`` past its
        horizon; then it is refreshed in one step and its row rewritten.
        """
        if self._horizon < t_now - 1e-9:
            if self.running is None:
                ready = None
                horizon = math.inf
            else:
                qconv = self._queue_convolution()
                if qconv is None:
                    ready = truncate_below(self._running_pmf, t_now, cache=self._cache)
                    horizon = ready.start
                else:
                    ready, horizon = truncate_convolve(self._running_pmf, t_now, qconv)
            self._ready_pmf = ready
            self._horizon = horizon
            if self._rows is not None:
                self._rows.write(self._slot, ready, horizon)
        ready = self._ready_pmf
        return PMF.delta(t_now, self.dt) if ready is None else ready


class ReadyRows:
    """The resident ready-time rows of one core list.

    Core ``c`` of the list owns a slot of one flat arena ``data``: its
    ready CDF ``F`` of ``m`` bins sits reversed, ``F[k]`` at
    ``anchor[c] - k``, preceded by ``pad`` copies of ``F[m-1]`` and
    followed by ``pad`` zeros.  A window of up to ``pad`` entries read
    forward from ``anchor[c] - k`` therefore holds ``F[k], F[k-1], ...``
    clamped the way a CDF lookup clamps (``F[m-1]`` above the support, 0
    below it) for any ``k`` in ``[-1, m + pad - 2]``.  ``pad`` is the
    longest execution pmf the rows are weighed against.

    Slots are right-aligned on a fixed anchor, so the zeros are written
    once and a refresh writes only the copies and ``F``.  A CDF longer
    than its slot moves the core to a new slot at least twice as large
    at the end of the arena (the old one is abandoned); the arena grows
    by doubling.

    Per core, one record of ``meta`` (column views ``start``,
    ``horizon``, ``m1``, ``size``) describes the row: the ready pmf's
    start (``nan`` for an idle core, whose start is the reader's
    ``t_now``), the core's horizon (``inf`` for an idle core; ``-inf``
    once a mutation made the row stale), the first moment in grid steps
    (``nan`` until a reader needs it) and ``m``.  A row is stale for a
    reader at ``t_now`` when ``horizon < t_now - 1e-9``, exactly when
    :meth:`CoreState.ready_pmf` would refresh.  ``qlen``
    (tasks queued or running) is kept by every mutation.
    """

    __slots__ = (
        "pad",
        "data",
        "anchor",
        "meta",
        "start",
        "horizon",
        "m1",
        "size",
        "qlen",
        "_cap",
        "_top",
        "_used",
    )

    #: Bins per slot before a first move: above a typical ready pmf.
    SLOT = 256

    def __init__(self, cores: Sequence[CoreState], pad: int) -> None:
        C = len(cores)
        span = self.SLOT + 2 * pad
        self.pad = pad
        self.data = np.zeros(C * span)
        self.anchor = np.arange(C, dtype=np.int64) * span + (pad + self.SLOT - 1)
        self.meta = np.empty((C, 4))
        self.start, self.horizon, self.m1, self.size = self.meta.T
        self.horizon[:] = -math.inf
        self.qlen = np.array([core.assigned_count for core in cores], dtype=np.int64)
        self._cap = [self.SLOT] * C
        self._top = (self.anchor + 1).tolist()  # anchor + 1, for writes
        self._used = C * span
        for slot, core in enumerate(cores):
            core._rows = self
            core._slot = slot
            core._horizon = -math.inf  # the next read refreshes into this arena

    @classmethod
    def bind(cls, cores: Sequence[CoreState], pad: int) -> "ReadyRows":
        """The arena of ``cores``: the one they share, or a new one.

        Builders over the same core list share its arena.  A core keeps
        one row, so a core already bound to another list's arena (or to
        one padded for shorter pmfs) is refused.
        """
        rows = cores[0]._rows if cores else None
        # The arena keeps no reference back to its cores (that cycle
        # would hold every finished trial's cores, pmfs and arena until
        # a full garbage collection); each core knows its slot instead.
        if (
            rows is not None
            and rows.pad >= pad
            and rows.qlen.size == len(cores)
            and all(core._rows is rows and core._slot == i for i, core in enumerate(cores))
        ):
            return rows
        if any(core._rows is not None for core in cores):
            raise ValueError("a core's ready row belongs to another core list")
        return cls(cores, pad)

    def write(self, slot: int, ready: PMF | None, horizon: float) -> None:
        """Make ``ready`` (``None``: the idle core's) the slot's row.

        The CDF is accumulated straight into the slot (``PMF.cdf``'s
        cumulative sum, written reversed), so a refresh computes it once
        and keeps no second copy.
        """
        if ready is None:
            probs = _IDLE_PROBS
            start = math.nan
            m1 = 0.0
        else:
            probs = ready.probs
            start = ready.start
            m1 = ready._m1
            if m1 is None:
                m1 = math.nan
        m = probs.size
        if m > self._cap[slot]:
            self._move(slot, m)
        top = self._top[slot]
        low = top - m
        data = self.data
        probs.cumsum(out=data[low:top][::-1])
        data[low - self.pad : low] = data[low]
        self.meta[slot] = (start, horizon, m1, m)

    def _move(self, slot: int, m: int) -> None:
        cap = max(m, 2 * self._cap[slot])
        base = self._used
        used = base + cap + 2 * self.pad
        if used > self.data.size:
            grown = np.zeros(max(used, 2 * self.data.size))
            grown[:base] = self.data[:base]
            self.data = grown
        self.anchor[slot] = base + self.pad + cap - 1
        self._top[slot] = base + self.pad + cap
        self._cap[slot] = cap
        self._used = used


#: The probabilities of a degenerate (idle core's) ready pmf.
_IDLE_PROBS = np.ones(1)
_IDLE_PROBS.setflags(write=False)


class RollingEnergyBudget:
    """Token-bucket energy allowance for continuous service.

    The batch model grants the whole trial its budget up front
    (``zeta_max = budget_mult * t_avg * p_avg * num_tasks``); an
    always-on service has no trial to amortize over, so the allowance
    *accrues*: joules arrive at a constant ``rate`` and pool up to
    ``cap``, and every mapping draws its estimated energy cost from the
    pool.  The heuristic's energy estimate ``zeta`` becomes the pool's
    current level.

    Draws clamp at zero — the energy filter then sees an empty allowance
    (and prunes everything but the cheapest assignments) rather than a
    meaningless negative estimate; the clamped shortfall accumulates in
    :attr:`deficit` for diagnostics.  Invariant: ``0 <= remaining <=
    cap`` at all times.
    """

    __slots__ = ("rate", "cap", "_tokens", "_t", "_deficit", "_drawn")

    def __init__(self, rate: float, cap: float, *, initial: float | None = None) -> None:
        if rate < 0.0:
            raise ValueError(f"accrual rate must be non-negative, got {rate}")
        if not (cap > 0.0):
            raise ValueError(f"cap must be positive, got {cap}")
        tokens = cap if initial is None else float(initial)
        if not (0.0 <= tokens <= cap):
            raise ValueError(f"initial level {tokens} outside [0, {cap}]")
        self.rate = float(rate)
        self.cap = float(cap)
        self._tokens = tokens
        self._t = 0.0
        self._deficit = 0.0
        self._drawn = 0.0

    @property
    def remaining(self) -> float:
        """Allowance pooled as of the last :meth:`advance`, in joules."""
        return self._tokens

    @property
    def deficit(self) -> float:
        """Total joules requested beyond the pooled allowance."""
        return self._deficit

    @property
    def drawn(self) -> float:
        """Total joules requested by mappings."""
        return self._drawn

    @property
    def time(self) -> float:
        """Simulation time of the last :meth:`advance`."""
        return self._t

    def advance(self, t: float) -> float:
        """Accrue allowance up to time ``t``; return the new level."""
        if t < self._t:
            raise ValueError(f"time moved backwards: {t} < {self._t}")
        self._tokens = min(self.cap, self._tokens + self.rate * (t - self._t))
        self._t = t
        return self._tokens

    def peek(self, t: float | None = None) -> float:
        """The level an :meth:`advance` to ``t`` would return, read-only.

        ``t=None`` (or a time at/before the last advance) reads the
        current level.
        """
        if t is None or t <= self._t:
            return self._tokens
        return min(self.cap, self._tokens + self.rate * (t - self._t))

    def draw(self, joules: float) -> float:
        """Consume ``joules`` (clamped at empty); return the new level."""
        if joules < 0.0:
            raise ValueError(f"draw must be non-negative, got {joules}")
        self._drawn += joules
        short = joules - self._tokens
        if short > 0.0:
            self._deficit += short
            self._tokens = 0.0
        else:
            self._tokens -= joules
        return self._tokens
