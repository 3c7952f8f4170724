"""Per-core runtime state with cached ready-time distributions.

The dominant cost of a mapping event is computing, for every core, the
*ready-time* pmf — the completion distribution of everything already on
the core (Section IV-B).  :class:`CoreState` caches both pieces:

* the convolution of queued tasks' execution pmfs, maintained
  *incrementally* on enqueue whenever that is exact (appending a pmf at
  least as long as every queued one convolves last in the sorted fold of
  :func:`~repro.stoch.ops.convolve_many`, so one incremental convolution
  reproduces the full recomputation bit for bit) and invalidated
  otherwise, and
* the running task's truncated completion pmf.  Its untruncated form,
  the execution pmf shifted to the start time, is built once when the
  task starts rather than on every recompute.  Truncation at a later
  time ``t`` changes nothing as long as the cached distribution has no
  impulse before ``t``, so the cache records its first-impulse time and
  stays valid across most events — typically only cores whose predicted
  completion is overdue recompute.  Those truncations go through the
  engine's :class:`~repro.perf.KernelCache`, handed to every core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.perf.kernel_cache import KernelCache
from repro.stoch.ops import convolve, convolve_many, shift, truncate_below
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = ["RunningTask", "QueuedTask", "CoreState", "RollingEnergyBudget"]


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
    Results are bitwise identical either way.
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
        "_version",
        "_queue_conv",
        "_queue_maxlen",
        "_ready_version",
        "_ready_pmf",
        "_ready_trunc_start",
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
        self._version = 0
        self._queue_conv: PMF | None = None
        self._queue_maxlen = 0
        self._ready_version = -1
        self._ready_pmf: PMF | None = None
        self._ready_trunc_start = 0.0

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
    # Mutations (each bumps the cache version)
    # ------------------------------------------------------------------

    def enqueue(self, entry: QueuedTask) -> None:
        """Append a task to the core's FIFO queue.

        The cached queue convolution is extended *incrementally* when
        that is provably exact: ``convolve_many`` folds smallest-first
        with a stable sort, so a new pmf no shorter than every queued
        one would convolve last anyway, and
        ``convolve(cached, new)`` reproduces the full recomputation
        bitwise.  Shorter pmfs fall back to invalidation (the kernel
        cache makes the eventual recomputation cheap).
        """
        if self.running is None:
            raise RuntimeError("enqueue on an idle core; start the task instead")
        n = len(entry.exec_pmf)
        if not self.queue:
            # convolve_many([x]) is x itself.
            self._queue_conv = entry.exec_pmf
            self._queue_maxlen = n
        elif self._queue_conv is not None and n >= self._queue_maxlen:
            self._queue_conv = convolve(self._queue_conv, entry.exec_pmf)
            self._queue_maxlen = n
        else:
            self._queue_conv = None
        self.queue.append(entry)
        self._version += 1

    def set_running(self, running: RunningTask) -> None:
        """Begin executing a task (the core must not be busy)."""
        if self.running is not None:
            raise RuntimeError("core already running a task")
        self.running = running
        self._running_pmf = shift(running.exec_pmf, running.start_time)
        self._version += 1

    def clear_running(self) -> None:
        """Mark the running task finished."""
        if self.running is None:
            raise RuntimeError("no running task to clear")
        self.running = None
        self._running_pmf = None
        self._version += 1

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
        self._version += 1
        return running

    def drain_queue(self) -> list[QueuedTask]:
        """Remove and return every queued task (fault orphaning), FIFO order."""
        if not self.queue:
            return []
        entries = list(self.queue)
        self.queue.clear()
        self._version += 1
        self._queue_conv = None
        return entries

    def pop_next(self) -> QueuedTask | None:
        """Remove and return the next queued task (FIFO), if any."""
        if not self.queue:
            return None
        entry = self.queue.popleft()
        self._version += 1
        self._queue_conv = None
        return entry

    def remove_queued(self, task_id: int) -> QueuedTask | None:
        """Remove a specific queued task (cancellation extension)."""
        for entry in self.queue:
            if entry.task.task_id == task_id:
                self.queue.remove(entry)
                self._version += 1
                self._queue_conv = None
                return entry
        return None

    # ------------------------------------------------------------------
    # Ready-time distribution
    # ------------------------------------------------------------------

    def _queue_convolution(self) -> PMF | None:
        """Cached convolution of queued tasks' execution pmfs."""
        if not self.queue:
            return None
        if self._queue_conv is None:
            self._queue_conv = convolve_many([e.exec_pmf for e in self.queue])
            self._queue_maxlen = max(len(e.exec_pmf) for e in self.queue)
        return self._queue_conv

    def ready_pmf(self, t_now: float) -> PMF:
        """Distribution of when this core can start a newly-mapped task."""
        if self.running is None:
            return PMF.delta(t_now, self.dt)
        if (
            self._ready_version == self._version
            and self._ready_pmf is not None
            and self._ready_trunc_start >= t_now - 1e-9
        ):
            return self._ready_pmf
        running_c = truncate_below(self._running_pmf, t_now, cache=self._cache)
        qconv = self._queue_convolution()
        ready = running_c if qconv is None else convolve(running_c, qconv)
        self._ready_version = self._version
        self._ready_pmf = ready
        self._ready_trunc_start = running_c.start
        return ready


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
