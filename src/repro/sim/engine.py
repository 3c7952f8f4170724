"""The discrete-event engine: one (heuristic, filter) run over one trial.

Event model
-----------
Two event kinds drive the simulation:

* **arrival** — pulled lazily from the arrival stream (the workload's
  materialized Poisson burst in batch mode, an unbounded traffic
  generator in service mode); only the next pending arrival ever sits
  in the heap, so memory is independent of stream length.  The
  mapper scores all candidates, the filter chain prunes, the heuristic
  decides immediately (immediate-mode, [MaA99]); a task whose feasible
  set is empty is discarded.  Assignments are final: no re-mapping, no
  P-state change after commitment (Section III-B).
* **completion** — the running task's sampled actual execution time
  elapsed.  The core pops its FIFO queue; if empty it parks idle (the
  ledger records the transition; P-states change only while idle).

Ties at identical timestamps process completions before arrivals so a
just-freed core is visible to the mapper; remaining ties follow insertion
order (a monotone sequence number), keeping runs bit-reproducible.

Energy semantics
----------------
The heuristic maintains the paper's running estimate ``zeta(t_l)``
(budget minus EEC of every assignment), which only the energy filter
consults.  Ground truth comes from the transition ledger: after the run,
the first instant cumulative consumed energy crosses the budget is
computed, and on-time completions after that instant do not count
(DESIGN.md §4.4).
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from repro.cluster.availability import AvailabilityState
from repro.cluster.energy import IDLE_PSTATE, EnergyLedger, StreamingEnergyMeter
from repro.faults import (
    SHED_MIN_PROB,
    FaultPolicy,
    FaultSchedule,
    FaultStats,
    FaultTransition,
    SheddingConfig,
    make_admission,
)
from repro.filters.chain import FilterChain
from repro.heuristics.base import Assignment, Heuristic, MappingContext
from repro.perf.kernel_cache import CacheStats, PerfConfig
from repro.perf.trial_cache import TrialCache
from repro.sim.mapper import CandidateBuilder
from repro.sim.metrics import TraceCollector
from repro.sim.results import TaskOutcome, TrialResult
from repro.sim.state import CoreState, QueuedTask, RollingEnergyBudget, RunningTask
from repro.sim.system import TrialSystem
from repro.stoch.ops import set_kernel_backend, set_kernel_cache
from repro.workload.task import Task

__all__ = ["Engine", "EngineHooks", "Tracer", "run_trial"]

# Event kinds.  At one instant: completions first (a just-freed core is
# visible to the mapper), then fault transitions (an outage at t sees
# work that finished at t as done, and an arrival at t sees the degraded
# cluster), then stream arrivals, then deferred re-arrivals.  The
# relative order of completions and arrivals is unchanged from the
# pre-fault two-kind scheme, so zero-fault runs replay bit for bit.
_COMPLETION = 0
_FAULT = 1
_ARRIVAL = 2
_REARRIVAL = 3


class EngineHooks(Protocol):
    """Extension points invoked by the engine (all optional semantics).

    Implementations may mutate queues through the engine's public
    cancellation API; they must not touch running tasks (the model
    executes committed tasks to completion, Section III-B).
    """

    def on_mapped(self, engine: "Engine", task: Task, core_id: int, pstate: int) -> None:
        """Called after a successful mapping."""

    def on_discarded(self, engine: "Engine", task: Task) -> None:
        """Called when filtering leaves no feasible assignment."""

    def on_completion(self, engine: "Engine", core_id: int, task: Task, t_now: float) -> None:
        """Called after a task finishes and before the next one starts."""

    # Fault-layer callbacks are *optional*: the engine resolves them
    # with getattr at construction, so hook implementations written
    # before the fault model keep working unchanged.
    #
    #   on_fault(engine, transition: FaultTransition)
    #   on_orphaned(engine, task, core_id, disposition)
    #       disposition: "remapped" (displaced, re-placed), "lost"
    #       (displaced, no surviving placement), "killed" (running task
    #       terminated under the "lost" policy)
    #   on_shed(engine, task, cause, deferred: bool)


class Tracer(Protocol):
    """Structural interface for span profiling (duck-typed, optional).

    Anything with a ``span(name)`` context manager fits — in practice
    the observability layer's span recorder, but the engine deliberately
    knows only this shape so that package stays un-imported here.  With
    ``tracer=None`` (the default) the engine uses a shared null tracer
    whose ``span()`` hands back one no-op context manager, so an
    untraced event allocates nothing extra.
    """

    def span(self, name: str) -> object:
        """Return a context manager timing one named region."""


class _NullTracer:
    """The ``tracer=None`` stand-in: every span is one shared no-op."""

    __slots__ = ()
    _SPAN = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._SPAN


_NULL_TRACER = _NullTracer()

#: What :meth:`Engine._map` returns when its ``veto`` rejected the choice.
_VETOED = object()


@dataclass
class _PendingOutcome:
    core_id: int
    pstate: int
    start: float
    completion: float


class Engine:
    """Simulate one trial under a heuristic and filter chain.

    Parameters
    ----------
    system:
        The generated trial environment (shareable across variants).
    heuristic, filter_chain:
        The policy under test.
    collector:
        Optional :class:`~repro.sim.metrics.TraceCollector`.
    hooks:
        Optional :class:`EngineHooks` for extensions.
    tracer:
        Optional :class:`Tracer` timing each event handler as a span
        (``engine.arrival``, ``engine.completion``, ``engine.fault``,
        and ``engine.score`` around scoring).  ``None`` means a shared
        null tracer; the event loop is the same either way.
    perf:
        Hot-path performance knobs (:class:`~repro.perf.PerfConfig`);
        defaults to the kernel cache on and the numpy backend.  The
        cache is strictly results-neutral — see :mod:`repro.perf`.
        Deliberately *not* part of
        :class:`~repro.config.SimulationConfig`, so manifest/config
        digests are independent of how fast the run was computed.
    shared:
        Optional :class:`~repro.perf.TrialCache` carrying warm state
        from earlier specs of the same trial (kernel cache + builder
        type tables).  When given, the engine *reuses* its kernel cache
        (if both configs enable one) instead of building a private one;
        ``kernel_cache_stats`` still reports this run's own activity
        (counters are snapshotted at run start).  ``perf`` defaults to
        the handle's config when both are supplied by the runner.
    ledger:
        Energy accountant to record P-state transitions into; ``None``
        (the default) builds the full :class:`EnergyLedger`.  Service
        mode passes a bounded-memory
        :class:`~repro.cluster.energy.StreamingEnergyMeter` (which
        cannot be scored via :meth:`run` — use :meth:`serve`).
    rolling_budget:
        Optional :class:`~repro.sim.state.RollingEnergyBudget`.  When
        given, the heuristic's energy estimate ``zeta`` is the bucket's
        remaining allowance (advanced at each arrival, drawn down per
        mapping) instead of the batch ``budget - sum(EEC)`` estimate.
    tasks_left:
        Override for ``MappingContext.tasks_left``.  Batch mode derives
        it from the workload size; an unbounded stream has no size, so
        service mode pins it to a planning horizon (the energy filter's
        fair-share divisor).
    luck:
        Override for per-task execution luck: maps a task id to the
        uniform quantile of its sampled execution time.  ``None`` reads
        ``system.exec_luck`` (batch).
    track_outcomes:
        Keep the per-task outcome table needed by :meth:`run` scoring.
        Service mode turns it off so memory stays bounded; lateness is
        then classified at completion time by hooks.

    faults:
        Optional :class:`~repro.faults.FaultSchedule` of in-simulation
        node/core outages and slowdowns.  Fault transitions become heap
        events: on an outage the affected cores stop serving, their
        running tasks are lost or orphaned per ``fault_policy``, queued
        tasks are orphaned and re-mapped through the normal
        heuristic/filter stack against the surviving cluster, and the
        mapper's candidate mask excludes down capacity until recovery.
    fault_policy:
        :class:`~repro.faults.FaultPolicy` for work caught by outages
        (default: running tasks lost, orphans re-mapped).
    shedding:
        Optional :class:`~repro.faults.SheddingConfig`; arrivals are
        deferred or shed when its thresholds trip (overload protection).

    The five service parameters default to batch semantics; any engine
    constructed without them behaves bit-for-bit as before.  The same
    holds for the fault layer: ``faults=None`` (or an empty schedule)
    and ``shedding=None`` (or one with every check disabled) leave the
    event trajectory bitwise identical to the pre-fault engine — the
    zero-fault parity suite pins this.
    """

    def __init__(
        self,
        system: TrialSystem,
        heuristic: Heuristic,
        filter_chain: FilterChain,
        *,
        collector: TraceCollector | None = None,
        hooks: EngineHooks | None = None,
        tracer: Tracer | None = None,
        perf: PerfConfig | None = None,
        shared: TrialCache | None = None,
        ledger: EnergyLedger | StreamingEnergyMeter | None = None,
        rolling_budget: RollingEnergyBudget | None = None,
        tasks_left: int | None = None,
        luck: Callable[[int], float] | None = None,
        track_outcomes: bool = True,
        faults: FaultSchedule | None = None,
        fault_policy: FaultPolicy | None = None,
        shedding: SheddingConfig | None = None,
    ) -> None:
        self.system = system
        self.heuristic = heuristic
        self.filter_chain = filter_chain
        self.collector = collector
        self.hooks = hooks
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        if perf is None:
            perf = shared.perf if shared is not None else PerfConfig()
        self.perf = perf

        cluster = system.cluster
        dt = system.config.grid.dt
        self.cores: list[CoreState] = [
            CoreState(cid, int(cluster.core_node_index[cid]), dt)
            for cid in range(cluster.num_cores)
        ]
        shared_cache = shared.kernel if shared is not None else None
        if shared_cache is not None and self.perf.kernel_cache:
            self._kernel_cache = shared_cache
        else:
            self._kernel_cache = self.perf.make_cache()
        self._cache_base: CacheStats | None = None
        # Resolved once per engine (cheap after the first: loaded
        # backends are cached per process); installed into stoch.ops for
        # exactly the duration of run()/serve(), like the kernel cache.
        self._kernel_backend = self.perf.make_backend()
        self._builder = CandidateBuilder(
            self.cores,
            system.table,
            type_tables=shared.mapper_tables(system.table) if shared is not None else None,
            backend=self._kernel_backend,
        )
        self.ledger = (
            EnergyLedger(cluster, system.config.energy.idle_power_mode)
            if ledger is None
            else ledger
        )
        self.rolling_budget = rolling_budget
        self.energy_estimate = (
            system.budget if rolling_budget is None else rolling_budget.remaining
        )
        self._tasks_left_override = tasks_left
        self._luck = luck
        self._track_outcomes = track_outcomes
        self._in_system = 0

        self.fault_stats = FaultStats()
        self._fault_policy = fault_policy if fault_policy is not None else FaultPolicy()
        if faults is not None and faults.events:
            self._fault_transitions: tuple[FaultTransition, ...] = faults.transitions(
                cluster
            )
            self._availability: AvailabilityState | None = AvailabilityState(
                cluster.num_cores, cluster.num_pstates
            )
        else:
            self._fault_transitions = ()
            self._availability = None
        self._fault_next = 0
        self._shedder = (
            make_admission(shedding)
            if shedding is not None and shedding.enabled
            else None
        )
        # Optional fault-layer hooks, resolved once so pre-fault hook
        # implementations (which lack these methods) keep working.
        self._on_fault = getattr(hooks, "on_fault", None)
        self._on_orphaned = getattr(hooks, "on_orphaned", None)
        self._on_shed = getattr(hooks, "on_shed", None)

        # Heap payloads: the arriving Task, a completing (core id,
        # epoch) pair, or a FaultTransition.  ``seq`` is unique, so
        # payloads are never compared.
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._outcomes: dict[int, _PendingOutcome | None] = {}
        self._now = 0.0
        self._ran = False

    # ------------------------------------------------------------------
    # Introspection used by hooks / extensions
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def in_system(self) -> int:
        """Tasks queued or executing, cluster-wide."""
        return self._in_system

    @property
    def avg_queue_depth(self) -> float:
        """Tasks queued or executing per core, cluster-wide."""
        return self._in_system / len(self.cores)

    def kernel_cache_stats(self) -> CacheStats | None:
        """This run's kernel-cache activity (``None`` when disabled).

        With a private cache these are the cache's lifetime counters;
        with a shared :class:`~repro.perf.TrialCache` they are the
        deltas since this engine's ``run()`` started, so per-spec stats
        stay attributable (``entries`` is then the entries this run
        added).  The shared cache's trial-wide totals live on
        ``TrialCache.stats()``.
        """
        if self._kernel_cache is None:
            return None
        stats = self._kernel_cache.stats()
        if self._cache_base is not None:
            stats = stats.since(self._cache_base)
        return stats

    def cancel_queued(self, core_id: int, task_id: int) -> bool:
        """Cancellation extension: drop a *queued* (not running) task.

        The task becomes a discard (it will never complete).  Returns
        whether the task was found and removed.
        """
        entry = self.cores[core_id].remove_queued(task_id)
        if entry is None:
            return False
        self._in_system -= 1
        if self._track_outcomes:
            self._outcomes[task_id] = None  # rebranded as discarded
        return True

    def move_queued(
        self, from_core_id: int, task_id: int, to_core_id: int, pstate: int
    ) -> bool:
        """Rescheduling extension: relocate a *queued* task to another core.

        The baseline model forbids reassignment (Section III-B); this
        method exists for the Section VIII "reschedule tasks" extension
        and is only ever invoked by hooks that opt in.  The task keeps
        its identity; its pmf is re-resolved for the destination node and
        the heuristic's energy estimate is adjusted by the EEC delta.
        Starts immediately if the destination core is idle.  Returns
        whether the task was found and moved.
        """
        if from_core_id == to_core_id:
            return False
        entry = self.cores[from_core_id].remove_queued(task_id)
        if entry is None:
            return False
        task = entry.task
        to_core = self.cores[to_core_id]
        exec_pmf = self.system.table.pmf(task.type_id, to_core.node_index, pstate)
        new_entry = QueuedTask(task=task, pstate=pstate, exec_pmf=exec_pmf)
        eec = self.system.table.eec
        from_node = self.cores[from_core_id].node_index
        old_cost = float(eec[task.type_id, from_node, entry.pstate])
        new_cost = float(eec[task.type_id, to_core.node_index, pstate])
        self.energy_estimate -= new_cost - old_cost
        if self._track_outcomes:
            pending = self._outcomes[task_id]
            assert pending is not None
            pending.core_id = to_core_id
            pending.pstate = pstate
        if to_core.running is None:
            self._start_task(to_core, new_entry, self._now)
        else:
            to_core.enqueue(new_entry)
        return True

    # ------------------------------------------------------------------
    # Event helpers
    # ------------------------------------------------------------------

    def _push(self, time: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, kind, self._seq, payload))

    def _start_task(self, core: CoreState, entry: QueuedTask, t_now: float) -> None:
        """Begin executing ``entry`` on ``core`` at ``t_now``."""
        task_id = entry.task.task_id
        if self._luck is not None:
            luck = self._luck(task_id)
        else:
            luck = float(self.system.exec_luck[task_id])
        actual = entry.exec_pmf.quantile(luck)
        completion = t_now + actual
        core.set_running(
            RunningTask(
                task=entry.task,
                pstate=entry.pstate,
                exec_pmf=entry.exec_pmf,
                start_time=t_now,
                completion_time=completion,
            )
        )
        self.ledger.record(core.core_id, t_now, entry.pstate)
        if self._track_outcomes:
            pending = self._outcomes[task_id]
            assert pending is not None
            pending.start = t_now
            pending.completion = completion
        # The epoch invalidates this completion if an outage interrupts
        # the task before it finishes (the stale event is then skipped).
        self._push(completion, _COMPLETION, (core.core_id, core.epoch))

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _budget_frac(self) -> float | None:
        """Remaining energy allowance as a fraction of its cap (or budget)."""
        if self.rolling_budget is not None:
            return self.rolling_budget.remaining / self.rolling_budget.cap
        budget = self.system.budget
        if budget <= 0.0:
            return None
        return max(0.0, self.energy_estimate / budget)

    def _shed(self, task: Task, t_now: float, cause: str) -> None:
        """Terminally drop an arrival under overload (not a discard)."""
        self._shedder.settle(task.task_id)
        self.fault_stats.shed += 1
        if self._track_outcomes:
            self._outcomes[task.task_id] = None
        if self._on_shed is not None:
            self._on_shed(self, task, cause, False)

    def _handle_arrival(self, task: Task, t_now: float) -> None:
        """An arrival passes admission, is mapped, and meets the rho floor."""
        veto = None
        if self._shedder is not None:
            if self.rolling_budget is not None:
                # Admission reads the allowance at t_now; the advance in
                # _map to the same instant is then a no-op.
                self.energy_estimate = self.rolling_budget.advance(t_now)
            action, cause = self._shedder.admit(
                task.task_id, self.avg_queue_depth, self._budget_frac()
            )
            if action == "defer":
                self.fault_stats.deferred += 1
                self._push(t_now + self._shedder.config.defer, _REARRIVAL, task)
                if self._on_shed is not None:
                    self._on_shed(self, task, cause, True)
                return
            if action == "shed":
                self._shed(task, t_now, cause)
                return
            veto = self._shedder.below_prob_floor
        placed = self._map(task, t_now, veto)
        if placed is _VETOED:
            # Probabilistic pruning: the best surviving assignment is
            # still too unlikely to finish on time to be worth its
            # energy.  Recorded as a shed, not a discard.
            self._shed(task, t_now, SHED_MIN_PROB)
        elif placed is None:
            if self._track_outcomes:
                self._outcomes[task.task_id] = None
            if self.hooks is not None:
                self.hooks.on_discarded(self, task)
        elif self.hooks is not None:
            self.hooks.on_mapped(self, task, placed.core_id, placed.pstate)

    def _map(
        self, task: Task, t_now: float, veto: Callable[[float], bool] | None = None
    ) -> Assignment | object | None:
        """The mapping step: place ``task`` at ``t_now`` or report why not.

        Arrivals and re-mapped orphans both come through here: advance
        the rolling budget, score every (core, P-state) candidate, mask
        out down capacity, filter, select, commit.  An orphan is scored
        against its *original* deadline at the current time, its
        re-map's EEC is charged to the energy estimate (re-execution
        costs real joules), and it keeps its luck quantile, so the
        re-run is deterministic.

        Returns the committed :class:`Assignment`, ``None`` when no
        candidate survives, or ``_VETOED`` when ``veto`` rejects the
        chosen candidate's on-time probability (nothing is committed).
        """
        if self.rolling_budget is not None:
            self.energy_estimate = self.rolling_budget.advance(t_now)
        if self._tasks_left_override is None:
            tasks_left = self.system.num_tasks - task.task_id - 1
        else:
            tasks_left = self._tasks_left_override
        ctx = MappingContext(
            t_now=t_now,
            task=task,
            energy_estimate=self.energy_estimate,
            tasks_left=tasks_left,
            avg_queue_depth=self.avg_queue_depth,
        )
        cands = self._builder.build(task, t_now)
        if self._availability is not None:
            np.logical_and(cands.mask, self._availability.mask, out=cands.mask)
        self.filter_chain.apply(cands, ctx)
        index = self.heuristic.select(cands, ctx)
        if index is None or (veto is not None and veto(float(cands.prob_on_time[index]))):
            if self.collector is not None:
                self.collector.record_mapping(
                    t_now, ctx.avg_queue_depth, self.energy_estimate, -1, cands.num_feasible
                )
            return None if index is None else _VETOED

        assignment = cands.assignment(index)
        eec = float(cands.eec[index])
        if self.rolling_budget is not None:
            self.energy_estimate = self.rolling_budget.draw(eec)
        else:
            self.energy_estimate -= eec
        core = self.cores[assignment.core_id]
        exec_pmf = self.system.table.pmf(task.type_id, core.node_index, assignment.pstate)
        entry = QueuedTask(task=task, pstate=assignment.pstate, exec_pmf=exec_pmf)
        if self._track_outcomes:
            self._outcomes[task.task_id] = _PendingOutcome(
                core_id=assignment.core_id,
                pstate=assignment.pstate,
                start=float("nan"),
                completion=float("nan"),
            )
        self._in_system += 1
        if core.running is None:
            self._start_task(core, entry, t_now)
        else:
            core.enqueue(entry)
        if self.collector is not None:
            self.collector.record_mapping(
                t_now,
                ctx.avg_queue_depth,
                self.energy_estimate,
                assignment.pstate,
                cands.num_feasible,
                chosen_prob=float(cands.prob_on_time[index]),
            )
        return assignment

    def _handle_completion(self, payload: tuple[int, int], t_now: float) -> bool:
        core_id, epoch = payload
        core = self.cores[core_id]
        if core.epoch != epoch:
            # Stale event: the task this completion was scheduled for
            # was interrupted by an outage before it could finish.
            return False
        running = core.running
        assert running is not None, "completion event for an idle core"
        core.clear_running()
        self._in_system -= 1
        if self.hooks is not None:
            self.hooks.on_completion(self, core_id, running.task, t_now)
        if core.running is not None:
            return True  # a hook (e.g. work stealing) already started new work
        nxt = core.pop_next()
        if nxt is not None:
            self._start_task(core, nxt, t_now)
        else:
            self.ledger.record(core_id, t_now, IDLE_PSTATE)
        return True

    def _handle_fault(self, transition: FaultTransition, t_now: float) -> None:
        """Fold one fail/recover edge into cluster state and recover work."""
        stats = self.fault_stats
        self._availability.apply(transition)
        if transition.action == "recover":
            # Capacity rejoins: the refreshed mask is all the mapper
            # needs; down cores were drained when they failed.
            if transition.is_outage:
                stats.recoveries += 1
            if self._on_fault is not None:
                self._on_fault(self, transition)
            return
        if not transition.is_outage:
            # Slowdown: committed work keeps its P-state (assignments
            # are final, Section III-B); only future mappings are capped.
            stats.slowdowns += 1
            if self._on_fault is not None:
                self._on_fault(self, transition)
            return

        stats.outages += 1
        policy = self._fault_policy
        orphans: list[tuple[Task, int]] = []
        for core_id in transition.core_ids:
            core = self.cores[core_id]
            if core.running is not None:
                running = core.interrupt()
                self._in_system -= 1
                self.ledger.record(core_id, t_now, IDLE_PSTATE)
                if policy.running == "resume":
                    orphans.append((running.task, core_id))
                else:
                    stats.lost += 1
                    if self._track_outcomes:
                        self._outcomes[running.task.task_id] = None
                    if self._on_orphaned is not None:
                        self._on_orphaned(self, running.task, core_id, "killed")
            for entry in core.drain_queue():
                self._in_system -= 1
                orphans.append((entry.task, core_id))
        if self._on_fault is not None:
            self._on_fault(self, transition)
        # Re-map displaced work in task order through the normal stack
        # against the surviving cluster; failures become losses.
        orphans.sort(key=lambda pair: pair[0].task_id)
        for task, core_id in orphans:
            stats.orphaned += 1
            if policy.remap and self._map(task, t_now) is not None:
                stats.remapped += 1
                if self._on_orphaned is not None:
                    self._on_orphaned(self, task, core_id, "remapped")
            else:
                stats.lost += 1
                if self._track_outcomes:
                    self._outcomes[task.task_id] = None
                if self._on_orphaned is not None:
                    self._on_orphaned(self, task, core_id, "lost")

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> TrialResult:
        """Execute the trial to completion and score it.

        The engine's kernel cache (when enabled) is installed into
        :mod:`repro.stoch.ops` for exactly the duration of this call, so
        nothing is shared across trials and the module global is always
        restored — even on an exception.
        """
        if not self._track_outcomes:
            raise RuntimeError("run() needs outcome tracking; use serve()")
        if self._ran:
            raise RuntimeError("an Engine instance runs exactly once")
        self._ran = True

        if self._kernel_cache is not None:
            # Baseline for per-run stat attribution; all zeros for a
            # private cache, the previous specs' totals for a shared one.
            self._cache_base = self._kernel_cache.stats()
        previous_cache = set_kernel_cache(self._kernel_cache)
        previous_backend = set_kernel_backend(self._kernel_backend)
        try:
            end_time = self._event_loop(iter(self.system.workload.tasks))
            self.ledger.close(end_time)
            with self.tracer.span("engine.score"):
                return self._score(end_time)
        finally:
            set_kernel_backend(previous_backend)
            set_kernel_cache(previous_cache)

    def serve(self, arrivals: Iterable[Task]) -> float:
        """Drive the engine from an arrival stream; return the end time.

        The continuous-service entrypoint: tasks are pulled lazily from
        ``arrivals`` (which may be unbounded — bound it with a horizon or
        task limit before passing it in), committed work drains after the
        stream ends, and no :class:`TrialResult` is scored — windowed
        accounting happens in hooks.  A finite stream replaying the
        workload's own tasks traverses exactly the event trajectory of
        :meth:`run`.
        """
        if self._ran:
            raise RuntimeError("an Engine instance runs exactly once")
        self._ran = True
        if self._kernel_cache is not None:
            self._cache_base = self._kernel_cache.stats()
        previous_cache = set_kernel_cache(self._kernel_cache)
        previous_backend = set_kernel_backend(self._kernel_backend)
        try:
            end_time = self._event_loop(iter(arrivals))
            self.ledger.close(end_time)
            return end_time
        finally:
            set_kernel_backend(previous_backend)
            set_kernel_cache(previous_cache)

    def _event_loop(self, arrivals: Iterator[Task]) -> float:
        """Drain events, pulling arrivals lazily; returns the last event time.

        At most one pending arrival lives in the heap: the next one is
        pulled from the stream only when its predecessor pops.  Pushes
        stay in event-causal order, so same-``(time, kind)`` ties resolve
        exactly as the old materialized scheme did (arrivals in stream
        order, completions in schedule order) and finite streams replay
        the batch trajectory bit for bit — while unbounded streams hold
        O(1) future events.
        """
        end_time = 0.0
        tracer = self.tracer
        nxt = next(arrivals, None)
        if nxt is not None:
            self._push(nxt.arrival, _ARRIVAL, nxt)
        # Fault transitions are pulled lazily like arrivals: one pending
        # edge in the heap at a time.  Fault events never advance
        # ``end_time`` (they do no work themselves), so a recovery
        # scheduled past the last completion cannot inflate makespan.
        transitions = self._fault_transitions
        self._fault_next = 0
        if transitions:
            self._fault_next = 1
            self._push(transitions[0].time, _FAULT, transitions[0])
        while self._heap:
            time, kind, _seq, payload = heapq.heappop(self._heap)
            self._now = time
            if kind == _COMPLETION:
                with tracer.span("engine.completion"):
                    if self._handle_completion(payload, time):
                        end_time = max(end_time, time)
            elif kind == _FAULT:
                if self._fault_next < len(transitions):
                    nxt_tr = transitions[self._fault_next]
                    self._fault_next += 1
                    self._push(nxt_tr.time, _FAULT, nxt_tr)
                with tracer.span("engine.fault"):
                    self._handle_fault(payload, time)
            elif kind == _ARRIVAL:
                end_time = max(end_time, time)
                nxt = next(arrivals, None)
                if nxt is not None:
                    self._push(nxt.arrival, _ARRIVAL, nxt)
                with tracer.span("engine.arrival"):
                    self._handle_arrival(payload, time)
            else:  # _REARRIVAL: a deferred task retries, no stream pull
                end_time = max(end_time, time)
                with tracer.span("engine.arrival"):
                    self._handle_arrival(payload, time)
        return end_time

    def score(self, end_time: float) -> TrialResult:
        """Score a finished :meth:`serve` run of the full workload.

        Only valid after the engine drained a stream that offered every
        workload task (a complete, untruncated replay): scoring walks
        ``system.workload.tasks`` and treats anything unseen as missed.
        Such a replay traverses exactly the trajectory of :meth:`run`,
        so the result matches the batch score bit for bit.
        """
        if not self._track_outcomes:
            raise RuntimeError("score() needs outcome tracking")
        if not self._ran:
            raise RuntimeError("score() comes after serve()")
        return self._score(end_time)

    def _score(self, end_time: float) -> TrialResult:
        system = self.system
        exhaustion = self.ledger.exhaustion_time(system.budget)
        outcomes: list[TaskOutcome] = []
        discarded = late = cutoff = within = 0
        for task in system.workload.tasks:
            pending = self._outcomes.get(task.task_id)
            if pending is None:
                discarded += 1
                outcomes.append(
                    TaskOutcome(
                        task_id=task.task_id,
                        type_id=task.type_id,
                        arrival=task.arrival,
                        deadline=task.deadline,
                        core_id=-1,
                        pstate=-1,
                        start=float("nan"),
                        completion=float("nan"),
                        discarded=True,
                    )
                )
                continue
            outcome = TaskOutcome(
                task_id=task.task_id,
                type_id=task.type_id,
                arrival=task.arrival,
                deadline=task.deadline,
                core_id=pending.core_id,
                pstate=pending.pstate,
                start=pending.start,
                completion=pending.completion,
                discarded=False,
            )
            outcomes.append(outcome)
            if not outcome.on_time():
                late += 1
            elif outcome.completion > exhaustion:
                cutoff += 1
            else:
                within += 1
        missed = discarded + late + cutoff
        return TrialResult(
            heuristic=self.heuristic.name,
            variant=self.filter_chain.label,
            seed=system.config.seed,
            num_tasks=system.num_tasks,
            missed=missed,
            completed_within=within,
            discarded=discarded,
            late=late,
            energy_cutoff=cutoff,
            total_energy=self.ledger.total_energy(),
            budget=system.budget,
            exhaustion_time=exhaustion,
            makespan=end_time,
            outcomes=tuple(outcomes),
        )


def run_trial(
    system: TrialSystem,
    heuristic: Heuristic,
    filter_chain: FilterChain,
    *,
    collector: TraceCollector | None = None,
    hooks: EngineHooks | None = None,
    tracer: Tracer | None = None,
    perf: PerfConfig | None = None,
    shared: TrialCache | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    shedding: SheddingConfig | None = None,
) -> TrialResult:
    """Convenience wrapper: construct an :class:`Engine` and run it."""
    return Engine(
        system,
        heuristic,
        filter_chain,
        collector=collector,
        hooks=hooks,
        tracer=tracer,
        perf=perf,
        shared=shared,
        faults=faults,
        fault_policy=fault_policy,
        shedding=shedding,
    ).run()
