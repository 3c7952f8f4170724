"""Adapting the engine's ``EngineHooks`` subscriber channel to event sinks.

:class:`ObservingHooks` is the only place event objects are constructed,
and :func:`observe_trial` subscribes it only when a sink or metrics
registry listens (and a timeline recorder only when one is given), so
the engine hot path stays allocation-free when observability is off.

:func:`observe_trial` wraps one :class:`repro.sim.engine.Engine` run
with the trial-lifecycle events (``TrialStarted``, ``EnergyExhausted``,
``TrialFinished``) that the per-event subscriber callbacks cannot see.
With a span profile it times every heuristic decision via
:class:`TimedHeuristic`, every filter evaluation via
:class:`TimedFilterChain` and the engine's own event handlers via the
``tracer`` hook; with a metrics registry it counts every pmf operation
via the :mod:`repro.stoch.ops` observer — all strictly opt-in.  Wall
time goes to the profile only, so a metrics file is a deterministic
function of the run.  It holds the engine instance so the kernel
cache's final counters can be folded into the metrics registry after
the run.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

from repro.filters.chain import FilterChain
from repro.heuristics.base import CandidateSet, Heuristic, MappingContext
from repro.faults import FaultPolicy, FaultSchedule, FaultTransition, SheddingConfig
from repro.obs.events import (
    EnergyExhausted,
    Event,
    FaultInjected,
    TaskCompleted,
    TaskDiscarded,
    TaskMapped,
    TaskOrphaned,
    TaskShed,
    TrialFinished,
    TrialStarted,
)
from repro.obs.sinks import DEPTH_EDGES, GRID_EDGES, EventSink, MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.timeline import TimelineRecorder
from repro.perf.kernel_cache import KernelCache
from repro.sim.engine import Engine, EngineHooks
from repro.sim.results import TrialResult
from repro.sim.system import TrialSystem
from repro.stoch.ops import set_op_observer
from repro.workload.task import Task

__all__ = [
    "ObservingHooks",
    "TimedHeuristic",
    "TimedFilterChain",
    "observe_trial",
]


class ObservingHooks(EngineHooks):
    """``EngineHooks`` subscriber that fans events out to sinks.

    Parameters
    ----------
    sinks:
        Zero or more event sinks (``JsonlSink``, ``RingBufferSink``, any
        object with ``emit``).
    metrics:
        Optional registry; when given, mapping/discard/completion
        counters and the queue-depth histogram are updated per event.
    """

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sinks = tuple(sinks)
        self.metrics = metrics

    def _emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- EngineHooks -------------------------------------------------------

    def on_mapped(self, engine: "Engine", task: Task, core_id: int, pstate: int) -> None:
        depth = engine.avg_queue_depth
        self._emit(
            TaskMapped(
                t=engine.now,
                task_id=task.task_id,
                type_id=task.type_id,
                core_id=core_id,
                pstate=pstate,
                energy_estimate=engine.energy_estimate,
                queue_depth=depth,
            )
        )
        if self.metrics is not None:
            self.metrics.inc("tasks_mapped")
            self.metrics.observe("queue_depth", depth, DEPTH_EDGES)

    def on_discarded(self, engine: "Engine", task: Task) -> None:
        event = TaskDiscarded(t=engine.now, task_id=task.task_id, type_id=task.type_id)
        self._emit(event)
        if self.metrics is not None:
            self.metrics.inc(f"tasks_discarded.{event.cause}")

    def on_completion(self, engine: "Engine", core_id: int, task: Task, t_now: float) -> None:
        self._emit(
            TaskCompleted(
                t=t_now, task_id=task.task_id, type_id=task.type_id, core_id=core_id
            )
        )
        if self.metrics is not None:
            self.metrics.inc("tasks_completed")

    # -- fault-layer hooks (only called when faults/shedding are active) --

    def on_fault(self, engine: "Engine", transition: FaultTransition) -> None:
        event = transition.event
        self._emit(
            FaultInjected(
                t=engine.now,
                fault=event.kind,
                action=transition.action,
                target=event.target,
                cores=len(transition.core_ids),
            )
        )
        if self.metrics is not None:
            self.metrics.inc(f"faults.{transition.action}.{event.kind}")

    def on_orphaned(self, engine: "Engine", task: Task, core_id: int, disposition: str) -> None:
        self._emit(
            TaskOrphaned(
                t=engine.now,
                task_id=task.task_id,
                type_id=task.type_id,
                core_id=core_id,
                disposition=disposition,
            )
        )
        if self.metrics is not None:
            self.metrics.inc(f"tasks_orphaned.{disposition}")

    def on_shed(self, engine: "Engine", task: Task, cause: str, deferred: bool) -> None:
        self._emit(
            TaskShed(
                t=engine.now,
                task_id=task.task_id,
                type_id=task.type_id,
                cause=cause,
                deferred=deferred,
            )
        )
        if self.metrics is not None:
            self.metrics.inc("tasks_deferred" if deferred else f"tasks_shed.{cause}")

    # -- trial lifecycle (called by observe_trial) ----------------------

    def trial_started(self, system: TrialSystem, heuristic: Heuristic, chain: FilterChain) -> None:
        """Emit the ``TrialStarted`` envelope event."""
        self._emit(
            TrialStarted(
                seed=system.config.seed,
                num_tasks=system.num_tasks,
                heuristic=heuristic.name,
                variant=chain.label,
                budget=system.budget,
            )
        )
        if self.metrics is not None:
            self.metrics.inc("trials_run")

    def trial_finished(self, result: TrialResult) -> None:
        """Emit ``EnergyExhausted`` (when it happened) and ``TrialFinished``."""
        if math.isfinite(result.exhaustion_time):
            self._emit(EnergyExhausted(t=result.exhaustion_time, budget=result.budget))
            if self.metrics is not None:
                self.metrics.inc("energy_exhaustions")
        self._emit(
            TrialFinished(
                makespan=result.makespan,
                missed=result.missed,
                completed_within=result.completed_within,
                discarded=result.discarded,
                late=result.late,
                energy_cutoff=result.energy_cutoff,
                total_energy=result.total_energy,
            )
        )


class TimedHeuristic(Heuristic):
    """Decorator: time every ``select`` call as a ``heuristic.<name>`` span.

    Timing wraps the heuristic *outside* the engine, so the engine stays
    oblivious to observability and the measured span is exactly the
    decision (mask argmin etc.), not candidate construction.
    """

    def __init__(self, inner: Heuristic, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = inner.name
        self._span_name = f"heuristic.{inner.name}"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        t0 = time.perf_counter()
        index = self.inner.select(cands, ctx)
        self.recorder.add(self._span_name, t0, time.perf_counter() - t0)
        return index

    def __repr__(self) -> str:
        return f"TimedHeuristic({self.inner!r})"


class TimedFilterChain(FilterChain):
    """Decorator chain: span every evaluation (chain + per-filter).

    Rebuilt from the inner chain's filters, so ``label`` — and therefore
    the variant name stamped on :class:`~repro.sim.results.TrialResult`
    — is unchanged; only ``apply`` gains spans.
    """

    def __init__(self, inner: FilterChain, recorder: SpanRecorder) -> None:
        super().__init__(inner.filters)
        self._recorder = recorder
        self._span_names = tuple(f"filter.{f.label}" for f in inner.filters)

    def apply(self, cands: CandidateSet, ctx: MappingContext) -> None:
        recorder = self._recorder
        with recorder.span("filters.chain"):
            for f, name in zip(self._filters, self._span_names):
                with recorder.span(name):
                    f.apply(cands, ctx)


class _StochObserver:
    """Counts pmf operations and their grid sizes into a registry.

    Installed via :func:`repro.stoch.ops.set_op_observer` for the
    duration of one observed trial: ``stoch.ops.<op>`` counters plus a
    ``stoch.grid.<op>`` histogram of support lengths per operation.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics

    def __call__(self, op: str, grid_size: int) -> None:
        self.metrics.inc(f"stoch.ops.{op}")
        self.metrics.observe(f"stoch.grid.{op}", float(grid_size), GRID_EDGES)


def observe_trial(
    system: TrialSystem,
    heuristic: Heuristic,
    filter_chain: FilterChain,
    *,
    sinks: Sequence[EventSink] = (),
    metrics: MetricsRegistry | None = None,
    profile: SpanRecorder | None = None,
    timeline: TimelineRecorder | None = None,
    kernel_cache: KernelCache | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    shedding: SheddingConfig | None = None,
) -> TrialResult:
    """Run one trial, with whatever observability is attached.

    The one trial driver behind :func:`repro.api.run_trial` and the
    ensemble runner.  The engine's subscribers are the
    :class:`ObservingHooks` adapter (if ``sinks`` or ``metrics`` listen)
    and then ``timeline``, so an unobserved trial runs without
    subscribers and allocates no events.  Identical simulation semantics
    to a bare ``Engine(...).run()`` — hooks observe, they never steer,
    decision timing wraps the heuristic without touching its choices,
    and span/timeline collection reads state it never mutates — so
    results are bitwise equal with tracing, metrics, profiling and
    timelines on or off, in any combination.  The kernel cache's final
    counters are summarized into ``perf.cache.*`` metrics (the
    per-lookup ``stoch.ops.cache_*`` counters stream in live through the
    op observer).

    ``kernel_cache`` is forwarded to the engine (``None``: a private
    :class:`~repro.perf.KernelCache`).  When one cache serves several
    runs (the runner's one per trial), the totals folded into the
    registry are still this run's *own* activity (the engine baselines
    the cache's counters at run start), and the same deltas additionally
    land under per-spec keys ``perf.cache.<counter>.<heuristic>/<variant>``
    so a merged ensemble registry stays attributable.

    ``faults``/``fault_policy``/``shedding`` thread the in-simulation
    fault layer (see :mod:`repro.faults`) through to the engine; the
    adapter then also emits ``FaultInjected``/``TaskOrphaned``/
    ``TaskShed`` events and the matching ``faults.*``/``tasks_*``
    counters.  Left at ``None``, the run is bitwise identical to a
    fault-free trial.
    """
    adapter = ObservingHooks(sinks, metrics=metrics) if sinks or metrics is not None else None
    hooks = tuple(hook for hook in (adapter, timeline) if hook is not None)
    engine_heuristic: Heuristic = heuristic
    engine_chain = filter_chain
    if profile is not None:
        engine_heuristic = TimedHeuristic(heuristic, profile)
        engine_chain = TimedFilterChain(filter_chain, profile)
    previous_observer = None
    if metrics is not None:
        previous_observer = set_op_observer(_StochObserver(metrics))
    try:
        if adapter is not None:
            adapter.trial_started(system, heuristic, filter_chain)
        engine = Engine(
            system,
            engine_heuristic,
            engine_chain,
            hooks=hooks,
            tracer=profile,
            kernel_cache=kernel_cache,
            faults=faults,
            fault_policy=fault_policy,
            shedding=shedding,
        )
        if profile is not None:
            with profile.span(f"trial.run.{heuristic.name}/{filter_chain.label}"):
                result = engine.run()
        else:
            result = engine.run()
        if adapter is not None:
            adapter.trial_finished(result)
        if metrics is not None:
            stats = engine.kernel_cache_stats()
            label = f"{heuristic.name}/{filter_chain.label}"
            for counter, value in (
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("evictions", stats.evictions),
                ("entries", stats.entries),
            ):
                metrics.inc(f"perf.cache.{counter}", value)
                metrics.inc(f"perf.cache.{counter}.{label}", value)
        return result
    finally:
        if metrics is not None:
            set_op_observer(previous_observer)
