"""Adapting the engine's ``EngineHooks`` protocol to event sinks.

:class:`ObservingHooks` is the only place event objects are constructed:
``run_trial`` with ``hooks=None`` (the default) touches none of this
module, so the engine hot path stays allocation-free when observability
is off.

:func:`observe_trial` wraps one :class:`repro.sim.engine.Engine` run
with the trial-lifecycle events (``TrialStarted``, ``EnergyExhausted``,
``TrialFinished``) that the per-event hook protocol cannot see, and
optionally times every heuristic decision via :class:`TimedHeuristic`,
every filter evaluation via :class:`TimedFilterChain`, every pmf
operation via the :mod:`repro.stoch.ops` observer, and the engine's own
event handlers via the ``tracer`` hook — all strictly opt-in.  It holds
the engine instance itself (rather than going through the
``run_trial`` convenience wrapper) so the kernel cache's final counters
can be folded into the metrics registry after the run.
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
from repro.obs.sinks import (
    DEPTH_EDGES,
    GRID_EDGES,
    LATENCY_EDGES,
    EventSink,
    MetricsRegistry,
)
from repro.obs.spans import SpanRecorder
from repro.obs.timeline import TimelineRecorder
from repro.perf.kernel_cache import PerfConfig
from repro.perf.trial_cache import TrialCache
from repro.sim.engine import Engine
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


class ObservingHooks:
    """``EngineHooks`` implementation that fans events out to sinks.

    Parameters
    ----------
    sinks:
        Zero or more event sinks (``JsonlSink``, ``RingBufferSink``, any
        object with ``emit``).
    metrics:
        Optional registry; when given, mapping/discard/completion
        counters and the queue-depth histogram are updated per event.
    timeline:
        Optional :class:`~repro.obs.timeline.TimelineRecorder`; when
        given, system-state snapshots are sampled on its sim-time grid.
    """

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        *,
        metrics: MetricsRegistry | None = None,
        timeline: TimelineRecorder | None = None,
    ) -> None:
        self.sinks = tuple(sinks)
        self.metrics = metrics
        self.timeline = timeline

    def _emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- EngineHooks protocol -------------------------------------------

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
        if self.timeline is not None:
            self.timeline.on_mapped(engine)

    def on_discarded(self, engine: "Engine", task: Task) -> None:
        event = TaskDiscarded(t=engine.now, task_id=task.task_id, type_id=task.type_id)
        self._emit(event)
        if self.metrics is not None:
            self.metrics.inc(f"tasks_discarded.{event.cause}")
        if self.timeline is not None:
            self.timeline.on_discarded(engine)

    def on_completion(self, engine: "Engine", core_id: int, task: Task, t_now: float) -> None:
        self._emit(
            TaskCompleted(
                t=t_now, task_id=task.task_id, type_id=task.type_id, core_id=core_id
            )
        )
        if self.metrics is not None:
            self.metrics.inc("tasks_completed")
        if self.timeline is not None:
            self.timeline.on_completion(engine)

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
    """Decorator: time every ``select`` call into a latency histogram.

    Timing wraps the heuristic *outside* the engine, so the engine stays
    oblivious to observability and the measured span is exactly the
    decision (mask argmin etc.), not candidate construction.  With a
    ``recorder``, the already-measured duration is also fed to the span
    profile as a ``heuristic.<name>`` span — one measurement, two
    consumers.
    """

    def __init__(
        self,
        inner: Heuristic,
        metrics: MetricsRegistry | None = None,
        *,
        recorder: SpanRecorder | None = None,
    ) -> None:
        self.inner = inner
        self.metrics = metrics
        self.recorder = recorder
        self.name = inner.name
        self._span_name = f"heuristic.{inner.name}"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        t0 = time.perf_counter()
        index = self.inner.select(cands, ctx)
        dur = time.perf_counter() - t0
        if self.metrics is not None:
            self.metrics.observe(f"decision_latency_s.{self.name}", dur, LATENCY_EDGES)
        if self.recorder is not None:
            self.recorder.add(self._span_name, t0, dur)
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
    perf: PerfConfig | None = None,
    shared: TrialCache | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    shedding: SheddingConfig | None = None,
) -> TrialResult:
    """Run one trial with observability attached.

    Identical simulation semantics to :func:`repro.sim.engine.run_trial`
    — hooks observe, they never steer, decision timing wraps the
    heuristic without touching its choices, and span/timeline recording
    reads state it never mutates — so results are bitwise equal with
    tracing, metrics, profiling and timelines on or off, in any
    combination.  The same holds for ``perf`` (see :mod:`repro.perf`):
    the knobs only change how fast the result is computed, and the
    kernel cache's final counters are summarized into ``perf.cache.*``
    metrics (the per-lookup ``stoch.ops.cache_*`` counters stream in
    live through the op observer).

    ``shared`` is the trial-scoped warm-cache handle
    (:class:`~repro.perf.TrialCache`); with one, the totals folded into
    the registry are still this run's *own* activity (the engine
    baselines the shared counters at run start), and the same deltas
    additionally land under per-spec keys
    ``perf.cache.<counter>.<heuristic>/<variant>`` so a merged ensemble
    registry stays attributable.

    ``faults``/``fault_policy``/``shedding`` thread the in-simulation
    fault layer (see :mod:`repro.faults`) through to the engine; the
    attached hooks then also emit ``FaultInjected``/``TaskOrphaned``/
    ``TaskShed`` events and the matching ``faults.*``/``tasks_*``
    counters.  Left at ``None``, the run is bitwise identical to a
    fault-free trial.
    """
    hooks = ObservingHooks(sinks, metrics=metrics, timeline=timeline)
    engine_heuristic: Heuristic = heuristic
    if metrics is not None or profile is not None:
        engine_heuristic = TimedHeuristic(heuristic, metrics, recorder=profile)
    engine_chain = filter_chain
    if profile is not None:
        engine_chain = TimedFilterChain(filter_chain, profile)
    previous_observer = None
    if metrics is not None:
        previous_observer = set_op_observer(_StochObserver(metrics))
    try:
        hooks.trial_started(system, heuristic, filter_chain)
        engine = Engine(
            system,
            engine_heuristic,
            engine_chain,
            hooks=hooks,
            tracer=profile,
            perf=perf,
            shared=shared,
            faults=faults,
            fault_policy=fault_policy,
            shedding=shedding,
        )
        if profile is not None:
            with profile.span(f"trial.run.{heuristic.name}/{filter_chain.label}"):
                result = engine.run()
        else:
            result = engine.run()
        hooks.trial_finished(result)
        stats = engine.kernel_cache_stats()
        if metrics is not None and stats is not None:
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
