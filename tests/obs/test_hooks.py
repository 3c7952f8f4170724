"""Tests for ObservingHooks / observe_trial (repro.obs.hooks).

The two load-bearing guarantees:

* observability is strictly opt-in — the engine never imports the obs
  package, and an unobserved run allocates no event objects;
* observing a run does not change it — paired-seed A/B results are
  bitwise identical with tracing on or off.
"""

from __future__ import annotations

import inspect

import pytest

import repro.sim.engine as engine_mod
from repro.filters.chain import build_filter_chain
from repro.heuristics.lightest_load import LightestLoad
from repro.obs.events import (
    EnergyExhausted,
    TaskCompleted,
    TaskDiscarded,
    TaskMapped,
    TrialFinished,
    TrialStarted,
)
from repro.obs.hooks import (
    ObservingHooks,
    TimedFilterChain,
    TimedHeuristic,
    observe_trial,
)
from repro.obs.sinks import MetricsRegistry, RingBufferSink
from repro.obs.spans import SpanRecorder
from repro.obs.timeline import TimelineRecorder
from repro.sim.engine import run_trial
from tests.conftest import micro_config
from repro import build_trial_system


@pytest.fixture(scope="module")
def observed():
    """One observed trial with a full ring trace and metrics."""
    system = build_trial_system(micro_config(seed=3))
    ring = RingBufferSink(capacity=10_000)
    metrics = MetricsRegistry()
    result = observe_trial(
        system, LightestLoad(), build_filter_chain("en+rob"),
        sinks=(ring,), metrics=metrics,
    )
    return system, ring, metrics, result


class TestOptIn:
    def test_engine_never_imports_obs(self):
        # The decoupling that keeps the hot path allocation-free: the
        # engine knows only the hooks protocol, never the event types.
        source = inspect.getsource(engine_mod)
        assert "repro.obs" not in source

    def test_run_trial_defaults_to_no_hooks(self):
        signature = inspect.signature(run_trial)
        assert signature.parameters["hooks"].default is None
        assert signature.parameters["collector"].default is None


class TestEventStream:
    def test_envelope_events(self, observed):
        _system, ring, _metrics, result = observed
        events = ring.events
        assert isinstance(events[0], TrialStarted)
        assert isinstance(events[-1], TrialFinished)
        assert events[0].heuristic == "LL"
        assert events[0].variant == "en+rob"
        assert events[-1].missed == result.missed

    def test_every_task_mapped_or_discarded_once(self, observed):
        system, ring, _metrics, _result = observed
        decided = [
            e.task_id for e in ring if isinstance(e, (TaskMapped, TaskDiscarded))
        ]
        assert sorted(decided) == list(range(system.num_tasks))

    def test_completions_match_mappings(self, observed):
        _system, ring, _metrics, _result = observed
        mapped = {e.task_id for e in ring if isinstance(e, TaskMapped)}
        completed = {e.task_id for e in ring if isinstance(e, TaskCompleted)}
        assert completed == mapped

    def test_engine_event_times_nondecreasing(self, observed):
        # EnergyExhausted is excluded: exhaustion is a post-hoc ledger
        # quantity, emitted at trial end with its (earlier) timestamp.
        _system, ring, _metrics, _result = observed
        times = [
            e.t
            for e in ring
            if isinstance(e, (TaskMapped, TaskDiscarded, TaskCompleted))
        ]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_exhaustion_event_matches_result(self, observed):
        _system, ring, _metrics, result = observed
        exhaustions = [e for e in ring if isinstance(e, EnergyExhausted)]
        if result.exhaustion_time == float("inf"):
            assert not exhaustions
        else:
            assert len(exhaustions) == 1
            assert exhaustions[0].t == result.exhaustion_time

    def test_metrics_counters_match_result(self, observed):
        _system, _ring, metrics, result = observed
        assert metrics.counter("tasks_mapped") == result.num_tasks - result.discarded
        assert (
            sum(metrics.counters_with_prefix("tasks_discarded.").values())
            == result.discarded
        )
        assert metrics.counter("trials_run") == 1

    def test_decision_latency_recorded_per_heuristic(self, observed):
        _system, _ring, metrics, result = observed
        hist = metrics.histograms["decision_latency_s.LL"]
        # One timed decision per arrival (mapped or discarded alike).
        assert hist.count == result.num_tasks
        assert hist.min >= 0.0


class TestObservationIsInert:
    def test_results_bitwise_identical_with_and_without_tracing(self):
        system = build_trial_system(micro_config(seed=6))
        plain = run_trial(system, LightestLoad(), build_filter_chain("en+rob"))
        ring = RingBufferSink(capacity=10_000)
        observed = observe_trial(
            system, LightestLoad(), build_filter_chain("en+rob"),
            sinks=(ring,), metrics=MetricsRegistry(),
        )
        assert plain == observed  # full dataclass equality incl. outcomes

    def test_timed_heuristic_delegates_choices(self):
        system = build_trial_system(micro_config(seed=2))
        metrics = MetricsRegistry()
        timed = TimedHeuristic(LightestLoad(), metrics)
        assert timed.name == "LL"
        a = run_trial(system, LightestLoad(), build_filter_chain("none"))
        b = run_trial(system, timed, build_filter_chain("none"))
        assert a == b

    def test_hooks_without_sinks_or_metrics_are_harmless(self):
        system = build_trial_system(micro_config(seed=2))
        result = run_trial(
            system, LightestLoad(), build_filter_chain("none"), hooks=ObservingHooks()
        )
        assert result.num_tasks == system.num_tasks

    def test_profiled_trial_bitwise_identical(self):
        system = build_trial_system(micro_config(seed=6))
        plain = run_trial(system, LightestLoad(), build_filter_chain("en+rob"))
        profiled = observe_trial(
            system, LightestLoad(), build_filter_chain("en+rob"),
            profile=SpanRecorder(),
            timeline=TimelineRecorder(50.0),
        )
        assert plain == profiled


class TestTrialLifecycle:
    """observe_trial's envelope ordering, asserted directly."""

    @staticmethod
    def run_with_ring(seed: int = 3, **updates):
        system = build_trial_system(micro_config(seed=seed, **updates))
        ring = RingBufferSink(capacity=10_000)
        result = observe_trial(
            system, LightestLoad(), build_filter_chain("en+rob"), sinks=(ring,)
        )
        return ring.events, result

    def test_started_first_finished_last(self):
        events, _ = self.run_with_ring()
        assert isinstance(events[0], TrialStarted)
        assert isinstance(events[-1], TrialFinished)
        assert sum(isinstance(e, TrialStarted) for e in events) == 1
        assert sum(isinstance(e, TrialFinished) for e in events) == 1

    def test_at_most_one_exhaustion_even_under_tight_budget(self):
        # A starved budget exhausts early; the event must still appear
        # exactly once, between the envelope events.
        events, result = self.run_with_ring(energy={"budget_mult": 0.05})
        exhaustions = [i for i, e in enumerate(events) if isinstance(e, EnergyExhausted)]
        assert len(exhaustions) == 1
        assert result.exhaustion_time < float("inf")
        assert 0 < exhaustions[0] < len(events) - 1

    def test_no_exhaustion_event_under_ample_budget(self):
        events, result = self.run_with_ring(energy={"budget_mult": 100.0})
        assert not any(isinstance(e, EnergyExhausted) for e in events)
        assert result.exhaustion_time == float("inf")


class TestTimedHeuristic:
    def test_records_one_histogram_sample_per_select(self):
        system = build_trial_system(micro_config(seed=2))
        metrics = MetricsRegistry()
        timed = TimedHeuristic(LightestLoad(), metrics)
        run_trial(system, timed, build_filter_chain("none"))
        hist = metrics.histograms["decision_latency_s.LL"]
        assert hist.count == system.num_tasks
        assert hist.min >= 0.0

    def test_feeds_span_recorder_same_measurement(self):
        system = build_trial_system(micro_config(seed=2))
        metrics = MetricsRegistry()
        recorder = SpanRecorder()
        timed = TimedHeuristic(LightestLoad(), metrics, recorder=recorder)
        run_trial(system, timed, build_filter_chain("none"))
        spans = [r for r in recorder.records if r.name == "heuristic.LL"]
        hist = metrics.histograms["decision_latency_s.LL"]
        assert len(spans) == hist.count
        # One perf_counter pair serves both consumers: identical totals.
        assert sum(r.dur for r in spans) == pytest.approx(hist.total)

    def test_works_without_metrics(self):
        system = build_trial_system(micro_config(seed=2))
        recorder = SpanRecorder()
        timed = TimedHeuristic(LightestLoad(), recorder=recorder)
        result = run_trial(system, timed, build_filter_chain("none"))
        assert result.num_tasks == system.num_tasks
        assert len(recorder) == system.num_tasks

    def test_repr_names_inner(self):
        assert "LightestLoad" in repr(TimedHeuristic(LightestLoad()))


class TestTimedFilterChain:
    def test_preserves_label_and_choices(self):
        system = build_trial_system(micro_config(seed=2))
        inner = build_filter_chain("en+rob")
        timed = TimedFilterChain(inner, SpanRecorder())
        assert timed.label == inner.label == "en+rob"
        a = run_trial(system, LightestLoad(), inner)
        b = run_trial(system, LightestLoad(), timed)
        assert a == b

    def test_spans_chain_and_each_filter(self):
        system = build_trial_system(micro_config(seed=2))
        recorder = SpanRecorder()
        timed = TimedFilterChain(build_filter_chain("en+rob"), recorder)
        run_trial(system, LightestLoad(), timed)
        counts: dict[str, int] = {}
        for record in recorder.records:
            counts[record.name] = counts.get(record.name, 0) + 1
        assert counts["filters.chain"] == system.num_tasks
        assert counts["filter.en"] == counts["filters.chain"]
        assert counts["filter.rob"] == counts["filters.chain"]
