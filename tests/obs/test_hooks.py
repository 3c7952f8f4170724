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
from repro.sim.engine import Engine
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

    def test_engine_defaults_to_no_hooks(self):
        signature = inspect.signature(Engine)
        assert signature.parameters["hooks"].default == ()
        assert "collector" not in signature.parameters


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

    def test_metrics_hold_no_wall_clock_histogram(self, observed):
        # Decision timing is a span in the profile; the registry holds
        # only what the run determines.
        _system, _ring, metrics, _result = observed
        assert "queue_depth" in metrics.histograms
        assert not [name for name in metrics.histograms if name.startswith("decision_latency")]


class TestObservationIsInert:
    def test_results_bitwise_identical_with_and_without_tracing(self):
        system = build_trial_system(micro_config(seed=6))
        plain = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
        ring = RingBufferSink(capacity=10_000)
        observed = observe_trial(
            system, LightestLoad(), build_filter_chain("en+rob"),
            sinks=(ring,), metrics=MetricsRegistry(),
        )
        assert plain == observed  # full dataclass equality incl. outcomes

    def test_timed_heuristic_delegates_choices(self):
        system = build_trial_system(micro_config(seed=2))
        timed = TimedHeuristic(LightestLoad(), SpanRecorder())
        assert timed.name == "LL"
        a = Engine(system, LightestLoad(), build_filter_chain("none")).run()
        b = Engine(system, timed, build_filter_chain("none")).run()
        assert a == b

    def test_hooks_without_sinks_or_metrics_are_harmless(self):
        system = build_trial_system(micro_config(seed=2))
        result = Engine(
            system, LightestLoad(), build_filter_chain("none"), hooks=(ObservingHooks(),)
        ).run()
        assert result.num_tasks == system.num_tasks

    def test_profiled_trial_bitwise_identical(self):
        system = build_trial_system(micro_config(seed=6))
        plain = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
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
    def test_works_without_metrics(self):
        # The span recorder is the only consumer: one span per select.
        system = build_trial_system(micro_config(seed=2))
        recorder = SpanRecorder()
        timed = TimedHeuristic(LightestLoad(), recorder)
        result = Engine(system, timed, build_filter_chain("none")).run()
        assert result.num_tasks == system.num_tasks
        spans = [r for r in recorder.records if r.name == "heuristic.LL"]
        assert len(spans) == len(recorder) == system.num_tasks
        assert all(r.dur >= 0.0 for r in spans)

    def test_repr_names_inner(self):
        assert "LightestLoad" in repr(TimedHeuristic(LightestLoad(), SpanRecorder()))


class TestTimedFilterChain:
    def test_preserves_label_and_choices(self):
        system = build_trial_system(micro_config(seed=2))
        inner = build_filter_chain("en+rob")
        timed = TimedFilterChain(inner, SpanRecorder())
        assert timed.label == inner.label == "en+rob"
        a = Engine(system, LightestLoad(), inner).run()
        b = Engine(system, LightestLoad(), timed).run()
        assert a == b

    def test_spans_chain_and_each_filter(self):
        system = build_trial_system(micro_config(seed=2))
        recorder = SpanRecorder()
        timed = TimedFilterChain(build_filter_chain("en+rob"), recorder)
        Engine(system, LightestLoad(), timed).run()
        counts: dict[str, int] = {}
        for record in recorder.records:
            counts[record.name] = counts.get(record.name, 0) + 1
        assert counts["filters.chain"] == system.num_tasks
        assert counts["filter.en"] == counts["filters.chain"]
        assert counts["filter.rob"] == counts["filters.chain"]
