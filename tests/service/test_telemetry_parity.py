"""Zero-telemetry neutrality: attaching a hub must not change results.

The acceptance bar for the telemetry layer is strict: a serve run
without a hub (the default ``telemetry=None``) subscribes nothing extra,
and *subscribing* the hub must leave the simulation trajectory untouched
— it only reads engine state.  These tests pin that, plus the
accounting ties between hub counters and window totals on a plain run
and on one with shedding, deferrals and node outages.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import pytest

from repro import api
from repro.faults import FaultPolicy, FaultSchedule, SheddingConfig
from repro.obs.manifest import trial_digest
from repro.obs.telemetry import Telemetry
from repro.service import ServiceConfig, serve_system
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def scenario() -> api.Scenario:
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=123))


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


GENERATIVE = ServiceConfig(traffic="poisson", task_limit=150, horizon=2e5)


def fresh_telemetry() -> Telemetry:
    return Telemetry(rules=["on_time_prob<0.5:3", "queue_depth>500"])


def window_dicts(svc) -> list[dict]:
    # WindowStats is a dataclass holding nan budget_remaining on
    # budget-less runs; nan != nan, so bitwise comparison goes through
    # to_dict (nan encodes as None).
    return [w.to_dict() for w in svc.windows]


class TestResultNeutrality:
    def test_replay_is_bitwise_identical_with_telemetry_on(self, scenario, system):
        bare = api.run_service(scenario, system=system)
        tele = fresh_telemetry()
        instrumented = api.run_service(scenario, system=system, telemetry=tele)
        assert instrumented.trial_result == bare.trial_result
        assert trial_digest(instrumented.trial_result) == trial_digest(
            bare.trial_result
        )
        assert window_dicts(instrumented) == window_dicts(bare)

    def test_generative_run_is_bitwise_identical(self, scenario, system):
        generative = replace(scenario, service=GENERATIVE)
        bare = api.run_service(generative, system=system)
        tele = fresh_telemetry()
        instrumented = api.run_service(generative, system=system, telemetry=tele)
        assert window_dicts(instrumented) == window_dicts(bare)
        assert instrumented.makespan == bare.makespan
        assert instrumented.total_energy == bare.total_energy

    def test_null_telemetry_is_the_default(self):
        # No hub unless one is passed: None subscribes nothing.
        for fn in (api.run_service, serve_system):
            assert inspect.signature(fn).parameters["telemetry"].default is None


def degraded(system) -> ServiceConfig:
    """4x overload with queue-depth shedding and node outages."""
    task_limit = 300
    eq_rate = system.workload.rates.eq
    horizon = task_limit / (4.0 * eq_rate)
    return ServiceConfig(
        traffic="poisson",
        rate_mult=4.0,
        window=20.0 / eq_rate,
        task_limit=task_limit,
        faults=FaultSchedule.generate(
            num_targets=system.cluster.num_nodes,
            horizon=horizon,
            mtbf=horizon,
            mttr=0.2 * horizon,
            seed=7,
            scope="node",
        ),
        fault_policy=FaultPolicy(running="resume"),
        shedding=SheddingConfig(queue_depth=3.0, defer=30.0),
    )


class TestHubAccounting:
    @pytest.fixture(scope="class")
    def service(self, system) -> ServiceConfig:
        return GENERATIVE

    @pytest.fixture(scope="class")
    def run(self, scenario, system, service):
        tele = fresh_telemetry()
        svc = serve_system(system, scenario.spec, service, telemetry=tele)
        return tele, svc

    def test_counters_match_window_totals(self, run):
        tele, svc = run
        totals = svc.totals
        assert tele.counters["tasks_mapped"].value == totals.mapped
        assert tele.counters["tasks_completed"].value == totals.completed
        assert tele.counters["tasks_on_time"].value == totals.on_time
        assert tele.counters["tasks_late"].value == totals.late
        assert tele.counters["tasks_discarded"].value == totals.discarded
        assert tele.counters["tasks_shed"].value == totals.shed
        assert tele.counters["tasks_deferred"].value == totals.deferred
        assert tele.counters["windows"].value == len(svc.windows)

    def test_latency_stream_counts_every_completion(self, run):
        tele, svc = run
        assert tele.latency.count == svc.totals.completed
        assert tele.latency.min >= 0.0

    def test_window_energy_sums_to_run_energy(self, run):
        tele, svc = run
        assert tele.window_energy.total == pytest.approx(svc.total_energy)

    def test_hub_history_mirrors_window_rows(self, run):
        tele, svc = run
        assert len(tele.history) == len(svc.windows)
        for row, window in zip(tele.history, svc.windows):
            assert row["end"] == window.end
            assert row["completed"] == float(window.completed)

    def test_scrape_renders_after_the_run(self, run):
        tele, _ = run
        text = tele.render_prometheus()
        assert "repro_windows_total" in text
        assert 'repro_completion_latency_seconds{quantile="0.5"}' in text

    def test_service_result_steady_state(self, run):
        _, svc = run
        summaries = svc.steady_state()
        assert "on_time_prob" in summaries and "throughput" in summaries
        for s in summaries.values():
            assert s.num_windows == len(svc.windows)
        # The run is budget-less here; burn_rate stays nan-driven.
        assert svc.budget_rate is None or svc.budget_rate > 0

    def test_live_steady_state_agrees_with_offline(self, run):
        tele, svc = run
        live = tele.steady_state()
        offline = svc.steady_state(metrics=("on_time_prob", "throughput", "power"))
        for metric in ("on_time_prob", "throughput", "power"):
            l, o = live[metric], offline[metric]
            assert l.warmup_windows == o.warmup_windows
            assert (
                l.mean == o.mean
                or (math.isnan(l.mean) and math.isnan(o.mean))
            )


class TestHubAccountingDegraded(TestHubAccounting):
    """The same ties on a run that sheds, defers, discards and orphans."""

    @pytest.fixture(scope="class")
    def service(self, system) -> ServiceConfig:
        return degraded(system)

    def test_run_exercises_the_fault_feeds(self, run):
        _, svc = run
        totals = svc.totals
        assert totals.shed > 0 and totals.deferred > 0
        assert totals.discarded > 0 and totals.orphaned > 0

    def test_window_rows_identical_without_the_hub(self, run, scenario, system, service):
        _, svc = run
        bare = serve_system(system, scenario.spec, service)
        assert window_dicts(svc) == window_dicts(bare)
