"""Engine-level fault behavior: outages, orphan re-mapping, recovery.

The headline test is the acceptance demo: under one fault schedule, the
recovery machinery (resume-orphaning plus re-mapping through the normal
heuristic/filter stack) completes measurably more work than a
no-recovery run that just kills whatever an outage touches.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule
from repro.obs.sinks import MetricsRegistry, RingBufferSink
from repro.service import ServiceConfig, serve_system
from tests.conftest import tiny_config

#: One node down from t=800 for 3000 s — long enough to orphan both the
#: running task and queued work on the tiny 3-node system.
OUTAGE = FaultSchedule((FaultEvent("node_outage", 0, 800.0, 3000.0),))


@pytest.fixture(scope="module")
def scenario() -> api.Scenario:
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=123))


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


def _replay(scenario, system, faults, policy):
    return serve_system(
        system,
        scenario.spec,
        ServiceConfig(traffic="replay", faults=faults, fault_policy=policy),
    )


class TestOutageSemantics:
    def test_outage_orphans_and_recovery_restores(self, scenario, system):
        svc = _replay(
            scenario, system, OUTAGE, FaultPolicy(running="resume", remap=True)
        )
        totals = svc.fault_totals
        assert totals["outages"] == 1
        assert totals["recoveries"] == 1
        assert totals["orphaned"] > 0
        assert totals["remapped"] + totals["lost"] >= totals["orphaned"] > 0
        # Window accounting matches the engine's counters.
        wt = svc.totals
        assert wt.orphaned == totals["orphaned"]
        assert wt.remapped == totals["remapped"]
        assert wt.lost == totals["lost"]

    def test_lost_policy_kills_running_tasks(self, scenario, system):
        svc = _replay(
            scenario, system, OUTAGE, FaultPolicy(running="lost", remap=True)
        )
        totals = svc.fault_totals
        # The running task dies outright instead of being orphaned, so
        # something is lost even with re-mapping on.
        assert totals["lost"] > 0
        assert svc.totals.completed < 60

    def test_fault_runs_are_deterministic(self, scenario, system):
        policy = FaultPolicy(running="resume", remap=True)
        first = _replay(scenario, system, OUTAGE, policy)
        second = _replay(scenario, system, OUTAGE, policy)
        assert first.fault_totals == second.fault_totals
        assert [w.to_dict() for w in first.windows] == [
            w.to_dict() for w in second.windows
        ]

    def test_core_outage_touches_one_core(self, scenario, system):
        schedule = FaultSchedule((FaultEvent("core_outage", 0, 800.0, 3000.0),))
        svc = _replay(
            scenario, system, schedule, FaultPolicy(running="resume", remap=True)
        )
        totals = svc.fault_totals
        assert totals["outages"] == 1
        # A single core strands at most its own queue; the other cores
        # absorb the re-maps and the service largely survives.
        assert svc.totals.completed >= 55

    def test_slowdown_degrades_without_orphaning(self, scenario, system):
        schedule = FaultSchedule(
            (FaultEvent("node_slowdown", 0, 500.0, 3000.0, pstate_floor=2),)
        )
        svc = _replay(
            scenario, system, schedule, FaultPolicy(running="resume", remap=True)
        )
        totals = svc.fault_totals
        assert totals["slowdowns"] == 1
        assert totals["outages"] == 0
        assert totals["orphaned"] == 0
        # Capacity was capped, not removed: everything still completes.
        assert svc.totals.completed + svc.totals.discarded == 60


class TestRecoveryDemo:
    """Acceptance: recovery machinery beats no-recovery under one schedule."""

    def test_remapping_recovers_completions(self, scenario, system):
        recovered = _replay(
            scenario, system, OUTAGE, FaultPolicy(running="resume", remap=True)
        )
        norecovery = _replay(
            scenario, system, OUTAGE, FaultPolicy(running="lost", remap=False)
        )
        assert recovered.fault_totals["remapped"] > 0
        assert norecovery.fault_totals["remapped"] == 0
        # Same outage, measurably more service retained.
        assert recovered.totals.completed > norecovery.totals.completed
        assert recovered.totals.on_time > norecovery.totals.on_time
        assert recovered.fault_totals["lost"] < norecovery.fault_totals["lost"]


class TestFaultObservability:
    def test_events_and_counters_stream_through_hooks(self, system):
        buffer = RingBufferSink(capacity=4096)
        metrics = MetricsRegistry()
        heuristic = api.build_heuristic("LL", None)
        chain = api.build_filter_chain("en+rob", system.config.filters)
        result = api.observe_trial(
            system,
            heuristic,
            chain,
            sinks=(buffer,),
            metrics=metrics,
            faults=OUTAGE,
            fault_policy=FaultPolicy(running="resume", remap=True),
        )
        kinds = [event.kind for event in buffer.events]
        assert kinds.count("fault_injected") == 2  # fail + recover
        assert "task_orphaned" in kinds
        counters = metrics.to_dict()["counters"]
        assert counters["faults.fail.node_outage"] == 1
        assert counters["faults.recover.node_outage"] == 1
        assert counters.get("tasks_orphaned.remapped", 0) > 0
        # The scored result is still internally consistent.
        assert result.missed + result.completed_within == result.num_tasks
