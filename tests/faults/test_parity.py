"""Zero-fault parity: an inert fault layer is bitwise invisible.

Acceptance criterion of the fault-model PR: running with an *empty*
:class:`FaultSchedule`, a default :class:`FaultPolicy` and an all-``None``
:class:`SheddingConfig` must reproduce the pre-fault baseline exactly —
per-task outcomes, trial digests, and service windows — so existing
studies and their manifests stay valid on a build that carries the fault
layer.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro.experiments.runner import policy_for
from repro.faults import FaultPolicy, FaultSchedule, SheddingConfig
from repro.obs.manifest import trial_digest
from repro.service import ServiceConfig, serve_system
from tests.conftest import tiny_config

SPECS = [("LL", "en+rob"), ("MECT", "none"), ("SQ", "en"), ("Random", "rob")]


@pytest.fixture(scope="module")
def system():
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=123)).build_system()


class TestZeroFaultTrialParity:
    @pytest.mark.parametrize("heuristic,filters", SPECS)
    def test_empty_schedule_is_bitwise_identical(self, system, heuristic, filters):
        scenario = api.Scenario(heuristic, filters, config=tiny_config(seed=123))
        baseline = api.run_trial(scenario, system=system, keep_outcomes=True)
        inert = api.observe_trial(
            system,
            *policy_for(system, scenario.spec),
            faults=FaultSchedule.empty(),
            fault_policy=FaultPolicy(),
            shedding=SheddingConfig(),
        )
        # Dataclass equality covers every scalar and per-task outcome.
        assert inert == baseline
        assert trial_digest(inert) == trial_digest(baseline)

    def test_disabled_shedding_config_is_inert(self, system):
        scenario = api.Scenario("LL", "en+rob", config=tiny_config(seed=123))
        baseline = api.run_trial(scenario, system=system, keep_outcomes=True)
        shed_only = api.run_trial(
            replace(scenario, shedding=SheddingConfig()),
            system=system,
            keep_outcomes=True,
        )
        assert shed_only == baseline


class TestZeroFaultServiceParity:
    def test_replay_windows_and_score_are_identical(self, system):
        scenario = api.Scenario("LL", "en+rob", config=tiny_config(seed=123))
        baseline = api.run_service(scenario, system=system)
        inert = serve_system(
            system,
            scenario.spec,
            ServiceConfig(
                traffic="replay",
                faults=FaultSchedule.empty(),
                fault_policy=FaultPolicy(),
                shedding=SheddingConfig(),
            ),
        )
        assert inert.trial_result == baseline.trial_result
        assert trial_digest(inert.trial_result) == trial_digest(baseline.trial_result)
        assert [w.to_dict() for w in inert.windows] == [
            w.to_dict() for w in baseline.windows
        ]
        # The fault layer was *attached* (totals reported) but inert.
        assert inert.fault_totals is not None
        assert not any(inert.fault_totals.values())
        assert baseline.fault_totals is None

    def test_generative_stream_is_identical(self, system):
        scenario = api.Scenario("LL", "en+rob", config=tiny_config(seed=123))
        config = dict(traffic="poisson", task_limit=80)
        baseline = api.run_service(
            replace(scenario, service=ServiceConfig(**config)), system=system
        )
        inert = serve_system(
            system,
            scenario.spec,
            ServiceConfig(**config, faults=FaultSchedule.empty(), shedding=SheddingConfig()),
        )
        assert inert.makespan == baseline.makespan
        assert inert.total_energy == baseline.total_energy
        assert [w.to_dict() for w in inert.windows] == [
            w.to_dict() for w in baseline.windows
        ]

    def test_window_rows_carry_zero_fault_columns(self, system):
        # New columns exist (schema moved forward) but stay zero when
        # the fault layer is off — service_check's identity still holds.
        scenario = api.Scenario("LL", "en+rob", config=tiny_config(seed=123))
        baseline = api.run_service(scenario, system=system)
        for window in baseline.windows:
            row = window.to_dict()
            assert row["shed"] == row["deferred"] == 0
            assert row["orphaned"] == row["remapped"] == row["lost"] == 0
            assert row["arrivals"] == row["mapped"] + row["discarded"] + row["shed"]
