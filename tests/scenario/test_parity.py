"""Bitwise parity: scenario/registry-built runs match direct construction.

The redesign's contract is that resolving policies by name through the
plugin registry and driving runs from a declarative :class:`Scenario`
changes *nothing* about the simulation trajectory — same rng streams,
same results, same manifest digests — across all three run shapes.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro import api
from repro import rng as rng_mod
from repro.experiments.figures import figure_specs
from repro.experiments.runner import VariantSpec, run_ensemble
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.obs.manifest import config_digest, trial_digest
from repro.scenario import EnsembleSettings, Scenario
from repro.service import ServiceConfig
from repro.sim.engine import Engine
from repro.sim.system import build_trial_system
from tests.conftest import tiny_config


SPEC = VariantSpec("MECT", "en+rob")
SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def direct_trial(system):
    """The hand-built reference: engine + explicit policy objects."""
    rng = rng_mod.stream(system.config.seed, "heuristic", SPEC.label)
    heuristic = build_heuristic(SPEC.heuristic, rng)
    chain = build_filter_chain(SPEC.variant, system.config.filters)
    return Engine(system, heuristic, chain).run()


class TestTrialParity:
    def test_scenario_trial_matches_direct_engine_run(self, tiny_system):
        scenario = Scenario("mect", "EN+ROB", config=tiny_system.config)
        via_scenario = api.run_scenario(scenario, system=tiny_system)
        assert via_scenario == replace(direct_trial(tiny_system), outcomes=())

    def test_scenario_from_file_matches_in_memory(self, tmp_path):
        scenario = Scenario("MECT", "en+rob", seed=123, num_tasks=60,
                            config=tiny_config())
        path = scenario.to_file(tmp_path / "trial.toml")
        system = scenario.build_system()
        from_file = api.run_scenario(str(path), system=system)
        in_memory = api.run_scenario(scenario, system=system)
        assert from_file == in_memory

    def test_config_digest_matches_manual_config(self):
        scenario = Scenario(seed=123, config=tiny_config(seed=5))
        manual = tiny_config(seed=5).with_seed(123)
        assert config_digest(scenario.resolved_config()) == config_digest(manual)

    def test_metrics_run_matches_plain_run(self, tiny_system):
        scenario = Scenario("MECT", "en+rob")
        plain = api.run_trial(scenario, system=tiny_system)
        observed = api.run_trial(scenario, system=tiny_system, metrics=api.MetricsRegistry())
        # Attaching observability is results-neutral.
        assert observed == plain


class TestEnsembleParity:
    def test_scenario_ensemble_matches_run_ensemble(self):
        config = tiny_config()
        settings = EnsembleSettings(num_trials=2)
        scenario = Scenario(
            "mect", "en+rob", config=config, mode="ensemble", ensemble=settings
        )
        via_scenario = api.run_scenario(scenario)
        direct = api.run_ensemble(
            Scenario("MECT", "EN+ROB", config=config, ensemble=settings)
        )
        reference = run_ensemble([SPEC], config, 2, config.seed)
        assert via_scenario.base_seed == direct.base_seed == config.seed
        assert via_scenario.specs == direct.specs == (SPEC,)
        assert via_scenario.results[SPEC] == direct.results[SPEC]
        assert direct.results[SPEC] == reference.results[SPEC]

    def test_spec_patterns_match_the_runner_grid(self):
        config = tiny_config()
        scenario = Scenario(
            config=config,
            mode="ensemble",
            ensemble=EnsembleSettings(num_trials=1, base_seed=4, specs=("ll/*",)),
        )
        via_scenario = api.run_scenario(scenario)
        reference = run_ensemble(figure_specs("fig4"), config, 1, 4)
        assert via_scenario.specs == reference.specs
        assert via_scenario.results == reference.results


class TestServiceParity:
    def test_replay_service_matches_trial(self, tiny_system):
        scenario = Scenario("mect", "en+rob", config=tiny_system.config,
                            mode="service")
        via_scenario = api.run_scenario(scenario, system=tiny_system)
        # Replay keeps per-task outcomes; the trajectory must be identical.
        assert via_scenario.trial_result == direct_trial(tiny_system)

    def test_scenario_service_matches_run_service(self, tiny_system):
        service = ServiceConfig(traffic="poisson", task_limit=80)
        scenario = Scenario("LL", "en+rob", config=tiny_system.config,
                            mode="service", service=service)
        via_scenario = api.run_scenario(scenario, system=tiny_system)
        direct = api.run_service(scenario, system=tiny_system)
        assert via_scenario.makespan == direct.makespan
        assert via_scenario.total_energy == direct.total_energy
        assert via_scenario.totals.mapped == direct.totals.mapped
        assert len(via_scenario.windows) == len(direct.windows)


class TestCommittedScenarioParity:
    """A committed scenario file gives one result through either entry:
    the mode's runner on the loaded object, or ``run_scenario`` on the
    path.  Faults, shedding and the service shape come from the file."""

    @pytest.fixture(scope="class")
    def faulty(self):
        path = SCENARIOS / "faulty_cluster.toml"
        return Scenario.from_file(path), api.run_scenario(path)

    def test_faulted_trial_matches_run_scenario(self, faulty):
        scenario, via_file = faulty
        direct = api.run_trial(scenario)
        assert direct == via_file
        assert trial_digest(direct) == trial_digest(via_file)

    def test_faults_change_the_trial(self, faulty):
        scenario, via_file = faulty
        fault_free = api.run_trial(replace(scenario, faults=None))
        assert fault_free != via_file
        assert trial_digest(fault_free) != trial_digest(via_file)

    @pytest.mark.parametrize("name", ["overload_service", "degraded_service"])
    def test_service_runner_matches_run_scenario(self, name):
        path = SCENARIOS / f"{name}.toml"
        scenario = Scenario.from_file(path)
        direct = api.run_service(scenario)
        via_file = api.run_scenario(path)
        assert direct.traffic == via_file.traffic == scenario.service.traffic
        assert direct.arrivals == via_file.arrivals == scenario.service.task_limit
        assert [w.to_dict() for w in direct.windows] == [
            w.to_dict() for w in via_file.windows
        ]
        assert direct.fault_totals == via_file.fault_totals
        outages = direct.fault_totals["outages"]
        assert (outages > 0) == (scenario.faults is not None)


@pytest.fixture(autouse=True)
def _no_stray_deprecations(recwarn):
    """Scenario-driven runs emit no deprecation warning of the package's own."""
    yield
    stray = [
        w for w in recwarn.list
        if w.category is DeprecationWarning and "repro" in str(w.message)
    ]
    assert not stray
