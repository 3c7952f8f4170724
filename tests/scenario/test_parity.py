"""Bitwise parity: scenario/registry-built runs match direct construction.

The redesign's contract is that resolving policies by name through the
plugin registry and driving runs from a declarative :class:`Scenario`
changes *nothing* about the simulation trajectory — same rng streams,
same results, same manifest digests — across all three run shapes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro import rng as rng_mod
from repro.experiments.runner import VariantSpec
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.obs.manifest import config_digest
from repro.scenario import EnsembleSettings, Scenario
from repro.service import ServiceConfig
from repro.sim.engine import Engine
from repro.sim.system import build_trial_system
from tests.conftest import tiny_config


SPEC = VariantSpec("MECT", "en+rob")


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
        scenario = Scenario(
            "mect", "en+rob", config=config,
            mode="ensemble", ensemble=EnsembleSettings(num_trials=2),
        )
        via_scenario = api.run_scenario(scenario)
        direct = api.run_ensemble(
            Scenario("MECT", "EN+ROB", config=config), 2
        )
        assert via_scenario.base_seed == direct.base_seed
        assert via_scenario.specs == direct.specs == (SPEC,)
        assert via_scenario.results[SPEC] == direct.results[SPEC]


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
        direct = api.run_service(scenario, service, system=tiny_system)
        assert via_scenario.makespan == direct.makespan
        assert via_scenario.total_energy == direct.total_energy
        assert via_scenario.totals.mapped == direct.totals.mapped
        assert len(via_scenario.windows) == len(direct.windows)


@pytest.fixture(autouse=True)
def _no_stray_deprecations(recwarn):
    """Scenario-driven runs emit no deprecation warning of the package's own."""
    yield
    stray = [
        w for w in recwarn.list
        if w.category is DeprecationWarning and "repro" in str(w.message)
    ]
    assert not stray
