"""Tests for the repro.api facade."""

from __future__ import annotations

import inspect

import pytest

from repro import api
from repro.experiments.runner import policy_for
from tests.conftest import NeverHitCache


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_registries_enumerate_valid_names(self):
        assert api.HEURISTICS == ("SQ", "MECT", "LL", "Random")
        assert api.FILTER_VARIANTS == ("none", "en", "rob", "en+rob")


class TestScenario:
    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="heuristic"):
            api.Scenario("XX")
        with pytest.raises(ValueError, match="filter"):
            api.Scenario("LL", "bogus")

    def test_overrides_apply(self):
        scenario = api.Scenario("LL", "none", seed=9, num_tasks=123)
        config = scenario.resolved_config()
        assert config.seed == 9
        assert config.workload.num_tasks == 123
        assert scenario.label == "LL/none"

    def test_explicit_config_passes_through(self):
        base = api.SimulationConfig(seed=4)
        scenario = api.Scenario("SQ", config=base)
        assert scenario.resolved_config() == base
        assert scenario.spec == api.VariantSpec("SQ", "en+rob")

    def test_seed_override_beats_config(self):
        base = api.SimulationConfig(seed=4)
        scenario = api.Scenario("SQ", seed=7, config=base)
        assert scenario.resolved_config().seed == 7


class TestRunTrial:
    SCENARIO = api.Scenario("MECT", "en+rob", seed=5, num_tasks=60)

    def test_deterministic(self):
        a = api.run_trial(self.SCENARIO)
        b = api.run_trial(self.SCENARIO)
        assert a == b
        assert a.heuristic == "MECT" and a.variant == "en+rob"
        assert a.num_tasks == 60

    def test_prebuilt_system_reuse(self):
        system = self.SCENARIO.build_system()
        assert api.run_trial(self.SCENARIO, system=system) == api.run_trial(self.SCENARIO)

    def test_perf_knobs_results_neutral(self):
        system = self.SCENARIO.build_system()
        fast = api.run_trial(self.SCENARIO, system=system, keep_outcomes=True)
        heuristic, chain = policy_for(system, self.SCENARIO.spec)
        slow = api.observe_trial(system, heuristic, chain, kernel_cache=NeverHitCache())
        assert fast == slow

    def test_strips_outcomes_by_default(self, tiny_system):
        result = api.run_trial(api.Scenario("SQ", "none"), system=tiny_system)
        assert result.outcomes == ()

    def test_keeps_outcomes_on_request(self, tiny_system):
        result = api.run_trial(
            api.Scenario("SQ", "none"), system=tiny_system, keep_outcomes=True
        )
        assert len(result.outcomes) == tiny_system.num_tasks

    def test_labels_propagate(self, tiny_system):
        result = api.run_trial(api.Scenario("LL", "rob"), system=tiny_system)
        assert result.heuristic == "LL"
        assert result.variant == "rob"

    def test_random_heuristic_reproducible(self, tiny_system):
        scenario = api.Scenario("Random", "none")
        a = api.run_trial(scenario, system=tiny_system)
        b = api.run_trial(scenario, system=tiny_system)
        assert a.missed == b.missed

    def test_metrics_capture_cache_counters(self):
        metrics = api.MetricsRegistry()
        api.run_trial(self.SCENARIO, metrics=metrics)
        assert metrics.counter("perf.cache.misses") > 0
        assert metrics.counter("perf.cache.hits") > 0


class TestRunEnsemble:
    def test_signature_takes_one_scenario(self):
        for runner in (api.run_ensemble, api.budget_sweep):
            params = inspect.signature(runner).parameters
            assert next(iter(params)) == "scenario"
            assert "num_trials" not in params and "base_seed" not in params

    def test_paired_trials_across_scenarios(self):
        scenario = api.Scenario(
            seed=3,
            num_tasks=40,
            ensemble=api.EnsembleSettings(num_trials=2, specs=("LL/en+rob", "sq/NONE")),
        )
        ensemble = api.run_ensemble(scenario)
        assert ensemble.num_trials == 2
        assert ensemble.base_seed == 3  # defaulted from the scenario's seed
        assert ensemble.specs == (
            api.VariantSpec("LL", "en+rob"),
            api.VariantSpec("SQ", "none"),
        )
        for spec in ensemble.specs:
            assert len(ensemble.results[spec]) == 2

    @pytest.mark.parametrize(
        "section",
        [
            {"faults": api.FaultSettings(mtbf=500.0, mttr=100.0, horizon=2000.0)},
            {"shedding": api.SheddingConfig(queue_depth=4.0)},
            {"shedding": api.SheddingConfig()},
        ],
        ids=["faults", "shedding", "inert-shedding"],
    )
    def test_refuses_fault_layer_instead_of_dropping_it(self, section):
        faulted = api.Scenario("LL", seed=3, num_tasks=40, **section)
        with pytest.raises(ValueError, match="not ensembles"):
            api.run_ensemble(faulted)
        with pytest.raises(ValueError, match="not ensembles"):
            api.budget_sweep(faulted, [1.0])

    def test_inactive_fault_section_is_accepted(self):
        scenario = api.Scenario(
            "LL", seed=3, num_tasks=40, faults=api.FaultSettings(),
            ensemble=api.EnsembleSettings(num_trials=1),
        )
        ensemble = api.run_ensemble(scenario)
        assert ensemble.specs == (scenario.spec,)

    def test_single_scenario_accepted_bare(self):
        """Without ``specs`` the ensemble runs the ``[policy]`` cell."""
        scenario = api.Scenario(
            "LL", seed=3, num_tasks=40, ensemble=api.EnsembleSettings(num_trials=1)
        )
        ensemble = api.run_ensemble(scenario)
        assert ensemble.specs == (api.VariantSpec("LL", "en+rob"),)

    def test_ensemble_section_is_binding(self):
        """The scenario's ``[ensemble]`` section alone gives trials and
        base seed: ``run_ensemble``, ``run_scenario`` and a
        ``budget_sweep`` point at the default budget run one ensemble."""
        settings = api.EnsembleSettings(num_trials=3, base_seed=9, n_jobs=2)
        scenario = api.Scenario(
            "LL", seed=3, num_tasks=30, mode="ensemble", ensemble=settings
        )
        direct = api.run_ensemble(scenario, n_jobs=1)
        via_scenario = api.run_scenario(scenario, n_jobs=1)
        (point,) = api.budget_sweep(scenario, [1.0], n_jobs=1).points
        assert direct.num_trials == via_scenario.num_trials == 3
        assert direct.base_seed == via_scenario.base_seed == 9
        assert direct.results == via_scenario.results == point.ensemble.results

    def test_section_without_base_seed_defers_to_the_scenario_seed(self):
        scenario = api.Scenario(
            "LL", seed=3, num_tasks=30, ensemble=api.EnsembleSettings(num_trials=1)
        )
        assert api.run_ensemble(scenario).base_seed == 3
