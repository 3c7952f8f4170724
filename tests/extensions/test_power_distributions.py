"""Tests for stochastic power (repro.extensions.power_distributions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.extensions.power_distributions import (
    StochasticPowerModel,
    resample_trial_energy,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.sim.engine import Engine


class TestStochasticPowerModel:
    def test_pmf_means_match_scalar_model(self, tiny_system):
        model = StochasticPowerModel(tiny_system.cluster, power_cv=0.05)
        means = tiny_system.cluster.power_table()
        for n in range(tiny_system.cluster.num_nodes):
            for pi in range(tiny_system.cluster.num_pstates):
                assert model.pmf(n, pi).mean() == pytest.approx(
                    float(means[n, pi]), rel=1e-3
                )

    def test_samples_spread_with_cv(self, tiny_system, rng):
        model = StochasticPowerModel(tiny_system.cluster, power_cv=0.1)
        draws = np.array([model.sample(0, 0, rng) for _ in range(2000)])
        mu = tiny_system.cluster.power_table()[0, 0]
        assert draws.std() == pytest.approx(0.1 * mu, rel=0.15)

    def test_rejects_bad_cv(self, tiny_system):
        with pytest.raises(ValueError):
            StochasticPowerModel(tiny_system.cluster, power_cv=0.0)


class TestResampleTrialEnergy:
    @pytest.fixture(scope="class")
    def trial(self, tiny_system):
        result = Engine(
            tiny_system, MinimumExpectedCompletionTime(), build_filter_chain("none")
        ).run()
        return tiny_system, result

    def test_requires_outcomes(self, trial):
        from dataclasses import replace

        system, result = trial
        model = StochasticPowerModel(system.cluster)
        with pytest.raises(ValueError):
            resample_trial_energy(
                replace(result, outcomes=()), system.cluster, model, np.random.default_rng(0)
            )

    def test_small_cv_reproduces_baseline(self, trial):
        system, result = trial
        model = StochasticPowerModel(system.cluster, power_cv=0.001)
        out = resample_trial_energy(
            result, system.cluster, model, np.random.default_rng(0)
        )
        assert out.total_energy == pytest.approx(result.total_energy, rel=0.01)
        assert abs(out.miss_shift) <= max(2, int(0.02 * result.num_tasks))

    def test_energy_varies_with_cv(self, trial):
        system, result = trial
        model = StochasticPowerModel(system.cluster, power_cv=0.1)
        outs = [
            resample_trial_energy(
                result, system.cluster, model, np.random.default_rng(s)
            ).total_energy
            for s in range(5)
        ]
        assert len(set(np.round(outs, 3))) > 1

    def test_baseline_missed_recorded(self, trial):
        system, result = trial
        model = StochasticPowerModel(system.cluster, power_cv=0.05)
        out = resample_trial_energy(
            result, system.cluster, model, np.random.default_rng(1)
        )
        assert out.baseline_missed == result.missed
