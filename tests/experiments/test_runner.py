"""Tests for the ensemble runner (repro.experiments.runner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import VariantSpec, run_ensemble
from tests.conftest import tiny_config


SPECS = (
    VariantSpec("MECT", "none"),
    VariantSpec("MECT", "en+rob"),
    VariantSpec("Random", "none"),
)


@pytest.fixture(scope="module")
def ensemble():
    return run_ensemble(SPECS, tiny_config(), num_trials=3, base_seed=42)


class TestRunEnsemble:
    def test_structure(self, ensemble):
        assert ensemble.num_trials == 3
        assert set(ensemble.results) == set(SPECS)
        for spec in SPECS:
            assert len(ensemble.results[spec]) == 3

    def test_misses_array(self, ensemble):
        misses = ensemble.misses(SPECS[0])
        assert misses.shape == (3,)
        assert misses.dtype == np.int64

    def test_paired_seeds_across_specs(self, ensemble):
        # Within a trial, every spec saw the same seed.
        for i in range(3):
            seeds = {ensemble.results[spec][i].seed for spec in SPECS}
            assert len(seeds) == 1

    def test_trials_have_distinct_seeds(self, ensemble):
        seeds = [r.seed for r in ensemble.results[SPECS[0]]]
        assert len(set(seeds)) == 3

    def test_deterministic_rerun(self, ensemble):
        again = run_ensemble(SPECS, tiny_config(), num_trials=3, base_seed=42)
        for spec in SPECS:
            assert np.array_equal(ensemble.misses(spec), again.misses(spec))

    def test_base_seed_changes_results(self, ensemble):
        other = run_ensemble(SPECS, tiny_config(), num_trials=3, base_seed=43)
        different = any(
            not np.array_equal(ensemble.misses(spec), other.misses(spec))
            for spec in SPECS
        )
        assert different

    def test_median_and_by_heuristic(self, ensemble):
        med = ensemble.median_misses(SPECS[0])
        assert med == float(np.median(ensemble.misses(SPECS[0])))
        cols = ensemble.by_heuristic("MECT")
        assert set(cols) == {"none", "en+rob"}

    def test_best_variant(self, ensemble):
        best = ensemble.best_variant("MECT")
        assert best.heuristic == "MECT"
        assert ensemble.median_misses(best) == min(
            ensemble.median_misses(VariantSpec("MECT", v)) for v in ("none", "en+rob")
        )

    def test_best_variant_unknown_heuristic(self, ensemble):
        with pytest.raises(KeyError):
            ensemble.best_variant("OLB")

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError):
            run_ensemble((), tiny_config(), 1)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_ensemble(SPECS, tiny_config(), 0)

    @pytest.mark.parametrize("n_jobs", [0, -1, -8])
    def test_rejects_non_positive_n_jobs(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_ensemble(SPECS, tiny_config(), num_trials=1, n_jobs=n_jobs)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "options, match",
        [
            ({"trial_timeout": 0.0}, "trial_timeout"),
            ({"trial_timeout": -3.0}, "trial_timeout"),
            ({"max_retries": -1}, "max_retries"),
        ],
        ids=["timeout-0", "timeout-negative", "retries-negative"],
    )
    def test_rejects_bad_retry_options_before_any_work(self, tmp_path, n_jobs, options, match):
        shard = tmp_path / "run.ckpt.jsonl"
        with pytest.raises(ValueError, match=match):
            run_ensemble(
                SPECS, tiny_config(), num_trials=1, n_jobs=n_jobs, checkpoint=shard, **options
            )
        assert not shard.exists()

    def test_spec_label(self):
        assert VariantSpec("LL", "en+rob").label == "LL/en+rob"


class TestParallelFanIn:
    def test_keep_outcomes_with_parallel_workers(self, ensemble):
        # Outcomes must survive pickling through the worker pipes, land on
        # the right (spec, trial) cell, and fan in independent of n_jobs.
        parallel = run_ensemble(
            SPECS,
            tiny_config(),
            num_trials=3,
            base_seed=42,
            n_jobs=2,
            keep_outcomes=True,
        )
        for spec in SPECS:
            assert np.array_equal(ensemble.misses(spec), parallel.misses(spec))
            for trial, result in enumerate(parallel.results[spec]):
                assert len(result.outcomes) == result.num_tasks
                assert result.seed == ensemble.results[spec][trial].seed
        serial = run_ensemble(
            SPECS,
            tiny_config(),
            num_trials=3,
            base_seed=42,
            keep_outcomes=True,
        )
        for spec in SPECS:
            assert parallel.results[spec] == serial.results[spec]
