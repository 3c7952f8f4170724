"""The runner's bit-reproducibility promise, asserted.

``experiments/runner.py`` documents that results are deterministic
regardless of ``n_jobs``; these tests pin it down with full
``TrialResult`` equality (including NaN-aware per-task outcomes), and
check that attaching observability does not perturb results either —
the paired-seed A/B guarantee the obs layer is built on.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import VariantSpec, run_ensemble
from repro.obs.sinks import MetricsRegistry
from tests.conftest import micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"))


def depth_snapshot(registry: MetricsRegistry) -> tuple:
    depth = registry.histograms["queue_depth"]
    return (depth.counts, depth.count)


@pytest.fixture(scope="module")
def serial_ensemble():
    return run_ensemble(
        SPECS, micro_config(seed=5), num_trials=3, base_seed=9, n_jobs=1,
        keep_outcomes=True,
    )


class TestParallelDeterminism:
    def test_n_jobs_2_bitwise_identical(self, serial_ensemble):
        parallel = run_ensemble(
            SPECS, micro_config(seed=5), num_trials=3, base_seed=9, n_jobs=2,
            keep_outcomes=True,
        )
        for spec in SPECS:
            serial_trials = serial_ensemble.results[spec]
            parallel_trials = parallel.results[spec]
            assert len(serial_trials) == len(parallel_trials)
            for a, b in zip(serial_trials, parallel_trials):
                # TrialResult equality covers every scalar plus the full
                # outcome tuples (TaskOutcome.__eq__ is NaN-aware).
                assert a == b

    def test_trial_order_preserved_under_parallelism(self, serial_ensemble):
        parallel = run_ensemble(
            SPECS, micro_config(seed=5), num_trials=3, base_seed=9, n_jobs=2,
            keep_outcomes=True,
        )
        for spec in SPECS:
            assert [r.seed for r in serial_ensemble.results[spec]] == [
                r.seed for r in parallel.results[spec]
            ]

    def test_metrics_collection_does_not_change_results(self, serial_ensemble):
        registry = MetricsRegistry()
        observed = run_ensemble(
            SPECS, micro_config(seed=5), num_trials=3, base_seed=9, n_jobs=1,
            keep_outcomes=True, metrics=registry,
        )
        for spec in SPECS:
            for a, b in zip(serial_ensemble.results[spec], observed.results[spec]):
                assert a == b
        assert registry.counter("trials_run") == 3 * len(SPECS)

    def test_metrics_totals_independent_of_n_jobs(self):
        totals = []
        for n_jobs in (1, 2):
            registry = MetricsRegistry()
            run_ensemble(
                SPECS, micro_config(seed=5), num_trials=3, base_seed=9,
                n_jobs=n_jobs, metrics=registry,
            )
            # ``executor.*`` counters (dispatch and recovery counts) are
            # harness-operational: they describe *how* trials were
            # delivered to workers, so they only exist on the parallel
            # path.  Everything else — the simulation metrics — must be
            # identical across n_jobs.
            counters = {
                k: v for k, v in registry.counters.items()
                if not k.startswith("executor.")
            }
            if n_jobs > 1:
                assert registry.counter("executor.trials_dispatched") == 3
            totals.append((counters, depth_snapshot(registry)))
        assert totals[0] == totals[1]
