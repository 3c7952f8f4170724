"""Ensemble-level results-neutrality of the full optimization stack.

PR-level acceptance: with every ensemble optimization engaged at once —
the warm cross-spec :class:`TrialCache`, the kernel cache, chunked
dispatch and the single-copy result frames — every ``TrialResult`` and
the run's manifest digests are bitwise identical to the reference path
(``PerfConfig.disabled()``), at any ``n_jobs`` and chunk size.  Sharing
one ``TrialCache`` across a trial's specs is pinned separately against
running every spec with ``shared=None``.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro import rng as rng_mod
from repro.experiments.runner import TrialPlan, VariantSpec, run_ensemble
from repro.obs.manifest import build_manifest
from repro.perf.kernel_cache import PerfConfig
from repro.perf.trial_cache import TrialCache
from tests.conftest import micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"), VariantSpec("SQ", "en+rob"))
TRIALS = 4


def run(perf, *, n_jobs=1, chunk_size=None):
    return run_ensemble(
        SPECS,
        micro_config(seed=31),
        num_trials=TRIALS,
        base_seed=17,
        n_jobs=n_jobs,
        keep_outcomes=True,
        perf=perf,
        chunk_size=chunk_size,
    )


@pytest.fixture(scope="module")
def reference():
    return run(PerfConfig.disabled())


@pytest.mark.parametrize(
    "n_jobs,chunk_size",
    [(1, None), (2, None), (2, 1), (2, 3)],
    ids=["serial", "parallel-auto", "parallel-chunk1", "parallel-chunk3"],
)
def test_all_optimizations_bitwise_match_reference(reference, n_jobs, chunk_size):
    optimized = run(None, n_jobs=n_jobs, chunk_size=chunk_size)
    for spec in SPECS:
        assert optimized.results[spec] == reference.results[spec]
    config = micro_config(seed=31)
    assert (
        build_manifest(optimized, config).to_dict()
        == build_manifest(reference, config).to_dict()
    )


def test_each_knob_alone_matches_reference(reference):
    for perf in (
        PerfConfig(kernel_cache=False),  # cache off
        PerfConfig(max_entries=4),  # a shared cache churning under eviction
    ):
        partial = run(perf)
        for spec in SPECS:
            assert partial.results[spec] == reference.results[spec]


def _run_specs(perf, shared_factory):
    """Every spec of every trial through ``TrialPlan``, in ensemble order."""
    config = micro_config(seed=31)
    results = {spec: [] for spec in SPECS}
    for trial in range(TRIALS):
        system = build_trial_system(config.with_seed(rng_mod.spawn_trial_seed(17, trial)))
        shared = shared_factory(perf)
        for spec in SPECS:
            results[spec].append(
                TrialPlan(
                    system=system, spec=spec, keep_outcomes=True, perf=perf, shared=shared
                ).run()
            )
    return results


@pytest.mark.parametrize(
    "perf", [PerfConfig(), PerfConfig.disabled()], ids=["cache-on", "cache-off"]
)
def test_shared_trial_cache_matches_unshared(reference, perf):
    """One ``TrialCache`` across a trial's specs changes no bit of any result."""
    unshared = _run_specs(perf, lambda perf: None)
    shared = _run_specs(perf, TrialCache)
    for spec in SPECS:
        assert shared[spec] == unshared[spec] == list(reference.results[spec])
