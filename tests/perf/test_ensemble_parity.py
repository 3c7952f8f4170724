"""Ensemble-level results-neutrality of the full optimization stack.

With every ensemble optimization engaged at once — one kernel cache
shared by a trial's specs and the single-copy result frames — every
``TrialResult`` and the run's manifest digests are bitwise identical to
the reference: a plain loop running every spec of every trial through
:func:`~repro.obs.hooks.observe_trial` on the never-hit
``NeverHitCache``, serially and on the worker pool.  Sharing one cache
across a trial's specs is pinned separately against a fresh cache per
spec.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro import rng as rng_mod
from repro.experiments.runner import EnsembleResult, VariantSpec, policy_for, run_ensemble
from repro.obs.hooks import observe_trial
from repro.obs.manifest import build_manifest
from repro.perf.kernel_cache import KernelCache
from tests.conftest import NeverHitCache, micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"), VariantSpec("SQ", "en+rob"))
TRIALS = 4
BASE_SEED = 17


def run(*, n_jobs=1):
    return run_ensemble(
        SPECS,
        micro_config(seed=31),
        num_trials=TRIALS,
        base_seed=BASE_SEED,
        n_jobs=n_jobs,
        keep_outcomes=True,
    )


def _run_specs(make_cache, *, per_spec=False):
    """Every spec of every trial through ``observe_trial``, in ensemble order.

    ``make_cache()`` builds the ``kernel_cache=``: one per trial (its
    specs share it, as in the runner) or, with ``per_spec``, one per spec.
    """
    config = micro_config(seed=31)
    results = {spec: [] for spec in SPECS}
    for trial in range(TRIALS):
        seed = rng_mod.spawn_trial_seed(BASE_SEED, trial)
        system = build_trial_system(config.with_seed(seed))
        cache = make_cache()
        for spec in SPECS:
            results[spec].append(
                observe_trial(
                    system,
                    *policy_for(system, spec),
                    kernel_cache=make_cache() if per_spec else cache,
                )
            )
    return results


@pytest.fixture(scope="module")
def reference():
    """The never-hit per-trial loop, as an ensemble (for its manifest)."""
    results = _run_specs(NeverHitCache)
    return EnsembleResult(
        specs=SPECS,
        num_trials=TRIALS,
        base_seed=BASE_SEED,
        results={spec: tuple(rs) for spec, rs in results.items()},
    )


@pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "parallel"])
def test_all_optimizations_bitwise_match_reference(reference, n_jobs):
    optimized = run(n_jobs=n_jobs)
    for spec in SPECS:
        assert optimized.results[spec] == reference.results[spec]
    config = micro_config(seed=31)
    assert (
        build_manifest(optimized, config).to_dict()
        == build_manifest(reference, config).to_dict()
    )


def test_each_knob_alone_matches_reference(reference):
    for make_cache in (
        lambda: None,  # every engine's private cache
        lambda: KernelCache(4),  # a shared cache churning under eviction
    ):
        partial = _run_specs(make_cache)
        for spec in SPECS:
            assert partial[spec] == list(reference.results[spec])


@pytest.mark.parametrize(
    "make_cache", [KernelCache, NeverHitCache], ids=["cache-on", "cache-off"]
)
def test_shared_trial_cache_matches_unshared(reference, make_cache):
    """One cache across a trial's specs changes no bit of any result."""
    unshared = _run_specs(make_cache, per_spec=True)
    shared = _run_specs(make_cache)
    for spec in SPECS:
        assert shared[spec] == unshared[spec] == list(reference.results[spec])
