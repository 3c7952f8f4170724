"""Ensemble-level results-neutrality of the full optimization stack.

With every ensemble optimization engaged at once — one kernel cache
shared by a trial's specs, chunked dispatch and the single-copy result
frames — every ``TrialResult`` and the run's manifest digests are
bitwise identical to the reference: a plain loop running every spec of
every trial through :func:`~repro.obs.hooks.observe_trial` on the
never-hit ``NeverHitCache``, at any ``n_jobs`` and chunk size.  Sharing
one cache across a trial's specs is pinned separately against a fresh
cache per spec.
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


def run(*, n_jobs=1, chunk_size=None):
    return run_ensemble(
        SPECS,
        micro_config(seed=31),
        num_trials=TRIALS,
        base_seed=BASE_SEED,
        n_jobs=n_jobs,
        keep_outcomes=True,
        chunk_size=chunk_size,
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


@pytest.mark.parametrize(
    "n_jobs,chunk_size",
    [(1, None), (2, None), (2, 1), (2, 3)],
    ids=["serial", "parallel-auto", "parallel-chunk1", "parallel-chunk3"],
)
def test_all_optimizations_bitwise_match_reference(reference, n_jobs, chunk_size):
    optimized = run(n_jobs=n_jobs, chunk_size=chunk_size)
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
