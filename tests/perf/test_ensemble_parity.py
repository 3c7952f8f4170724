"""Ensemble-level results-neutrality of the full optimization stack.

PR-level acceptance: with every ensemble optimization engaged at once —
the warm cross-spec :class:`TrialCache`, the kernel cache, chunked
dispatch and the single-copy result frames — every ``TrialResult`` and
the run's manifest digests are bitwise identical to the reference: a
plain loop running every spec of every trial through
:func:`~repro.obs.hooks.observe_trial` on the uncached
``TrialCache(None)`` path, at any ``n_jobs`` and chunk size.  Sharing
one ``TrialCache`` across a trial's specs is pinned separately against
a fresh handle per spec.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro import rng as rng_mod
from repro.experiments.runner import EnsembleResult, VariantSpec, policy_for, run_ensemble
from repro.obs.hooks import observe_trial
from repro.obs.manifest import build_manifest
from repro.perf.kernel_cache import KernelCache
from repro.perf.trial_cache import TrialCache
from tests.conftest import micro_config

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


def _run_specs(make_shared, *, per_spec=False):
    """Every spec of every trial through ``observe_trial``, in ensemble order.

    ``make_shared()`` builds the ``shared=`` handle: one per trial (its
    specs share it, as in the runner) or, with ``per_spec``, one per spec.
    """
    config = micro_config(seed=31)
    results = {spec: [] for spec in SPECS}
    for trial in range(TRIALS):
        seed = rng_mod.spawn_trial_seed(BASE_SEED, trial)
        system = build_trial_system(config.with_seed(seed))
        shared = make_shared()
        for spec in SPECS:
            results[spec].append(
                observe_trial(
                    system,
                    *policy_for(system, spec),
                    shared=make_shared() if per_spec else shared,
                )
            )
    return results


@pytest.fixture(scope="module")
def reference():
    """The uncached per-trial loop, as an ensemble (for its manifest)."""
    results = _run_specs(lambda: TrialCache(None))
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
    for make_shared in (
        lambda: None,  # every engine's private cache
        lambda: TrialCache(KernelCache(4)),  # a shared cache churning under eviction
    ):
        partial = _run_specs(make_shared)
        for spec in SPECS:
            assert partial[spec] == list(reference.results[spec])


@pytest.mark.parametrize(
    "make_kernel", [KernelCache, lambda: None], ids=["cache-on", "cache-off"]
)
def test_shared_trial_cache_matches_unshared(reference, make_kernel):
    """One ``TrialCache`` across a trial's specs changes no bit of any result."""
    unshared = _run_specs(lambda: TrialCache(make_kernel()), per_spec=True)
    shared = _run_specs(lambda: TrialCache(make_kernel()))
    for spec in SPECS:
        assert shared[spec] == unshared[spec] == list(reference.results[spec])
