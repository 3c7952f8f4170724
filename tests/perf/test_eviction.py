"""Eviction pressure keeps the kernel cache results-neutral.

A tiny ``KernelCache(max_entries)`` forces the LRU to churn constantly
during a real trial — the nastiest regime for an interning cache,
because almost every lookup re-materializes a kernel that was just
thrown away.  The contract under test: results stay bitwise identical to
the never-hit ``NeverHitCache`` reference, and every eviction the
cache's own counters record is also visible to the op observer as a
``cache_evict`` operation (the two instrumentation paths must not drift
apart).
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro.experiments.runner import VariantSpec, policy_for
from repro.obs.hooks import observe_trial
from repro.obs.manifest import trial_digest
from repro.obs.sinks import MetricsRegistry
from repro.perf.kernel_cache import KernelCache
from tests.conftest import NeverHitCache, micro_config

SPEC = VariantSpec("LL", "en+rob")


def _run(system, spec, kernel_cache, **options):
    return observe_trial(system, *policy_for(system, spec), kernel_cache=kernel_cache, **options)


@pytest.fixture(scope="module")
def reference():
    system = build_trial_system(micro_config(seed=23))
    return _run(system, SPEC, NeverHitCache())


@pytest.mark.parametrize("max_entries", (1, 4, 32))
def test_tiny_cache_is_results_neutral(reference, max_entries):
    system = build_trial_system(micro_config(seed=23))
    result = _run(system, SPEC, KernelCache(max_entries))
    assert result == reference
    assert trial_digest(result) == trial_digest(reference)


def test_evictions_happen_and_observer_counts_match():
    system = build_trial_system(micro_config(seed=23))
    metrics = MetricsRegistry()
    _run(system, SPEC, KernelCache(4), metrics=metrics)
    evictions = metrics.counter("perf.cache.evictions")
    assert evictions > 0  # capacity 4 must churn on a real trial
    # The op observer saw one cache_evict per eviction the cache counted.
    assert metrics.counter("stoch.ops.cache_evict") == evictions
    # Steady state: a full cache holds exactly its capacity.
    assert metrics.counter("perf.cache.entries") == 4


def test_shared_tiny_cache_attributes_evictions_per_spec():
    """Per-spec eviction deltas of a shared churning cache sum to the total."""
    system = build_trial_system(micro_config(seed=23))
    shared = KernelCache(4)
    metrics = MetricsRegistry()
    specs = (SPEC, VariantSpec("MECT", "none"))
    for spec in specs:
        _run(system, spec, shared, metrics=metrics)
    total = metrics.counter("perf.cache.evictions")
    per_spec = sum(
        metrics.counter(f"perf.cache.evictions.{spec.label}") for spec in specs
    )
    assert total > 0
    assert per_spec == total
    assert shared.stats().evictions == total
