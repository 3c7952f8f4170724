"""Tests for the content-addressed kernel cache (repro.perf)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import build_trial_system
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache
from repro.sim.engine import Engine
from repro.stoch.ops import truncate_below
from repro.stoch.pmf import PMF
from tests.conftest import micro_config


def _kernel(value: float = 1.0) -> InternedKernel:
    probs = np.array([value])
    probs /= probs.sum()
    probs.setflags(write=False)
    return InternedKernel(probs, 0, None)


class TestKernelCache:
    def test_lru_eviction_prefers_recently_used(self):
        cache = KernelCache(max_entries=2)
        cache.put(("a",), _kernel())
        cache.put(("b",), _kernel())
        assert cache.get(("a",)) is not None  # refresh "a"
        cache.put(("c",), _kernel())  # evicts the stale "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None

    def test_stats_counters(self):
        cache = KernelCache(max_entries=1)
        assert cache.get(("missing",)) is None
        cache.put(("x",), _kernel())
        assert cache.get(("x",)) is not None
        evicted = cache.put(("y",), _kernel())
        assert evicted == 1
        stats = cache.stats()
        assert stats == CacheStats(hits=1, misses=1, evictions=1, entries=1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.to_dict()["hit_rate"] == 0.5

    def test_empty_cache_hit_rate_is_zero(self):
        assert KernelCache().stats().hit_rate == 0.0

    def test_clear_keeps_counters(self):
        cache = KernelCache()
        cache.put(("x",), _kernel())
        cache.get(("x",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            KernelCache(0)


class TestInternedKernel:
    def test_rebuild_is_bitwise_and_backfills_lazily(self):
        result = PMF(30.0, 15.0, np.array([0.2, 0.3, 0.5]))
        kernel = InternedKernel.from_result(result, 0.0)
        assert kernel.lo == 2
        # The moment is not forced at intern time...
        assert kernel.m1 is None
        rebuilt = kernel.rebuild(0.0, 15.0)
        # ...but is materialized (and shared) by the first rebuild.
        assert kernel.m1 is not None
        assert rebuilt.start == result.start
        assert rebuilt.probs.tobytes() == result.probs.tobytes()
        assert rebuilt.mean() == result.mean()
        assert rebuilt.cdf.tobytes() == result.cdf.tobytes()

    def test_from_result_carries_computed_derivations(self):
        result = PMF(0.0, 1.0, np.array([0.5, 0.5]))
        result.mean()
        kernel = InternedKernel.from_result(result, 0.0)
        assert kernel.m1 is not None

    def test_cache_hit_computes_no_cdf_until_read(self):
        # A hit's pmf gets its CDF only when something reads it (resident
        # rows accumulate their own), and that CDF is the fresh one's.
        pmf = PMF(3.0, 1.0, np.array([0.1, 0.2, 0.3, 0.4]))
        cache = KernelCache()
        fresh = truncate_below(pmf, 4.5, cache=cache)
        fresh_cdf = fresh.cdf
        hit = truncate_below(pmf, 4.5, cache=cache)
        assert cache.hits == 1 and hit is not fresh
        assert hit.start == fresh.start
        assert hit.probs.tobytes() == fresh.probs.tobytes()
        assert hit.cdf.tobytes() == fresh_cdf.tobytes()


class TestEngineKernelCache:
    def _engine(self, system, heuristic="SQ", **options):
        return Engine(system, build_heuristic(heuristic), build_filter_chain("none"), **options)

    def test_engine_uses_the_cache_it_is_given(self):
        system = build_trial_system(micro_config(seed=5))
        cache = KernelCache(8)
        engine = self._engine(system, kernel_cache=cache)
        assert all(core._cache is cache for core in engine.cores)
        # No cache given: the engine builds a private default-capacity one.
        private = self._engine(system)._kernel_cache
        assert isinstance(private, KernelCache) and private is not cache
        assert private.max_entries == KernelCache().max_entries

    def test_shared_cache_stats_are_per_run(self):
        system = build_trial_system(micro_config(seed=5))
        cache = KernelCache()
        # LL reads every core's rho, so every busy core's ready pmf (and
        # its truncation) is computed; SQ reads almost none of them.
        first = self._engine(system, "LL", kernel_cache=cache)
        first.run()
        a = first.kernel_cache_stats()
        second = self._engine(system, "LL", kernel_cache=cache)
        second.run()
        b = second.kernel_cache_stats()
        assert a.lookups > 0
        assert b.hits > 0  # the second run reads what the first interned
        assert a.hits + b.hits == cache.hits
        assert a.misses + b.misses == cache.misses
        assert a.entries + b.entries == len(cache)


@st.composite
def pmfs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    probs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ).filter(lambda xs: sum(xs) > 1e-6)
    )
    start = draw(st.floats(min_value=-500.0, max_value=500.0))
    dt = draw(st.sampled_from([0.5, 1.0, 15.0]))
    return PMF(start, dt, np.asarray(probs, dtype=np.float64))


class TestCachedTruncateBitwise:
    @given(pmfs(), st.floats(min_value=-0.1, max_value=1.2))
    def test_miss_and_hit_match_uncached_exactly(self, pmf, frac):
        """Interned truncations are bitwise identical to fresh ones.

        The cut sweeps past both ends of the support so the no-op,
        materializing, and degenerate branches are all exercised.
        """
        t = pmf.start + frac * (pmf.probs.size * pmf.dt)
        reference = truncate_below(pmf, t)
        cache = KernelCache()
        first = truncate_below(pmf, t, cache=cache)  # miss path
        second = truncate_below(pmf, t, cache=cache)  # hit path (when interned)
        for out in (first, second):
            assert out.start == reference.start
            assert out.dt == reference.dt
            assert out.probs.tobytes() == reference.probs.tobytes()
