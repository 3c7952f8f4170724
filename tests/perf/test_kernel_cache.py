"""Tests for the content-addressed kernel cache (repro.perf)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache, PerfConfig
from repro.stoch.ops import set_kernel_cache, truncate_below
from repro.stoch.pmf import PMF


def _kernel(value: float = 1.0) -> InternedKernel:
    probs = np.array([value])
    probs /= probs.sum()
    probs.setflags(write=False)
    return InternedKernel(probs, 0, None, None, None)


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
        # Derivations are not forced at intern time...
        assert kernel.m1 is None and kernel.cdf is None
        rebuilt = kernel.rebuild(0.0, 15.0)
        # ...but are materialized (and shared) by the first rebuild.
        assert kernel.m1 is not None and kernel.cdf is not None
        assert rebuilt.start == result.start
        assert rebuilt.probs.tobytes() == result.probs.tobytes()
        assert rebuilt.mean() == result.mean()
        assert rebuilt.cdf.tobytes() == result.cdf.tobytes()

    def test_from_result_carries_computed_derivations(self):
        result = PMF(0.0, 1.0, np.array([0.5, 0.5]))
        result.mean()
        result.content_key()
        kernel = InternedKernel.from_result(result, 0.0)
        assert kernel.m1 is not None
        assert kernel.key is not None


class TestPerfConfig:
    def test_defaults_enable_everything(self):
        perf = PerfConfig()
        assert perf.kernel_cache
        assert isinstance(perf.make_cache(), KernelCache)
        # One reference switch, the eviction capacity and the backend.
        assert [f.name for f in fields(PerfConfig)] == ["kernel_cache", "max_entries", "backend"]

    def test_disabled_is_the_reference(self):
        perf = PerfConfig.disabled()
        assert not perf.kernel_cache and perf.backend == "numpy"
        assert perf.make_cache() is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PerfConfig(max_entries=0)


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
        previous = set_kernel_cache(cache)
        try:
            first = truncate_below(pmf, t)  # miss path
            second = truncate_below(pmf, t)  # hit path (when interned)
        finally:
            set_kernel_cache(previous)
        for out in (first, second):
            assert out.start == reference.start
            assert out.dt == reference.dt
            assert out.probs.tobytes() == reference.probs.tobytes()
