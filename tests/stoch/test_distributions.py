"""Tests for continuous-law discretizers (repro.stoch.distributions)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.stoch import distributions
from repro.stoch.distributions import discretized_gamma, iter_discretized_gamma
from repro.stoch.pmf import PMF


class TestGamma:
    def test_mean_matches(self):
        pmf = discretized_gamma(mean=750.0, cv=0.2, dt=5.0)
        assert pmf.mean() == pytest.approx(750.0, rel=0.01)

    def test_std_matches_cv(self):
        pmf = discretized_gamma(mean=750.0, cv=0.2, dt=5.0)
        assert pmf.std() == pytest.approx(150.0, rel=0.05)

    def test_mass_normalized(self):
        pmf = discretized_gamma(mean=100.0, cv=0.3, dt=2.0)
        assert pmf.total_mass() == pytest.approx(1.0)

    def test_support_positive(self):
        pmf = discretized_gamma(mean=50.0, cv=0.5, dt=1.0)
        assert pmf.start >= 0.0

    def test_tail_truncation_shrinks_support(self):
        wide = discretized_gamma(mean=100.0, cv=0.2, dt=1.0, tail_sigmas=5.0)
        narrow = discretized_gamma(mean=100.0, cv=0.2, dt=1.0, tail_sigmas=2.0)
        assert len(narrow) < len(wide)

    def test_small_mean_relative_to_dt(self):
        # Narrower than a single bin: degenerates but stays a valid pmf.
        pmf = discretized_gamma(mean=1.0, cv=0.05, dt=10.0)
        assert pmf.total_mass() == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            discretized_gamma(0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            discretized_gamma(10.0, -0.2, 1.0)

    def test_right_skewed(self):
        # Gamma with large cv has mean > median.
        pmf = discretized_gamma(mean=100.0, cv=0.8, dt=0.5)
        assert pmf.mean() > pmf.quantile(0.5)


class TestGridAlignment:
    def test_all_laws_share_grid_step(self):
        dt = 2.5
        laws = [
            discretized_gamma(100.0, 0.2, dt),
            *iter_discretized_gamma(np.array([50.0, 100.0, 400.0]), 0.5, dt),
        ]
        for pmf in laws:
            assert pmf.dt == pytest.approx(dt)

    def test_bin_centers_half_offset(self):
        # Edges at multiples of dt put centers at (k + 0.5) * dt.
        pmf = discretized_gamma(10.0, 0.3, dt=1.0)
        frac = (pmf.start / pmf.dt) % 1.0
        assert frac == pytest.approx(0.5)


class TestRejectsBadGrid:
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
    def test_every_discretizer(self, dt):
        for call in (
            lambda: discretized_gamma(100.0, 0.2, dt),
            lambda: list(iter_discretized_gamma(np.array([100.0]), 0.2, dt)),
        ):
            with pytest.raises(ValueError, match="dt"):
                call()


# ----------------------------------------------------------------------
# Bitwise oracle: the scipy.stats CDF finished by PMF(...).compact()
# ----------------------------------------------------------------------


def _ref_edges(lo: float, hi: float, dt: float) -> np.ndarray:
    first = math.floor(lo / dt)
    last = max(math.ceil(hi / dt), first + 1)
    return dt * np.arange(first, last + 1)


def _ref_pmf(cdf_vals: np.ndarray, edges: np.ndarray, dt: float) -> PMF:
    masses = np.clip(np.diff(cdf_vals), 0.0, None)
    if masses.sum() <= 0.0:
        masses = np.zeros(masses.size)
        masses[masses.size // 2] = 1.0
    return PMF(float(edges[0]) + 0.5 * dt, dt, masses).compact()


def _ref_gamma(mean: float, cv: float, dt: float, tail_sigmas: float) -> PMF:
    std = cv * mean
    edges = _ref_edges(max(0.0, mean - tail_sigmas * std), mean + tail_sigmas * std, dt)
    cdf_vals = stats.gamma.cdf(edges, a=1.0 / (cv * cv), scale=mean * cv * cv)
    return _ref_pmf(cdf_vals, edges, dt)


def _assert_bitwise(got: PMF, want: PMF) -> None:
    assert got.start == want.start
    assert got.dt == want.dt
    assert got.probs.dtype == want.probs.dtype
    assert got.probs.tobytes() == want.probs.tobytes()
    assert not got.probs.flags.writeable


# Laws are drawn in units of dt so the bin count stays bounded.
_dts = st.floats(0.01, 50.0)
_cvs = st.floats(0.01, 1.5)
_tails = st.floats(0.25, 8.0)
_ratios = st.floats(0.01, 400.0)


class TestBitwiseOracle:
    @settings(max_examples=150, deadline=None)
    @given(ratios=st.lists(_ratios, min_size=1, max_size=6), cv=_cvs, dt=_dts, tail=_tails)
    def test_gamma_scalar_and_batch(self, ratios, cv, dt, tail):
        means = [r * dt for r in ratios]
        batch = list(iter_discretized_gamma(np.array(means), cv, dt, tail_sigmas=tail))
        assert len(batch) == len(means)
        for mean, pmf in zip(means, batch):
            want = _ref_gamma(mean, cv, dt, tail)
            _assert_bitwise(discretized_gamma(mean, cv, dt, tail_sigmas=tail), want)
            _assert_bitwise(pmf, want)
            # Each law owns its array: none keeps the batch buffer alive.
            assert pmf.probs.base is None

    def test_gamma_narrower_than_one_bin_fallback(self):
        # Negative tail_sigmas invert the range; the one bin left lies
        # far beyond the law's mass.
        want = _ref_gamma(100.0, 0.01, 1.0, -20.0)
        assert len(want) == 1 and want.probs[0] == 1.0
        _assert_bitwise(discretized_gamma(100.0, 0.01, 1.0, tail_sigmas=-20.0), want)
        (batch,) = iter_discretized_gamma(np.array([100.0]), 0.01, 1.0, tail_sigmas=-20.0)
        _assert_bitwise(batch, want)


class TestBlockedBatch:
    """``iter_discretized_gamma`` evaluates the CDF a block of laws at a
    time; a small block forces every blocking case, and each pmf stays
    bitwise the scalar one."""

    # cv 0.5 and 4 sigmas on dt 1: law m spans [0, 3m], 3m + 1 edges.
    CV, DT, TAIL, BLOCK = 0.5, 1.0, 4.0, 32

    def _check(self, monkeypatch, means, calls):
        import scipy.special

        seen = []
        real = scipy.special.gammainc

        def counting(a, x):
            seen.append(x.size)
            return real(a, x)

        monkeypatch.setattr(distributions, "_BLOCK_EDGES", self.BLOCK)
        monkeypatch.setattr(scipy.special, "gammainc", counting)
        batch = list(iter_discretized_gamma(np.array(means), self.CV, self.DT, tail_sigmas=self.TAIL))
        monkeypatch.undo()
        assert len(batch) == len(means)
        for mean, pmf in zip(means, batch):
            _assert_bitwise(pmf, discretized_gamma(mean, self.CV, self.DT, tail_sigmas=self.TAIL))
            assert pmf.probs.base is None
        assert len(seen) == calls
        return seen

    def test_law_straddling_a_block_edge(self, monkeypatch):
        # 10 + 13 edges fit one block; the third law's 16 would cross
        # edge 32, so it opens the next block whole.
        assert self._check(monkeypatch, [3.0, 4.0, 5.0], calls=2) == [23, 16]

    def test_law_longer_than_a_block(self, monkeypatch):
        # 61 edges: a block of its own, between two short laws' blocks.
        assert self._check(monkeypatch, [3.0, 20.0, 4.0], calls=3) == [10, 61, 13]

    def test_batch_of_one_law(self, monkeypatch):
        assert self._check(monkeypatch, [5.0], calls=1) == [16]

    def test_iter_yields_each_block_before_the_next(self, monkeypatch):
        # The execution-time table copies each law out as it arrives, so
        # the iterator must not evaluate a block before it is reached.
        import scipy.special

        seen = []
        real = scipy.special.gammainc

        def counting(a, x):
            seen.append(x.size)
            return real(a, x)

        monkeypatch.setattr(distributions, "_BLOCK_EDGES", self.BLOCK)
        monkeypatch.setattr(scipy.special, "gammainc", counting)
        means = [3.0, 4.0, 5.0]
        laws = iter_discretized_gamma(
            np.array(means), self.CV, self.DT, tail_sigmas=self.TAIL
        )
        assert seen == []
        first, second = next(laws), next(laws)
        assert seen == [23]
        third = next(laws)
        assert seen == [23, 16]
        monkeypatch.undo()
        for mean, pmf in zip(means, (first, second, third)):
            _assert_bitwise(pmf, discretized_gamma(mean, self.CV, self.DT, tail_sigmas=self.TAIL))
