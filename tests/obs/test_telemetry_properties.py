"""Property tests pinning the streaming estimators to exact references.

The P² quantile estimator is checked against ``numpy.quantile`` — exact
(bitwise) up to five observations, tolerance-bounded on longer smooth
streams — and the batch-means confidence interval is checked for
coverage on the known-iid normal case where the textbook answer is
unambiguous.  Runs under the suite's derandomized ``ci`` profile.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.steady_state import batch_means_ci, mser_truncation
from repro.obs.telemetry import DEFAULT_QUANTILES, P2Quantile, QuantileSet

_finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
_quantiles = st.floats(min_value=0.01, max_value=0.99)


def _fill(q: float, xs) -> P2Quantile:
    est = P2Quantile(q)
    for x in xs:
        est.observe(x)
    return est


class TestP2AgainstNumpy:
    @given(_quantiles, st.lists(_finite, min_size=1, max_size=5))
    def test_small_n_is_bitwise_exact(self, q, xs):
        est = _fill(q, xs)
        assert est.value == float(np.quantile(xs, q, method="linear"))

    @given(_quantiles, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_large_normal_stream_is_close(self, q, seed):
        rng = np.random.default_rng(seed)
        xs = rng.normal(0.0, 1.0, size=2000)
        est = _fill(q, xs)
        exact = float(np.quantile(xs, q))
        # Smooth distribution, plenty of data: the P² error is small
        # relative to the sample spread.
        assert abs(est.value - exact) < 0.25

    @given(_quantiles, st.lists(_finite, min_size=1, max_size=400))
    def test_estimate_bounded_by_observed_range(self, q, xs):
        est = _fill(q, xs)
        assert min(xs) <= est.value <= max(xs)
        assert est.count == len(xs)

    @given(st.lists(_finite, min_size=1, max_size=60))
    def test_quantile_set_agrees_with_solo_estimators(self, xs):
        bundle = QuantileSet()
        for x in xs:
            bundle.observe(x)
        for q in DEFAULT_QUANTILES:
            assert bundle.values()[q] == _fill(q, xs).value
        assert bundle.count == len(xs)
        assert bundle.min == min(xs)
        assert bundle.max == max(xs)


class TestMserProperties:
    @given(st.lists(_finite, min_size=0, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_truncation_is_batch_multiple_within_half(self, xs, batch):
        d = mser_truncation(xs, batch=batch)
        assert d % batch == 0
        n_batches = len(xs) // batch
        assert 0 <= d <= (n_batches // 2) * batch

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11, 42, 2011])
    def test_detects_an_obvious_transient(self, seed):
        rng = np.random.default_rng(seed)
        # 30 windows of a strong transient, then 120 of flat noise.
        transient = 50.0 * np.exp(-np.arange(30) / 5.0)
        steady = rng.normal(1.0, 0.1, size=120)
        d = mser_truncation(np.concatenate([transient, steady]))
        # The truncation must remove the bulk of the transient without
        # pinning at its half-series bound (75 here); MSER may overshoot
        # a little when the post-transient noise dips.
        assert 20 <= d <= 70

    def test_stationary_series_needs_no_truncation(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(5.0, 0.2, size=200)
        # No transient: truncating should buy (almost) nothing.
        assert mser_truncation(xs) <= 20


class TestBatchMeansCi:
    @given(st.lists(_finite, min_size=4, max_size=300))
    def test_mean_matches_numpy_and_half_is_positive(self, xs):
        mean, half, k, b = batch_means_ci(xs)
        assert mean == float(np.asarray(xs).mean())
        if not math.isnan(half):
            assert half >= 0.0
            assert 2 <= k
            assert b >= 2
            assert k * b <= len(xs)

    def test_short_series_reports_mean_without_interval(self):
        mean, half, k, b = batch_means_ci([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert math.isnan(half)
        assert (k, b) == (0, 0)

    def test_empty_series_is_all_nan(self):
        mean, half, k, b = batch_means_ci([])
        assert math.isnan(mean) and math.isnan(half)

    def test_iid_normal_coverage_is_near_nominal(self):
        # Known case: iid N(mu, sigma). A 95% batch-means interval over
        # independent samples must cover mu at roughly the nominal rate.
        mu, covered, trials = 10.0, 0, 200
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            xs = rng.normal(mu, 2.0, size=400)
            mean, half, _, _ = batch_means_ci(xs, num_batches=20, level=0.95)
            assert not math.isnan(half)
            if abs(mean - mu) <= half:
                covered += 1
        # Binomial(200, 0.95) essentially never dips below 0.88.
        assert covered / trials >= 0.88

    def test_wider_level_gives_wider_interval(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(0.0, 1.0, size=200)
        _, half95, _, _ = batch_means_ci(xs, level=0.95)
        _, half99, _, _ = batch_means_ci(xs, level=0.99)
        assert half99 > half95
