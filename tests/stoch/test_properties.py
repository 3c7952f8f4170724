"""Property-based tests (hypothesis) for the pmf algebra invariants.

These are the paper-critical invariants: convolution must behave like the
sum of independent random variables, truncation like conditioning on
``X >= t``, and CDF queries like exact tail sums — across arbitrary
shapes, offsets and grid steps.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stoch.ops import convolve, prob_sum_at_most, shift, truncate_below
from repro.stoch.pmf import PMF


@st.composite
def pmfs(draw, max_len: int = 24, dt: float | None = None):
    """Arbitrary grid pmfs with positive mass."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    if sum(weights) <= 0.0:
        weights = [w + 0.1 for w in weights]
    step = dt if dt is not None else draw(st.sampled_from([0.5, 1.0, 2.0]))
    start = draw(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    return PMF(start, step, np.array(weights))


@given(pmfs(dt=1.0), pmfs(dt=1.0))
@settings(max_examples=60, deadline=None)
def test_convolution_mean_additivity(a: PMF, b: PMF):
    out = convolve(a, b)
    assert np.isclose(out.mean(), a.mean() + b.mean(), rtol=1e-9, atol=1e-7)


@given(pmfs(dt=1.0), pmfs(dt=1.0))
@settings(max_examples=60, deadline=None)
def test_convolution_variance_additivity(a: PMF, b: PMF):
    out = convolve(a, b)
    assert np.isclose(out.var(), a.var() + b.var(), rtol=1e-7, atol=1e-6)


@given(pmfs(dt=1.0), pmfs(dt=1.0))
@settings(max_examples=60, deadline=None)
def test_convolution_mass_conservation(a: PMF, b: PMF):
    assert np.isclose(convolve(a, b).total_mass(), 1.0, atol=1e-9)


@given(pmfs(), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_shift_preserves_shape(pmf: PMF, offset: float):
    out = shift(pmf, offset)
    assert np.allclose(out.probs, pmf.probs)
    assert np.isclose(out.mean(), pmf.mean() + offset, atol=1e-6)


@given(pmfs(), st.floats(min_value=-60.0, max_value=120.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_truncate_is_conditioning(pmf: PMF, t: float):
    out = truncate_below(pmf, t)
    assert np.isclose(out.total_mass(), 1.0, atol=1e-9)
    # No surviving impulse lies strictly before t (up to fp tolerance).
    assert out.start >= t - 1e-6 or out.start >= pmf.start
    if t <= pmf.start:
        assert out is pmf
    tail = pmf.prob_greater(t - 1e-9)
    if tail > 1e-9 and t > pmf.start:
        # Conditioning: survivor masses scale by 1 / P[X >= t].
        assert out.mean() >= pmf.mean() - 1e-6


@given(pmfs(dt=1.0), pmfs(dt=1.0), st.floats(min_value=-100, max_value=200))
@settings(max_examples=80, deadline=None)
def test_prob_sum_matches_convolution(a: PMF, b: PMF, d: float):
    direct = prob_sum_at_most(a, b, d)
    via_conv = convolve(a, b).prob_at_most(d)
    assert np.isclose(direct, via_conv, atol=1e-9)


@given(pmfs(dt=1.0), pmfs(dt=1.0))
@settings(max_examples=40, deadline=None)
def test_prob_sum_monotone_in_deadline(a: PMF, b: PMF):
    ds = np.linspace(a.start + b.start - 2, a.stop + b.stop + 2, 12)
    vals = [prob_sum_at_most(a, b, float(d)) for d in ds]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


@given(pmfs(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_quantile_cdf_galois(pmf: PMF, q: float):
    t = pmf.quantile(q)
    assert pmf.prob_at_most(t) >= q - 1e-9


@given(pmfs())
@settings(max_examples=40, deadline=None)
def test_cdf_bounds(pmf: PMF):
    assert pmf.prob_at_most(pmf.start - 1.0) == 0.0
    assert np.isclose(pmf.prob_at_most(pmf.stop + 1.0), 1.0, atol=1e-9)
