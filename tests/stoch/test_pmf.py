"""Tests for the PMF value type (repro.stoch.pmf)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.stoch.pmf import PMF


class TestConstruction:
    def test_normalizes_by_default(self):
        pmf = PMF(0.0, 1.0, [2.0, 2.0])
        assert pmf.total_mass() == pytest.approx(1.0)
        assert np.allclose(pmf.probs, [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PMF(0.0, 1.0, [])

    def test_rejects_negative_probs(self):
        with pytest.raises(ValueError):
            PMF(0.0, 1.0, [0.5, -0.1])

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            PMF(0.0, 1.0, [0.0, 0.0])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            PMF(0.0, 0.0, [1.0])

    def test_rejects_nan_start(self):
        with pytest.raises(ValueError):
            PMF(float("nan"), 1.0, [1.0])

    def test_rejects_unnormalized_when_normalize_false(self):
        with pytest.raises(ValueError):
            PMF(0.0, 1.0, [0.3, 0.3], normalize=False)

    def test_accepts_normalized_when_normalize_false(self):
        pmf = PMF(0.0, 1.0, [0.25, 0.75], normalize=False)
        assert pmf.total_mass() == pytest.approx(1.0)

    def test_probs_are_readonly(self):
        pmf = PMF(0.0, 1.0, [0.5, 0.5])
        with pytest.raises(ValueError):
            pmf.probs[0] = 1.0

    def test_instances_immutable(self):
        pmf = PMF(0.0, 1.0, [1.0])
        with pytest.raises(AttributeError):
            pmf.start = 3.0  # type: ignore[misc]

    def test_does_not_mutate_input(self):
        arr = np.array([2.0, 2.0])
        PMF(0.0, 1.0, arr)
        assert np.array_equal(arr, [2.0, 2.0])


class TestDelta:
    def test_all_mass_at_time(self):
        d = PMF.delta(5.5, 2.0)
        assert len(d) == 1
        assert d.mean() == pytest.approx(5.5)
        assert d.prob_at_most(5.5) == pytest.approx(1.0)
        assert d.prob_at_most(5.4) == 0.0

    def test_var_zero(self):
        assert PMF.delta(3.0, 1.0).var() == 0.0


class TestFromMapping:
    def test_round_trip(self):
        pmf = PMF.from_mapping({0.0: 0.25, 2.0: 0.75}, dt=1.0)
        assert pmf.start == 0.0
        assert np.allclose(pmf.probs, [0.25, 0.0, 0.75])

    def test_rejects_off_grid(self):
        with pytest.raises(ValueError):
            PMF.from_mapping({0.0: 0.5, 1.3: 0.5}, dt=1.0)

    def test_rejects_empty_mapping(self):
        with pytest.raises(ValueError):
            PMF.from_mapping({}, dt=1.0)


class TestMoments:
    def test_mean_two_point(self):
        pmf = PMF(0.0, 1.0, [0.5, 0.0, 0.5])  # mass at 0 and 2
        assert pmf.mean() == pytest.approx(1.0)

    def test_mean_with_offset(self):
        pmf = PMF(10.0, 1.0, [0.5, 0.0, 0.5])
        assert pmf.mean() == pytest.approx(11.0)

    def test_var_two_point(self):
        pmf = PMF(0.0, 1.0, [0.5, 0.0, 0.5])
        assert pmf.var() == pytest.approx(1.0)
        assert pmf.std() == pytest.approx(1.0)

    def test_var_shift_invariant(self):
        a = PMF(0.0, 2.0, [0.2, 0.3, 0.5])
        b = PMF(100.0, 2.0, [0.2, 0.3, 0.5])
        assert a.var() == pytest.approx(b.var())


class TestCDF:
    def test_cdf_read_only_and_monotone(self):
        pmf = PMF(0.0, 1.0, [0.1, 0.2, 0.3, 0.4])
        cdf = pmf.cdf
        assert not cdf.flags.writeable
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)

    def test_prob_at_most_before_support(self):
        pmf = PMF(5.0, 1.0, [1.0])
        assert pmf.prob_at_most(4.9) == 0.0

    def test_prob_at_most_inclusive_at_impulse(self):
        pmf = PMF(0.0, 1.0, [0.4, 0.6])
        assert pmf.prob_at_most(0.0) == pytest.approx(0.4)
        assert pmf.prob_at_most(1.0) == pytest.approx(1.0)

    def test_prob_at_most_between_impulses(self):
        pmf = PMF(0.0, 1.0, [0.4, 0.6])
        assert pmf.prob_at_most(0.5) == pytest.approx(0.4)

    def test_prob_at_most_beyond_support(self):
        pmf = PMF(0.0, 1.0, [0.4, 0.6])
        assert pmf.prob_at_most(99.0) == pytest.approx(1.0)

    def test_prob_greater_complements(self):
        pmf = PMF(0.0, 1.0, [0.4, 0.6])
        assert pmf.prob_greater(0.0) == pytest.approx(0.6)


class TestQuantile:
    def test_quantile_endpoints(self):
        pmf = PMF(0.0, 1.0, [0.25, 0.25, 0.5])
        assert pmf.quantile(0.0) == pytest.approx(0.0)
        assert pmf.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_interior(self):
        pmf = PMF(0.0, 1.0, [0.25, 0.25, 0.5])
        assert pmf.quantile(0.3) == pytest.approx(1.0)
        assert pmf.quantile(0.5) == pytest.approx(1.0)
        assert pmf.quantile(0.51) == pytest.approx(2.0)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PMF.delta(0.0, 1.0).quantile(1.5)

    def test_quantile_inverse_of_cdf(self):
        pmf = PMF(0.0, 0.5, [0.1, 0.2, 0.3, 0.4])
        for q in (0.05, 0.1, 0.3, 0.6, 0.99):
            t = pmf.quantile(q)
            assert pmf.prob_at_most(t) >= q - 1e-12


class TestCompact:
    def test_trims_zero_tails(self):
        pmf = PMF(0.0, 1.0, [0.0, 0.5, 0.5, 0.0, 0.0])
        c = pmf.compact()
        assert c.start == pytest.approx(1.0)
        assert len(c) == 2

    def test_keeps_interior_zeros(self):
        pmf = PMF(0.0, 1.0, [0.5, 0.0, 0.5])
        c = pmf.compact()
        assert len(c) == 3

    def test_noop_returns_self(self):
        pmf = PMF(0.0, 1.0, [0.5, 0.5])
        assert pmf.compact() is pmf


class TestEquality:
    def test_equal_pmfs(self):
        a = PMF(1.0, 0.5, [0.3, 0.7])
        b = PMF(1.0, 0.5, [0.3, 0.7])
        assert a == b

    def test_different_offset_unequal(self):
        assert PMF(0.0, 1.0, [1.0]) != PMF(1.0, 1.0, [1.0])

    def test_non_pmf_comparison(self):
        assert PMF(0.0, 1.0, [1.0]) != "pmf"

    def test_times_and_stop(self):
        pmf = PMF(2.0, 0.5, [0.5, 0.5])
        assert np.allclose(pmf.times, [2.0, 2.5])
        assert pmf.stop == pytest.approx(2.5)

    def test_repr_contains_mean(self):
        assert "mean" in repr(PMF(0.0, 1.0, [1.0]))
