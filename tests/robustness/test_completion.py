"""Tests for stochastic completion times (repro.robustness.completion)."""

from __future__ import annotations

import pytest

from repro.robustness.completion import (
    completion_pmf,
    prob_on_time,
    ready_pmf,
    running_completion_pmf,
)
from repro.stoch.ops import convolve
from repro.stoch.pmf import PMF


def exec_pmf() -> PMF:
    return PMF(10.0, 1.0, [0.25, 0.5, 0.25])  # mass at 10, 11, 12


class TestRunningCompletion:
    def test_shifted_by_start(self):
        out = running_completion_pmf(exec_pmf(), start_time=100.0, t_now=100.0)
        assert out.start == pytest.approx(110.0)

    def test_truncates_past(self):
        # Started at 0, observed at 11.5: impulses at 10 and 11 are past.
        out = running_completion_pmf(exec_pmf(), start_time=0.0, t_now=11.5)
        assert out.start == pytest.approx(12.0)
        assert out.total_mass() == pytest.approx(1.0)

    def test_overdue_degenerates_to_now(self):
        out = running_completion_pmf(exec_pmf(), start_time=0.0, t_now=50.0)
        assert len(out) == 1
        assert out.mean() == pytest.approx(50.0)

    def test_rejects_time_travel(self):
        with pytest.raises(ValueError):
            running_completion_pmf(exec_pmf(), start_time=10.0, t_now=5.0)


class TestReadyPMF:
    def test_idle_core_is_ready_now(self):
        out = ready_pmf(None, [], t_now=42.0, dt=1.0)
        assert len(out) == 1
        assert out.mean() == pytest.approx(42.0)

    def test_idle_with_queue_is_invalid(self):
        with pytest.raises(ValueError):
            ready_pmf(None, [exec_pmf()], t_now=0.0, dt=1.0)

    def test_running_only(self):
        running = running_completion_pmf(exec_pmf(), 0.0, 0.0)
        out = ready_pmf(running, [], t_now=0.0, dt=1.0)
        assert out == running

    def test_running_plus_queue_convolves(self):
        running = running_completion_pmf(exec_pmf(), 0.0, 0.0)
        queued = [exec_pmf(), exec_pmf()]
        out = ready_pmf(running, queued, t_now=0.0, dt=1.0)
        expected = convolve(convolve(running, queued[0]), queued[1])
        assert out == expected

    def test_mean_adds_up(self):
        running = running_completion_pmf(exec_pmf(), 0.0, 0.0)
        out = ready_pmf(running, [exec_pmf()], t_now=0.0, dt=1.0)
        assert out.mean() == pytest.approx(2 * exec_pmf().mean())


class TestCompletionAndProb:
    def test_completion_is_convolution(self):
        ready = PMF.delta(5.0, 1.0)
        out = completion_pmf(ready, exec_pmf())
        assert out.start == pytest.approx(15.0)
        assert out.mean() == pytest.approx(5.0 + exec_pmf().mean())

    def test_prob_on_time_matches_completion_cdf(self):
        ready = PMF(0.0, 1.0, [0.5, 0.5])
        ex = exec_pmf()
        comp = completion_pmf(ready, ex)
        for d in (9.0, 10.0, 11.5, 13.0, 20.0):
            assert prob_on_time(ready, ex, d) == pytest.approx(comp.prob_at_most(d))

    def test_prob_on_time_extremes(self):
        ready = PMF.delta(0.0, 1.0)
        assert prob_on_time(ready, exec_pmf(), 5.0) == 0.0
        assert prob_on_time(ready, exec_pmf(), 100.0) == pytest.approx(1.0)
