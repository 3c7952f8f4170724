"""Tests for the pmf-operation observer hook (repro.stoch.ops)."""

from __future__ import annotations

import pytest

from repro.stoch.ops import (
    convolve,
    prob_sum_at_most,
    set_op_observer,
    truncate_below,
    truncate_convolve,
)
from repro.stoch.pmf import PMF


@pytest.fixture()
def calls():
    """Install a recording observer for the test, always restored."""
    recorded: list[tuple[str, int]] = []
    previous = set_op_observer(lambda op, n: recorded.append((op, n)))
    assert previous is None  # no other observer may leak between tests
    yield recorded
    set_op_observer(None)


def coin(start: float = 0.0) -> PMF:
    return PMF(start, 1.0, [0.5, 0.5])


class TestObserverInstallation:
    def test_set_returns_previous(self):
        first = lambda op, n: None  # noqa: E731
        second = lambda op, n: None  # noqa: E731
        assert set_op_observer(first) is None
        assert set_op_observer(second) is first
        assert set_op_observer(None) is second

    def test_unobserved_ops_still_work(self):
        assert set_op_observer(None) is None
        out = convolve(coin(), coin())
        assert len(out) == 3


class TestObservedOps:
    def test_convolve_reports_result_grid_size(self, calls):
        convolve(coin(), coin())
        assert calls == [("convolve", 3)]

    def test_delta_shortcut_not_counted(self, calls):
        # Delta convolution degenerates to a shift; no materialized grid.
        convolve(PMF.delta(4.0, 1.0), coin())
        assert calls == []

    def test_truncate_below_counted(self, calls):
        truncate_below(PMF(0.0, 1.0, [0.25, 0.25, 0.5]), 1.5)
        assert [op for op, _ in calls] == ["truncate_below"]

    def test_truncate_noop_not_counted(self, calls):
        # Cut below the support: early return, nothing materialized.
        truncate_below(coin(5.0), 0.0)
        assert calls == []

    def test_prob_sum_at_most_counted(self, calls):
        prob_sum_at_most(coin(), coin(), 1.0)
        assert [op for op, _ in calls] == ["prob_sum_at_most"]

    @pytest.mark.parametrize(
        "t",
        [
            0.5,  # before the support: no truncation
            1.5,  # a two-bin tail
            2.5,  # a one-bin tail: the delta shortcut, no convolution
            9.0,  # overdue: a delta at t
        ],
    )
    def test_fused_refresh_reports_what_its_composition_does(self, calls, t):
        running = PMF(1.0, 1.0, [0.25, 0.25, 0.5])
        queued = PMF(0.0, 1.0, [0.2, 0.3, 0.5])
        truncate_convolve(running, t, queued)
        fused = list(calls)
        calls.clear()
        convolve(truncate_below(running, t), queued)
        assert fused == calls

    def test_observer_does_not_change_results(self, calls):
        a, b = coin(), coin(3.0)
        observed = convolve(a, b)
        set_op_observer(None)
        assert convolve(a, b) == observed
