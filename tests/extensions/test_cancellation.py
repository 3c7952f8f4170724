"""Tests for the cancellation extension (repro.extensions.cancellation)."""

from __future__ import annotations

import pytest

from repro.extensions.cancellation import AbandonHopelessPolicy
from repro.filters.chain import build_filter_chain
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.sim.engine import Engine
from repro import build_trial_system
from tests.conftest import small_config


class TestPolicyValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            AbandonHopelessPolicy(min_prob=1.5)

    def test_zero_threshold_allowed(self):
        assert AbandonHopelessPolicy(0.0).min_prob == 0.0


def _runs(system):
    """MECT on ``system`` without and with cancellation, and the policy."""
    baseline = Engine(
        system, MinimumExpectedCompletionTime(), build_filter_chain("none")
    ).run()
    policy = AbandonHopelessPolicy(min_prob=0.25)
    cancelled = Engine(
        system,
        MinimumExpectedCompletionTime(),
        build_filter_chain("none"),
        hooks=(policy,),
    ).run()
    return baseline, cancelled, policy


class TestCancellationBehavior:
    @pytest.fixture(scope="class")
    def runs(self):
        return _runs(build_trial_system(small_config(seed=17)))

    @pytest.fixture(scope="class")
    def congested(self):
        # Two nodes under bursts at 10x the equilibrium rate: queues build
        # up and queued tasks fall below the threshold.
        config = small_config(seed=17).with_updates(
            cluster={"num_nodes": 2}, workload={"fast_ratio": 10.0}
        )
        return _runs(build_trial_system(config))

    def test_cancelled_tasks_become_discards(self, runs):
        baseline, cancelled, policy = runs
        assert cancelled.discarded == len(policy.cancelled)

    def test_accounting_still_consistent(self, runs):
        _, cancelled, _ = runs
        assert (
            cancelled.missed
            == cancelled.discarded + cancelled.late + cancelled.energy_cutoff
        )

    def test_cancellation_never_helps_hopeless_tasks(self, congested):
        baseline, cancelled, policy = congested
        assert policy.cancelled, "the congested system cancelled nothing"
        # Cancelled ids must be absent from the completions.
        completed_ids = {
            o.task_id for o in cancelled.outcomes if not o.discarded
        }
        assert not (set(policy.cancelled) & completed_ids)

    def test_cancellation_does_not_explode_misses(self, runs):
        baseline, cancelled, policy = runs
        # Abandoning only sub-25%-probability tasks should not increase
        # total misses by more than the misclassified fraction.
        assert cancelled.missed <= baseline.missed + max(
            3, int(0.25 * len(policy.cancelled)) + 3
        )
