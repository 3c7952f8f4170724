"""Tests for work-stealing rescheduling (repro.extensions.rescheduling)."""

from __future__ import annotations

import pytest

from repro.extensions.rescheduling import WorkStealingPolicy
from repro.filters.chain import build_filter_chain
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.random_heuristic import RandomAssignment
from repro.sim.engine import Engine
from repro import build_trial_system, rng as rng_mod
from tests.conftest import small_config


class TestPolicyValidation:
    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            WorkStealingPolicy(min_gain=-0.1)


class TestWorkStealing:
    @pytest.fixture(scope="class")
    def runs(self):
        # Random mapping creates imbalance, giving the thief targets.
        system = build_trial_system(small_config(seed=23))

        def random_h():
            return RandomAssignment(rng_mod.stream(23, "ws-random"))

        baseline = Engine(system, random_h(), build_filter_chain("rob")).run()
        policy = WorkStealingPolicy(min_gain=0.02)
        stealing = Engine(system, random_h(), build_filter_chain("rob"), hooks=(policy,)).run()
        return baseline, stealing, system, policy

    def test_steals_happen_under_imbalance(self, runs):
        _, _, _, policy = runs
        assert len(policy.steals) > 0

    def test_accounting_consistent(self, runs):
        _, stealing, _, _ = runs
        assert (
            stealing.missed
            == stealing.discarded + stealing.late + stealing.energy_cutoff
        )
        assert len(stealing.outcomes) == stealing.num_tasks

    def test_stolen_tasks_completed_on_thief(self, runs):
        _, stealing, _, policy = runs
        outcome_by_id = {o.task_id: o for o in stealing.outcomes}
        for task_id, _from_core, to_core in policy.steals:
            final = outcome_by_id[task_id]
            # A task may be stolen more than once; its final record must
            # match the last move's destination.
            last_move = [s for s in policy.steals if s[0] == task_id][-1]
            assert final.core_id == last_move[2]

    def test_no_double_execution(self, runs):
        _, stealing, _, _ = runs
        # Each non-discarded task has exactly one start/completion pair
        # and no overlap on its core.
        by_core: dict[int, list] = {}
        for o in stealing.outcomes:
            if not o.discarded:
                by_core.setdefault(o.core_id, []).append(o)
        for outcomes in by_core.values():
            ordered = sorted(outcomes, key=lambda o: o.start)
            for a, b in zip(ordered, ordered[1:]):
                assert b.start >= a.completion - 1e-9

    def test_stealing_reduces_late_misses(self, runs):
        baseline, stealing, _, policy = runs
        # Work stealing fixes load imbalance, so late misses should not
        # get worse (and usually improve) for a load-blind mapper.
        assert stealing.late <= baseline.late + 3

    def test_engine_move_rejects_unknown_task(self, runs):
        # Covered indirectly: policy only records successful moves.
        _, _, _, policy = runs
        assert all(isinstance(s, tuple) and len(s) == 3 for s in policy.steals)


class TestEngineMoveQueued:
    def test_move_to_same_core_is_noop(self, tiny_system):
        from repro.sim.engine import Engine

        engine = Engine(
            tiny_system, MinimumExpectedCompletionTime(), build_filter_chain("none")
        )
        assert engine.move_queued(0, 0, 0, 0) is False

    def test_move_unknown_task_is_noop(self, tiny_system):
        from repro.sim.engine import Engine

        engine = Engine(
            tiny_system, MinimumExpectedCompletionTime(), build_filter_chain("none")
        )
        assert engine.move_queued(0, 999, 1, 0) is False
