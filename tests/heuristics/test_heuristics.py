"""Behavioral tests for the four paper heuristics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.heuristics.base import CandidateSet, MappingContext
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.random_heuristic import RandomAssignment
from repro.heuristics.shortest_queue import ShortestQueue
from repro.heuristics.registry import HEURISTICS, build_heuristic
from repro.workload.task import Task


def cands() -> CandidateSet:
    # Two cores x three P-states.
    return CandidateSet(
        core_ids=np.repeat([0, 1], 3),
        pstates=np.tile([0, 1, 2], 2),
        queue_len=np.repeat([3, 1], 3),
        eet=np.array([10.0, 13.0, 17.0, 12.0, 15.0, 20.0]),
        eec=np.array([9.0, 6.0, 4.0, 10.0, 7.0, 5.0]),
        ect=np.array([40.0, 43.0, 47.0, 12.0, 15.0, 20.0]),
        prob_on_time=np.array([0.5, 0.45, 0.4, 0.99, 0.95, 0.7]),
    )


def ctx() -> MappingContext:
    return MappingContext(
        t_now=5.0,
        task=Task(0, 0, 5.0, 100.0),
        energy_estimate=500.0,
        tasks_left=7,
        avg_queue_depth=1.0,
    )


class TestShortestQueue:
    def test_picks_min_queue_then_min_eet(self):
        # Core 1 has the shorter queue; its fastest P-state has EET 12.
        assert ShortestQueue().select(cands(), ctx()) == 3

    def test_tie_break_on_eet(self):
        c = cands()
        c.queue_len[:] = 2  # all tied -> global min EET = index 0
        assert ShortestQueue().select(c, ctx()) == 0

    def test_respects_mask(self):
        c = cands()
        c.mask[3] = False
        assert ShortestQueue().select(c, ctx()) == 4

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert ShortestQueue().select(c, ctx()) is None

    def test_unfiltered_prefers_p0_on_chosen_core(self):
        # The paper's observation: SQ's tie-break drives it to P0.
        choice = ShortestQueue().select(cands(), ctx())
        assert cands().pstates[choice] == 0


class TestMECT:
    def test_picks_min_ect(self):
        assert MinimumExpectedCompletionTime().select(cands(), ctx()) == 3

    def test_unfiltered_prefers_p0(self):
        # On any single core ECT grows with P-state index, so the global
        # argmin lands on a P0 candidate (the paper's energy complaint).
        choice = MinimumExpectedCompletionTime().select(cands(), ctx())
        assert cands().pstates[choice] == 0

    def test_respects_mask(self):
        c = cands()
        c.mask[[3, 4]] = False
        assert MinimumExpectedCompletionTime().select(c, ctx()) == 5

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert MinimumExpectedCompletionTime().select(c, ctx()) is None


class TestLightestLoad:
    def test_minimizes_eec_times_inverse_robustness(self):
        c = cands()
        loads = c.eec * (1.0 - c.prob_on_time)
        assert LightestLoad().select(c, ctx()) == int(np.argmin(loads))

    def test_perfectly_robust_candidate_dominates(self):
        c = cands()
        c.prob_on_time[5] = 1.0  # load exactly 0
        assert LightestLoad().select(c, ctx()) == 5

    def test_respects_mask(self):
        c = cands()
        best = LightestLoad().select(c, ctx())
        c.mask[best] = False
        second = LightestLoad().select(c, ctx())
        assert second != best

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert LightestLoad().select(c, ctx()) is None


class TestRandom:
    def test_uniform_over_feasible(self):
        rng = np.random.default_rng(0)
        h = RandomAssignment(rng)
        c = cands()
        c.mask[:3] = False
        picks = {h.select(c, ctx()) for _ in range(200)}
        assert picks == {3, 4, 5}

    def test_deterministic_under_seed(self):
        a = [RandomAssignment(np.random.default_rng(1)).select(cands(), ctx())]
        b = [RandomAssignment(np.random.default_rng(1)).select(cands(), ctx())]
        assert a == b

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert RandomAssignment(np.random.default_rng(0)).select(c, ctx()) is None


class TestRegistry:
    def test_canonical_names(self):
        assert HEURISTICS == ("SQ", "MECT", "LL", "Random")

    def test_builds_each(self):
        rng = np.random.default_rng(0)
        assert build_heuristic("SQ").name == "SQ"
        assert build_heuristic("mect").name == "MECT"
        assert build_heuristic("Ll").name == "LL"
        assert build_heuristic("random", rng).name == "Random"

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            build_heuristic("Random")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_heuristic("OLBX")
