"""Tests for the extended baseline heuristics (repro.extensions.baselines)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.extensions.baselines import (
    EXTENDED_HEURISTICS,
    KPercentBest,
    MinimumExecutionTime,
    MinimumExpectedEnergy,
    OpportunisticLoadBalancing,
    make_extended_heuristic,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.base import CandidateSet, MappingContext
from repro.sim.engine import Engine
from repro.workload.task import Task


def cands() -> CandidateSet:
    # Two cores x two P-states; core 0 is busy (later ready), core 1 idle.
    return CandidateSet(
        core_ids=np.repeat([0, 1], 2),
        pstates=np.tile([0, 1], 2),
        queue_len=np.repeat([2, 0], 2),
        eet=np.array([8.0, 12.0, 10.0, 15.0]),
        eec=np.array([9.0, 5.0, 11.0, 6.0]),
        ect=np.array([38.0, 42.0, 10.0, 15.0]),  # ready: 30 vs 0
        prob_on_time=np.array([0.3, 0.2, 0.95, 0.9]),
    )


def ctx() -> MappingContext:
    return MappingContext(
        t_now=0.0,
        task=Task(0, 0, 0.0, 60.0),
        energy_estimate=100.0,
        tasks_left=5,
        avg_queue_depth=1.0,
    )


class TestMET:
    def test_picks_global_min_eet(self):
        assert MinimumExecutionTime().select(cands(), ctx()) == 0

    def test_load_blind(self):
        # Even though core 0 is backlogged, MET still goes there.
        c = cands()
        assert c.queue_len[MinimumExecutionTime().select(c, ctx())] == 2

    def test_respects_mask(self):
        c = cands()
        c.mask[0] = False
        assert MinimumExecutionTime().select(c, ctx()) == 2


class TestOLB:
    def test_picks_earliest_ready_core(self):
        choice = OpportunisticLoadBalancing().select(cands(), ctx())
        assert cands().core_ids[choice] == 1

    def test_tie_break_lowest_energy(self):
        # Within core 1 the two P-states tie on readiness -> cheapest EEC.
        choice = OpportunisticLoadBalancing().select(cands(), ctx())
        assert choice == 3  # EEC 6.0 < 11.0

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert OpportunisticLoadBalancing().select(c, ctx()) is None


class TestKPB:
    def test_full_percentage_is_mect(self):
        c = cands()
        assert KPercentBest(100.0).select(c, ctx()) == int(np.argmin(c.ect))

    def test_small_percentage_approaches_met(self):
        c = cands()
        assert KPercentBest(1.0).select(c, ctx()) == int(np.argmin(c.eet))

    def test_mid_percentage_compromise(self):
        # 50% keeps EETs {8, 10}: indices 0 and 2; min ECT among them = 2.
        assert KPercentBest(50.0).select(cands(), ctx()) == 2

    def test_pool_is_post_filter(self):
        c = cands()
        c.mask[0] = False  # the global best-EET is infeasible
        choice = KPercentBest(50.0).select(c, ctx())
        assert choice != 0

    def test_rejects_bad_percent(self):
        with pytest.raises(ValueError):
            KPercentBest(0.0)

    def test_none_when_empty(self):
        c = cands()
        c.mask[:] = False
        assert KPercentBest().select(c, ctx()) is None

    def test_repr(self):
        assert "20.0" in repr(KPercentBest())


class TestMEEC:
    def test_picks_cheapest(self):
        assert MinimumExpectedEnergy().select(cands(), ctx()) == 1


class TestRegistry:
    def test_names(self):
        assert EXTENDED_HEURISTICS == ("MET", "OLB", "KPB", "MEEC")

    def test_builds_each(self):
        for name in EXTENDED_HEURISTICS:
            assert make_extended_heuristic(name).name == name

    def test_case_insensitive(self):
        assert make_extended_heuristic("olb").name == "OLB"

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_extended_heuristic("SQ")


class TestEndToEnd:
    @pytest.mark.parametrize("name", EXTENDED_HEURISTICS)
    def test_runs_full_trial(self, tiny_system, name):
        result = Engine(
            tiny_system, make_extended_heuristic(name), build_filter_chain("en+rob")
        ).run()
        assert result.num_tasks == tiny_system.num_tasks
        assert (
            result.missed
            == result.discarded + result.late + result.energy_cutoff
        )
