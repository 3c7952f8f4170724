"""Tests for the priorities extension (repro.extensions.priorities)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.extensions.priorities import (
    PriorityLightestLoad,
    weighted_missed,
    with_priorities,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.base import CandidateSet, MappingContext
from repro.heuristics.lightest_load import LightestLoad
from repro.sim.engine import Engine
from repro.workload.task import Task


class TestWithPriorities:
    def test_levels_assigned(self, tiny_system, rng):
        wl = with_priorities(tiny_system.workload, rng, levels=(1.0, 2.0))
        assert {t.priority for t in wl.tasks} <= {1.0, 2.0}
        assert wl.num_tasks == tiny_system.workload.num_tasks

    def test_everything_else_preserved(self, tiny_system, rng):
        wl = with_priorities(tiny_system.workload, rng)
        for a, b in zip(tiny_system.workload.tasks, wl.tasks):
            assert a.task_id == b.task_id
            assert a.arrival == b.arrival
            assert a.deadline == b.deadline

    def test_custom_probabilities(self, tiny_system, rng):
        wl = with_priorities(
            tiny_system.workload, rng, levels=(1.0, 8.0), probabilities=(0.0, 1.0)
        )
        assert all(t.priority == 8.0 for t in wl.tasks)

    def test_rejects_bad_levels(self, tiny_system, rng):
        with pytest.raises(ValueError):
            with_priorities(tiny_system.workload, rng, levels=(0.0,))

    def test_rejects_misaligned_probs(self, tiny_system, rng):
        with pytest.raises(ValueError):
            with_priorities(
                tiny_system.workload, rng, levels=(1.0, 2.0), probabilities=(1.0,)
            )


class TestPriorityLightestLoad:
    def cands(self) -> CandidateSet:
        return CandidateSet(
            core_ids=np.array([0, 1]),
            pstates=np.array([0, 0]),
            queue_len=np.zeros(2, dtype=np.int64),
            eet=np.array([10.0, 10.0]),
            eec=np.array([10.0, 20.0]),
            ect=np.array([10.0, 10.0]),
            prob_on_time=np.array([0.5, 0.8]),
        )

    def ctx(self, priority: float) -> MappingContext:
        return MappingContext(
            t_now=0.0,
            task=Task(0, 0, 0.0, 100.0, priority=priority),
            energy_estimate=100.0,
            tasks_left=5,
            avg_queue_depth=0.0,
        )

    def test_unit_priority_reduces_to_ll(self, tiny_system):
        c1, c2 = self.cands(), self.cands()
        assert PriorityLightestLoad().select(c1, self.ctx(1.0)) == LightestLoad().select(
            c2, self.ctx(1.0)
        )

    def test_high_priority_flips_choice_toward_robustness(self):
        # Cheap-but-risky (EEC 1, rho 0.5) vs dear-but-safe (EEC 10,
        # rho 0.9): LL picks the cheap one; a 4x-priority task flips.
        def cands() -> CandidateSet:
            import numpy as np

            return CandidateSet(
                core_ids=np.array([0, 1]),
                pstates=np.array([0, 0]),
                queue_len=np.zeros(2, dtype=np.int64),
                eet=np.array([10.0, 10.0]),
                eec=np.array([1.0, 10.0]),
                ect=np.array([10.0, 10.0]),
                prob_on_time=np.array([0.5, 0.9]),
            )

        assert PriorityLightestLoad().select(cands(), self.ctx(1.0)) == 0
        assert PriorityLightestLoad().select(cands(), self.ctx(4.0)) == 1

    def test_perfect_robustness_never_explodes(self):
        # rho == 1.0 gives zero miss probability; the clip keeps the
        # power well-defined for any priority.
        c = self.cands()
        c.prob_on_time[:] = 1.0
        assert PriorityLightestLoad().select(c, self.ctx(8.0)) is not None

    def test_name(self):
        assert PriorityLightestLoad().name == "LL-prio"


class TestPriorityEnergyFilter:
    def ctx(self, priority: float, depth: float = 1.0) -> MappingContext:
        return MappingContext(
            t_now=0.0,
            task=Task(0, 0, 0.0, 100.0, priority=priority),
            energy_estimate=1000.0,
            tasks_left=10,
            avg_queue_depth=depth,
        )

    def test_unit_priority_matches_plain_filter(self):
        from repro.filters.energy_filter import EnergyFilter
        from repro.extensions.priorities import PriorityEnergyFilter

        plain = EnergyFilter()
        prio = PriorityEnergyFilter(mean_priority=1.0)
        assert prio.fair_share(self.ctx(1.0)) == pytest.approx(
            plain.fair_share(self.ctx(1.0))
        )

    def test_share_scales_with_priority(self):
        from repro.extensions.priorities import PriorityEnergyFilter

        f = PriorityEnergyFilter(mean_priority=2.0)
        assert f.fair_share(self.ctx(4.0)) == pytest.approx(
            2.0 * f.fair_share(self.ctx(2.0))
        )
        assert f.fair_share(self.ctx(1.0)) == pytest.approx(
            0.5 * f.fair_share(self.ctx(2.0))
        )

    def test_for_workload_measures_mean(self, tiny_system, rng):
        from repro.extensions.priorities import PriorityEnergyFilter

        wl = with_priorities(
            tiny_system.workload, rng, levels=(2.0,), probabilities=(1.0,)
        )
        f = PriorityEnergyFilter.for_workload(wl)
        assert f.mean_priority == pytest.approx(2.0)

    def test_rejects_bad_mean(self):
        from repro.extensions.priorities import PriorityEnergyFilter

        with pytest.raises(ValueError):
            PriorityEnergyFilter(mean_priority=0.0)

    def test_label(self):
        from repro.extensions.priorities import PriorityEnergyFilter

        assert PriorityEnergyFilter().label == "en-prio"


class TestWeightedMissed:
    def test_matches_unweighted_for_unit_priorities(self, tiny_system):
        result = Engine(tiny_system, LightestLoad(), build_filter_chain("en+rob")).run()
        wm = weighted_missed(result, tiny_system.workload)
        assert wm == pytest.approx(result.missed / result.num_tasks)

    def test_requires_outcomes(self, tiny_system):
        from dataclasses import replace

        result = Engine(tiny_system, LightestLoad(), build_filter_chain("none")).run()
        stripped = replace(result, outcomes=())
        with pytest.raises(ValueError):
            weighted_missed(stripped, tiny_system.workload)

    def test_bounded(self, tiny_system, rng):
        wl = with_priorities(tiny_system.workload, rng, levels=(1.0, 4.0))
        result = Engine(tiny_system, LightestLoad(), build_filter_chain("en+rob")).run()
        wm = weighted_missed(result, wl)
        assert 0.0 <= wm <= 1.0
