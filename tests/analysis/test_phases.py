"""Tests for phase breakdown (repro.analysis.phases)."""

from __future__ import annotations

import pytest

from repro.analysis.phases import phase_breakdown
from repro.filters.chain import build_filter_chain
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.sim.engine import Engine


@pytest.fixture(scope="module")
def trial(small_system):
    result = Engine(
        small_system, MinimumExpectedCompletionTime(), build_filter_chain("none")
    ).run()
    return small_system, result


class TestPhaseBreakdown:
    def test_phases_partition_workload(self, trial):
        system, result = trial
        breakdown = phase_breakdown(result, system.config.workload)
        assert set(breakdown) == {"head", "lull", "tail"}
        assert sum(b.total for b in breakdown.values()) == result.num_tasks

    def test_phase_sizes_match_config(self, trial):
        system, result = trial
        cfg = system.config.workload
        breakdown = phase_breakdown(result, cfg)
        assert breakdown["head"].total == cfg.burst_head
        assert breakdown["lull"].total == cfg.lull_tasks
        assert breakdown["tail"].total == cfg.burst_tail

    def test_misses_sum_to_trial_total(self, trial):
        system, result = trial
        breakdown = phase_breakdown(result, system.config.workload)
        assert sum(b.missed for b in breakdown.values()) == result.missed
        assert sum(b.late for b in breakdown.values()) == result.late
        assert sum(b.discarded for b in breakdown.values()) == result.discarded
        assert (
            sum(b.energy_cutoff for b in breakdown.values()) == result.energy_cutoff
        )

    def test_energy_cutoff_concentrates_late(self, trial):
        # If the budget runs out, it runs out on the tail, not the head.
        system, result = trial
        breakdown = phase_breakdown(result, system.config.workload)
        if result.energy_cutoff == 0:
            pytest.skip("budget never exhausted in this draw")
        assert breakdown["tail"].energy_cutoff >= breakdown["head"].energy_cutoff

    def test_miss_fraction_bounds(self, trial):
        system, result = trial
        for b in phase_breakdown(result, system.config.workload).values():
            assert 0.0 <= b.miss_fraction <= 1.0

    def test_requires_outcomes(self, trial):
        from dataclasses import replace

        system, result = trial
        with pytest.raises(ValueError):
            phase_breakdown(replace(result, outcomes=()), system.config.workload)

    def test_str(self, trial):
        system, result = trial
        text = str(phase_breakdown(result, system.config.workload)["head"])
        assert "head:" in text and "missed" in text
