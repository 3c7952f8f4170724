"""Service-mode soak: a long generative run with bounded-state invariants.

Drives ~20k tasks through ``run_service`` (an order of magnitude beyond
any batch trial) and checks the properties that make the service loop
safe to run indefinitely: window accounting composes exactly (the
monoid), the rolling allowance never goes negative, ring-buffer
timelines never exceed their capacity, and no per-task state (outcome
tracking) accumulates.

The strict two-run window-composition check pins ``planning_tasks`` and
``budget_cap``: both default from the window length, so comparing a
windowed run against a one-big-window run of the *same* trajectory
requires holding those policy inputs fixed.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import api
from repro.sim.metrics import WindowStats
from tests.conftest import tiny_config

SOAK_TASKS = int(os.environ.get("REPRO_SOAK_TASKS", "20000"))


@pytest.fixture(scope="module")
def scenario() -> api.Scenario:
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=2011))


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


@pytest.fixture(scope="module")
def soak(scenario, system):
    """One shared soak run (module-scoped: it is the expensive part)."""
    timeline = api.TimelineRecorder(120.0, stream=0, label="soak", capacity=256)
    service = api.ServiceConfig(traffic="diurnal", task_limit=SOAK_TASKS)
    result = api.run_service(
        replace(scenario, service=service), system=system, timeline=timeline
    )
    return result, timeline


class TestSoak:
    def test_admits_the_full_task_budget(self, soak):
        result, _ = soak
        assert result.arrivals == SOAK_TASKS
        totals = result.totals
        assert totals.mapped + totals.discarded == SOAK_TASKS
        assert totals.completed == totals.mapped  # everything mapped drains

    def test_windows_are_contiguous_and_cover_the_run(self, soak):
        result, _ = soak
        assert result.windows[0].start == 0.0
        assert result.windows[-1].end >= result.makespan
        for left, right in zip(result.windows, result.windows[1:]):
            assert right.start == left.end

    def test_rolling_budget_never_negative(self, soak):
        result, _ = soak
        assert all(w.budget_remaining >= 0.0 for w in result.windows)
        assert result.budget_deficit >= 0.0
        assert result.budget_drawn >= 0.0

    def test_window_energy_telescopes_to_total(self, soak):
        result, _ = soak
        merged = WindowStats.merge_all(result.windows)
        assert merged.energy == pytest.approx(result.total_energy, rel=1e-9)

    def test_ring_timeline_never_exceeds_capacity(self, soak):
        result, timeline = soak
        assert len(timeline) == 256  # a soak-length run saturates the ring
        assert timeline.samples[-1].t <= result.makespan

    def test_no_per_task_state_accumulates(self, soak):
        # Generative mode must not score outcomes — that list would grow
        # without bound on a real service.
        result, _ = soak
        assert result.trial_result is None


class TestWindowComposition:
    """concat(windows) == one big window, on a smaller pinned sub-run."""

    @pytest.fixture(scope="class")
    def runs(self, scenario, system):
        # Pin the policy inputs that otherwise derive from the window
        # length, so both runs see the identical trajectory.
        common = dict(
            traffic="poisson", task_limit=3000, planning_tasks=50, budget_cap=5e7
        )
        windowed = api.run_service(
            replace(scenario, service=api.ServiceConfig(window=500.0, **common)),
            system=system,
        )
        one_shot = api.run_service(
            replace(scenario, service=api.ServiceConfig(window=1e12, **common)),
            system=system,
        )
        return windowed, one_shot

    def test_one_big_window(self, runs):
        _, one_shot = runs
        assert len(one_shot.windows) == 1

    def test_merged_counts_equal_single_window(self, runs):
        windowed, one_shot = runs
        merged = windowed.totals
        big = one_shot.windows[0]
        assert merged.mapped == big.mapped
        assert merged.discarded == big.discarded
        assert merged.completed == big.completed
        assert merged.on_time == big.on_time
        assert merged.late == big.late
        assert merged.in_system_end == big.in_system_end

    def test_merged_energy_and_budget_equal_single_window(self, runs):
        windowed, one_shot = runs
        merged = windowed.totals
        big = one_shot.windows[0]
        assert merged.energy == pytest.approx(big.energy, rel=1e-12)
        assert merged.budget_remaining == pytest.approx(
            big.budget_remaining, rel=1e-12
        )

    def test_both_runs_agree_on_totals(self, runs):
        windowed, one_shot = runs
        assert windowed.makespan == one_shot.makespan
        assert windowed.total_energy == one_shot.total_energy
        assert windowed.budget_drawn == one_shot.budget_drawn
        assert windowed.budget_deficit == one_shot.budget_deficit
