"""Engine edge cases: degenerate topologies, budgets, workloads and
the documented event-ordering tie-breaks."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import SimulationConfig, build_trial_system
from repro.config import IdlePowerMode
from repro.filters.chain import build_filter_chain
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.sim.engine import EngineHooks, Engine
from repro.workload.task import Task
from tests.conftest import micro_config as tiny


class RecordingHooks(EngineHooks):
    """EngineHooks subscriber that logs every mapping-path call in order."""

    def __init__(self):
        self.events = []

    def on_mapped(self, engine, task, core_id, pstate):
        self.events.append(("mapped", engine.now, task.task_id, core_id))

    def on_discarded(self, engine, task):
        self.events.append(("discarded", engine.now, task.task_id, -1))

    def on_completion(self, engine, core_id, task, t_now):
        self.events.append(("completed", t_now, task.task_id, core_id))


class TestDegenerateTopology:
    def test_single_core_cluster(self):
        cfg = tiny(
            cluster={
                "num_nodes": 1,
                "min_processors": 1,
                "max_processors": 1,
                "min_cores": 1,
                "max_cores": 1,
            }
        )
        system = build_trial_system(cfg)
        assert system.cluster.num_cores == 1
        result = Engine(system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()
        # Everything serializes through one core: heavy queueing but
        # accounting must still close.
        assert result.missed + result.completed_within == 30
        by_start = sorted(
            (o for o in result.outcomes if not o.discarded), key=lambda o: o.start
        )
        for a, b in zip(by_start, by_start[1:]):
            assert b.start >= a.completion - 1e-9

    def test_two_pstate_cluster(self):
        cfg = tiny(cluster={"num_pstates": 2})
        system = build_trial_system(cfg)
        result = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
        assert all(o.pstate in (-1, 0, 1) for o in result.outcomes)


class TestDegenerateWorkload:
    def test_all_burst_no_lull(self):
        cfg = tiny(workload={"burst_head": 15, "burst_tail": 15})
        system = build_trial_system(cfg)
        result = Engine(system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()
        assert result.num_tasks == 30

    def test_single_task(self):
        # Idle energy excluded: a one-task budget cannot cover the whole
        # cluster's P4 floor, which is a property of the model, not a bug.
        cfg = SimulationConfig(seed=2).with_updates(
            workload={
                "num_tasks": 1,
                "num_task_types": 2,
                "burst_head": 1,
                "burst_tail": 0,
            },
            cluster={"num_nodes": 2},
            energy={"idle_power_mode": IdlePowerMode.EXCLUDED},
        )
        system = build_trial_system(cfg)
        result = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
        assert result.num_tasks == 1
        # A lone task on an idle cluster with a fresh budget must count.
        assert result.completed_within == 1

    def test_single_task_p4_floor_budget_gap(self):
        # Companion check: under the paper's idle floor the same lone
        # task is cut off — the per-task budget excludes idle burn.
        cfg = SimulationConfig(seed=2).with_updates(
            workload={
                "num_tasks": 1,
                "num_task_types": 2,
                "burst_head": 1,
                "burst_tail": 0,
            },
            cluster={"num_nodes": 2},
        )
        system = build_trial_system(cfg)
        result = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
        assert result.total_energy > result.budget

    def test_simultaneous_arrivals(self):
        system = build_trial_system(tiny(seed=3))
        # Force the first five arrivals to the same instant.
        t0 = system.workload.tasks[4].arrival
        tasks = list(system.workload.tasks)
        for i in range(5):
            old = tasks[i]
            tasks[i] = Task(
                task_id=old.task_id,
                type_id=old.type_id,
                arrival=t0,
                deadline=t0 + (old.deadline - old.arrival),
            )
        workload = replace(system.workload, tasks=tuple(tasks))
        system = replace(system, workload=workload)
        result = Engine(system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()
        assert len(result.outcomes) == 30
        firsts = [o for o in result.outcomes[:5]]
        # Simultaneous arrivals map in task-id order, deterministically.
        assert all(not o.discarded for o in firsts)


class TestBudgetExtremes:
    def test_huge_budget_never_exhausts(self):
        cfg = tiny(energy={"budget_mult": 100.0})
        system = build_trial_system(cfg)
        result = Engine(system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()
        assert result.exhaustion_time == float("inf")
        assert result.energy_cutoff == 0

    def test_tiny_budget_cuts_everything(self):
        cfg = tiny(energy={"budget_mult": 1e-6})
        system = build_trial_system(cfg)
        result = Engine(system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()
        # Unfiltered: tasks still execute, but nothing counts after the
        # (immediate) exhaustion.
        assert result.completed_within == 0

    def test_tiny_budget_with_filter_discards(self):
        cfg = tiny(energy={"budget_mult": 1e-6})
        system = build_trial_system(cfg)
        result = Engine(system, LightestLoad(), build_filter_chain("en")).run()
        # The energy filter sees no fair share at all: every task is
        # discarded at mapping time.
        assert result.discarded == result.num_tasks

    def test_excluded_idle_mode_runs(self):
        cfg = tiny(energy={"idle_power_mode": IdlePowerMode.EXCLUDED})
        system = build_trial_system(cfg)
        result = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
        assert result.total_energy > 0.0


def _with_arrival_at(system, task_index: int, arrival: float):
    """Copy ``system`` with one task's arrival (and deadline slack) moved."""
    tasks = list(system.workload.tasks)
    old = tasks[task_index]
    tasks[task_index] = Task(
        task_id=old.task_id,
        type_id=old.type_id,
        arrival=arrival,
        deadline=arrival + (old.deadline - old.arrival),
    )
    workload = replace(system.workload, tasks=tuple(tasks))
    return replace(system, workload=workload)


class TestEventOrderingTieBreaks:
    """engine.py's documented ordering: completions before arrivals at
    identical timestamps, so a just-freed core is visible to the mapper."""

    def _tie_system(self, seed: int = 7):
        """A system where some task arrives exactly at a completion time.

        Run once to learn a completion time ``t_c``, then move the first
        task whose arrival lies beyond ``t_c`` to exactly ``t_c``.  All
        events before ``t_c`` involve only unmoved earlier tasks, so the
        completion still happens at ``t_c`` in the modified system.
        """
        system = build_trial_system(tiny(seed=seed))
        base = Engine(
            system, MinimumExpectedCompletionTime(), build_filter_chain("none")
        ).run()
        tasks = system.workload.tasks
        for outcome in sorted(
            (o for o in base.outcomes if not o.discarded), key=lambda o: o.completion
        ):
            for j, task in enumerate(tasks):
                if task.arrival > outcome.completion:
                    return _with_arrival_at(system, j, outcome.completion), outcome, j
        pytest.fail("no completion with a later arrival found")

    def test_completion_processed_before_simultaneous_arrival(self):
        system, done, j = self._tie_system()
        t_c = done.completion
        hooks = RecordingHooks()
        Engine(
            system, MinimumExpectedCompletionTime(), build_filter_chain("none"), hooks=(hooks,)
        ).run()
        idx_completed = hooks.events.index(("completed", t_c, done.task_id, done.core_id))
        (idx_mapped,) = [
            i
            for i, (kind, _t, task_id, _c) in enumerate(hooks.events)
            if kind == "mapped" and task_id == j
        ]
        assert hooks.events[idx_mapped][1] == t_c  # the tie really happened
        assert idx_completed < idx_mapped

    def test_freed_core_visible_to_mapper_at_tie(self):
        system, done, j = self._tie_system()

        class FreedCoreProbe(RecordingHooks):
            """Snapshot the freed core's occupant when task j maps."""

            def on_mapped(self, engine, task, core_id, pstate):
                super().on_mapped(engine, task, core_id, pstate)
                if task.task_id == j:
                    running = engine.cores[done.core_id].running
                    self.freed_core_running = (
                        None if running is None else running.task.task_id
                    )

        hooks = FreedCoreProbe()
        Engine(
            system, MinimumExpectedCompletionTime(), build_filter_chain("none"), hooks=(hooks,)
        ).run()
        # By the time the simultaneous arrival maps, the completed task
        # no longer occupies its core: the mapper saw the freed core.
        assert hooks.freed_core_running != done.task_id

    def test_tie_break_ordering_is_reproducible(self):
        system, _done, _j = self._tie_system()
        runs = []
        for _ in range(2):
            hooks = RecordingHooks()
            Engine(
                system, MinimumExpectedCompletionTime(), build_filter_chain("none"), hooks=(hooks,)
            ).run()
            runs.append(hooks.events)
        assert runs[0] == runs[1]


class TestEmptyFeasibleSetDiscard:
    def test_discard_path_fires_hook_and_records_outcome(self):
        # A vanishing budget starves the energy filter's fair share, so
        # every arrival's feasible set filters empty.
        cfg = tiny(energy={"budget_mult": 1e-6})
        system = build_trial_system(cfg)
        hooks = RecordingHooks()
        result = Engine(system, LightestLoad(), build_filter_chain("en"), hooks=(hooks,)).run()
        assert result.discarded == result.num_tasks
        assert {kind for kind, *_ in hooks.events} == {"discarded"}
        # One hook call per task, in arrival order.
        assert [task_id for _k, _t, task_id, _c in hooks.events] == list(
            range(result.num_tasks)
        )
        for outcome in result.outcomes:
            assert outcome.discarded
            assert outcome.core_id == -1 and outcome.pstate == -1
            assert math.isnan(outcome.start) and math.isnan(outcome.completion)
            assert not outcome.on_time()
