"""Tests for the discrete-event engine (repro.sim.engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.energy import IDLE_PSTATE, StreamingEnergyMeter
from repro.config import IdlePowerMode
from repro.filters.chain import build_filter_chain
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.shortest_queue import ShortestQueue
from repro.sim.engine import Engine, EngineHooks
from repro.sim.metrics import TraceCollector
from repro import build_trial_system
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def mect_result(tiny_system):
    return Engine(tiny_system, MinimumExpectedCompletionTime(), build_filter_chain("none")).run()


class TestAccounting:
    def test_every_task_has_an_outcome(self, tiny_system, mect_result):
        assert len(mect_result.outcomes) == tiny_system.num_tasks
        ids = [o.task_id for o in mect_result.outcomes]
        assert ids == list(range(tiny_system.num_tasks))

    def test_miss_decomposition(self, mect_result):
        assert (
            mect_result.missed
            == mect_result.discarded + mect_result.late + mect_result.energy_cutoff
        )
        assert mect_result.missed + mect_result.completed_within == mect_result.num_tasks

    def test_unfiltered_run_discards_nothing(self, mect_result):
        # With no filters, the feasible set is never empty.
        assert mect_result.discarded == 0

    def test_makespan_covers_all_completions(self, mect_result):
        completions = mect_result.completion_times()
        assert completions.max() <= mect_result.makespan + 1e-9


class TestSchedulingSemantics:
    def test_starts_respect_arrivals(self, mect_result):
        for o in mect_result.outcomes:
            if not o.discarded:
                assert o.start >= o.arrival - 1e-9

    def test_immediate_start_on_idle_system(self, tiny_system, mect_result):
        # The very first task arrives to an all-idle cluster.
        first = mect_result.outcomes[0]
        assert first.start == pytest.approx(first.arrival)

    def test_fifo_per_core(self, mect_result):
        # Tasks mapped to one core start in the order they were mapped
        # (arrival order, since mapping is immediate).
        by_core: dict[int, list] = {}
        for o in mect_result.outcomes:
            if not o.discarded:
                by_core.setdefault(o.core_id, []).append(o)
        for outcomes in by_core.values():
            starts = [o.start for o in outcomes]  # already in arrival order
            assert all(b >= a - 1e-9 for a, b in zip(starts, starts[1:]))

    def test_no_core_overlap(self, mect_result):
        by_core: dict[int, list] = {}
        for o in mect_result.outcomes:
            if not o.discarded:
                by_core.setdefault(o.core_id, []).append(o)
        for outcomes in by_core.values():
            for a, b in zip(outcomes, outcomes[1:]):
                assert b.start >= a.completion - 1e-9

    def test_actual_time_within_pmf_support(self, tiny_system, mect_result):
        cluster = tiny_system.cluster
        for o in mect_result.outcomes:
            if o.discarded:
                continue
            node = int(cluster.core_node_index[o.core_id])
            pmf = tiny_system.table.pmf(o.type_id, node, o.pstate)
            duration = o.completion - o.start
            assert pmf.start - 1e-9 <= duration <= pmf.stop + 1e-9

    def test_luck_quantile_reproduces_duration(self, tiny_system, mect_result):
        cluster = tiny_system.cluster
        for o in mect_result.outcomes[:20]:
            if o.discarded:
                continue
            node = int(cluster.core_node_index[o.core_id])
            pmf = tiny_system.table.pmf(o.type_id, node, o.pstate)
            expected = pmf.quantile(float(tiny_system.exec_luck[o.task_id]))
            assert o.completion - o.start == pytest.approx(expected)


class TestEnergySemantics:
    def test_ledger_total_matches_result(self, tiny_system):
        engine = Engine(tiny_system, ShortestQueue(), build_filter_chain("none"))
        result = engine.run()
        assert result.total_energy == pytest.approx(engine.ledger.total_energy())

    def test_excluded_mode_energy_equals_execution_sum(self):
        cfg = tiny_config(seed=31).with_updates(
            energy={"idle_power_mode": IdlePowerMode.EXCLUDED}
        )
        system = build_trial_system(cfg)
        result = Engine(system, ShortestQueue(), build_filter_chain("none")).run()
        cluster = system.cluster
        power = cluster.power_table()
        eff = cluster.efficiency_vector()
        expected = 0.0
        for o in result.outcomes:
            if o.discarded:
                continue
            node = int(cluster.core_node_index[o.core_id])
            expected += (o.completion - o.start) * power[node, o.pstate] / eff[node]
        assert result.total_energy == pytest.approx(expected, rel=1e-9)

    def test_p4_floor_adds_idle_energy(self, tiny_system):
        result_floor = Engine(tiny_system, ShortestQueue(), build_filter_chain("none")).run()
        cfg = tiny_config().with_updates(
            energy={"idle_power_mode": IdlePowerMode.EXCLUDED}
        )
        system_excl = build_trial_system(cfg)
        result_excl = Engine(system_excl, ShortestQueue(), build_filter_chain("none")).run()
        assert result_floor.total_energy > result_excl.total_energy

    def test_transitions_alternate_sanely(self, tiny_system):
        engine = Engine(tiny_system, MinimumExpectedCompletionTime(), build_filter_chain("none"))
        engine.run()
        for cid in range(tiny_system.cluster.num_cores):
            trail = engine.ledger.transitions(cid)
            assert trail[0].pstate == IDLE_PSTATE
            assert trail[-1].pstate == IDLE_PSTATE
            times = [t.time for t in trail]
            assert all(b >= a for a, b in zip(times, times[1:]))

    def test_energy_estimate_decreases(self, tiny_system):
        collector = TraceCollector()
        Engine(
            tiny_system,
            MinimumExpectedCompletionTime(),
            build_filter_chain("none"),
            hooks=(collector,),
        ).run()
        est = collector.energy_estimates
        assert all(b <= a + 1e-9 for a, b in zip(est, est[1:]))
        assert est[0] < tiny_system.budget  # first mapping already paid


class TestDeterminism:
    def test_same_engine_inputs_same_result(self, tiny_system):
        a = Engine(tiny_system, LightestLoad(), build_filter_chain("en+rob")).run()
        b = Engine(tiny_system, LightestLoad(), build_filter_chain("en+rob")).run()
        assert a == b

    def test_engine_runs_once(self, tiny_system):
        engine = Engine(tiny_system, ShortestQueue(), build_filter_chain("none"))
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()


class TestOutcomeTracking:
    """Per-task outcomes are kept exactly when the ledger can be scored
    (the default ``EnergyLedger`` case is ``TestAccounting``)."""

    def test_streaming_meter_keeps_no_outcomes(self, tiny_system):
        meter = StreamingEnergyMeter(
            tiny_system.cluster, tiny_system.config.energy.idle_power_mode
        )
        engine = Engine(
            tiny_system, LightestLoad(), build_filter_chain("en+rob"), ledger=meter
        )
        end = engine.serve(tiny_system.workload.tasks)
        assert engine._outcomes == {}
        with pytest.raises(RuntimeError, match=r"score\(\) needs outcome tracking"):
            engine.score(end)


class TestCollector:
    def test_one_record_per_arrival(self, tiny_system):
        collector = TraceCollector()
        Engine(tiny_system, ShortestQueue(), build_filter_chain("none"), hooks=(collector,)).run()
        assert len(collector.arrival_times) == tiny_system.num_tasks
        assert len(collector.chosen_pstates) == tiny_system.num_tasks

    def test_pstate_histogram_totals(self, tiny_system):
        collector = TraceCollector()
        result = Engine(
            tiny_system, ShortestQueue(), build_filter_chain("none"), hooks=(collector,)
        ).run()
        hist = collector.pstate_histogram(tiny_system.cluster.num_pstates)
        assert hist.sum() == tiny_system.num_tasks - result.discarded

    def test_as_arrays(self, tiny_system):
        collector = TraceCollector()
        Engine(tiny_system, ShortestQueue(), build_filter_chain("none"), hooks=(collector,)).run()
        arrays = collector.as_arrays()
        assert set(arrays) == {
            "arrival_times",
            "queue_depths",
            "energy_estimates",
            "chosen_pstates",
            "chosen_probs",
            "feasible_counts",
        }
        assert arrays["arrival_times"].shape == (tiny_system.num_tasks,)


class _CountingHooks(EngineHooks):
    def __init__(self):
        self.mapped = 0
        self.discarded = 0
        self.completed = 0

    def on_mapped(self, engine, task, core_id, pstate):
        self.mapped += 1

    def on_discarded(self, engine, task):
        self.discarded += 1

    def on_completion(self, engine, core_id, task, t_now):
        self.completed += 1


class TestHooks:
    def test_hook_counts_cover_workload(self, tiny_system):
        hooks = _CountingHooks()
        result = Engine(
            tiny_system, LightestLoad(), build_filter_chain("en+rob"), hooks=(hooks,)
        ).run()
        assert hooks.mapped + hooks.discarded == tiny_system.num_tasks
        assert hooks.completed == hooks.mapped
        assert result.discarded == hooks.discarded
