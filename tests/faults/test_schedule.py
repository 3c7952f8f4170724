"""Unit tests for the fault schedule layer (repro.faults data types)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.faults import (
    FAULTS_FORMAT,
    FaultEvent,
    FaultPolicy,
    FaultSchedule,
)
from repro.io.faults_io import load_faults, save_faults
from tests.conftest import tiny_config
from repro import build_trial_system


@pytest.fixture(scope="module")
def cluster():
    return build_trial_system(tiny_config(seed=123)).cluster


class TestFaultEvent:
    def test_end_is_start_plus_duration(self):
        event = FaultEvent("node_outage", 0, 10.0, 5.0)
        assert event.end == 15.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="meteor_strike", target=0, start=0.0, duration=1.0),
            dict(kind="node_outage", target=-1, start=0.0, duration=1.0),
            dict(kind="node_outage", target=0, start=-1.0, duration=1.0),
            dict(kind="node_outage", target=0, start=0.0, duration=0.0),
            dict(kind="node_outage", target=0, start=0.0, duration=float("inf")),
            dict(kind="node_outage", target=0, start=0.0, duration=1.0, pstate_floor=2),
            dict(kind="node_slowdown", target=0, start=0.0, duration=1.0, pstate_floor=-1),
        ],
    )
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)


class TestFaultPolicy:
    def test_defaults_remap_and_lose_running(self):
        policy = FaultPolicy()
        assert policy.running == "lost"
        assert policy.remap is True

    def test_unknown_running_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(running="teleport")


class TestGenerate:
    def test_same_seed_same_schedule(self):
        kwargs = dict(num_targets=3, horizon=1e4, mtbf=2e3, mttr=500.0, seed=7)
        assert FaultSchedule.generate(**kwargs) == FaultSchedule.generate(**kwargs)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        mtbf=st.floats(min_value=100.0, max_value=1e5),
        mttr=st.floats(min_value=10.0, max_value=1e4),
        scope=st.sampled_from(["node", "core", "slowdown"]),
    )
    def test_generation_is_a_pure_function_of_its_inputs(self, seed, mtbf, mttr, scope):
        kwargs = dict(
            num_targets=2,
            horizon=5e4,
            mtbf=mtbf,
            mttr=mttr,
            seed=seed,
            scope=scope,
            pstate_floor=1 if scope == "slowdown" else 0,
        )
        first = FaultSchedule.generate(**kwargs)
        second = FaultSchedule.generate(**kwargs)
        assert first == second
        for event in first.events:
            assert event.start < 5e4
            assert event.duration > 0.0

    def test_adding_targets_preserves_existing_streams(self):
        # Per-target rng sub-streams: target k's episodes are identical
        # whether or not more targets exist.
        kwargs = dict(horizon=1e4, mtbf=1e3, mttr=200.0, seed=11)
        small = FaultSchedule.generate(num_targets=2, **kwargs)
        large = FaultSchedule.generate(num_targets=4, **kwargs)
        kept = tuple(e for e in large.events if e.target < 2)
        assert kept == small.events

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            FaultSchedule.generate(
                num_targets=1, horizon=1.0, mtbf=1.0, mttr=1.0, seed=0, scope="rack"
            )


class TestTransitions:
    def test_times_are_ordered_and_balanced(self, cluster):
        schedule = FaultSchedule.generate(
            num_targets=cluster.num_nodes, horizon=2e4, mtbf=3e3, mttr=800.0, seed=5
        )
        transitions = schedule.transitions(cluster)
        assert len(transitions) == 2 * len(schedule.events)
        times = [t.time for t in transitions]
        assert times == sorted(times)
        fails = sum(1 for t in transitions if t.action == "fail")
        recovers = sum(1 for t in transitions if t.action == "recover")
        assert fails == recovers == len(schedule.events)

    def test_node_events_cover_all_node_cores(self, cluster):
        schedule = FaultSchedule((FaultEvent("node_outage", 1, 10.0, 5.0),))
        fail, recover = schedule.transitions(cluster)
        expected = tuple(
            core_id
            for core_id in range(cluster.num_cores)
            if cluster.core_node_index[core_id] == 1
        )
        assert fail.core_ids == expected
        assert recover.core_ids == expected
        assert fail.is_outage and recover.is_outage

    def test_core_event_targets_one_core(self, cluster):
        schedule = FaultSchedule((FaultEvent("core_outage", 3, 10.0, 5.0),))
        fail, _ = schedule.transitions(cluster)
        assert fail.core_ids == (3,)

    def test_out_of_range_target_rejected(self, cluster):
        schedule = FaultSchedule(
            (FaultEvent("node_outage", cluster.num_nodes, 1.0, 1.0),)
        )
        with pytest.raises(ValueError):
            schedule.transitions(cluster)

    def test_recovery_sorts_before_failure_at_same_instant(self, cluster):
        schedule = FaultSchedule(
            (
                FaultEvent("node_outage", 0, 0.0, 10.0),
                FaultEvent("node_outage", 1, 10.0, 5.0),
            )
        )
        transitions = schedule.transitions(cluster)
        at_ten = [t.action for t in transitions if t.time == 10.0]
        assert at_ten == ["recover", "fail"]

    def test_empty_schedule_compiles_to_nothing(self, cluster):
        assert FaultSchedule.empty().transitions(cluster) == ()
        assert not FaultSchedule.empty()
        assert len(FaultSchedule.empty()) == 0


class TestRoundTrip:
    def test_dict_round_trip(self):
        schedule = FaultSchedule.generate(
            num_targets=2, horizon=1e4, mtbf=1e3, mttr=300.0, seed=3, scope="slowdown",
            pstate_floor=2,
        )
        data = schedule.to_dict()
        assert data["format"] == FAULTS_FORMAT
        assert FaultSchedule.from_dict(data) == schedule

    def test_bad_format_tag_rejected(self):
        with pytest.raises(ValueError, match="format"):
            FaultSchedule.from_dict({"format": "repro.faults/999", "events": []})

    @pytest.mark.parametrize(
        "data, match",
        [
            ([], "format"),
            (
                {"format": FAULTS_FORMAT, "events": [{"kind": "node_outage", "target": 0, "duration": 5.0}]},
                "'start'",
            ),
            ({"format": FAULTS_FORMAT, "events": [["node_outage", 0, 1.0, 5.0]]}, "event 0"),
        ],
    )
    def test_malformed_documents_raise_value_error(self, data, match):
        with pytest.raises(ValueError, match=match):
            FaultSchedule.from_dict(data)

    def test_file_round_trip(self, tmp_path):
        schedule = FaultSchedule.generate(
            num_targets=3, horizon=5e3, mtbf=800.0, mttr=100.0, seed=9
        )
        path = save_faults(schedule, tmp_path / "faults.json")
        assert load_faults(path) == schedule
