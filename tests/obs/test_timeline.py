"""Tests for timeline sampling (repro.obs.timeline)."""

from __future__ import annotations

import pytest

from repro.obs.timeline import (
    TIMELINE_FORMAT,
    TimelineRecorder,
    TimelineSample,
    TimelineSet,
)


class _FakeCore:
    def __init__(self, node_index: int, assigned: int, running: bool) -> None:
        self.node_index = node_index
        self.assigned_count = assigned
        self.running = object() if running else None


class _FakeCluster:
    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes


class _FakeSystem:
    def __init__(self, num_nodes: int) -> None:
        self.cluster = _FakeCluster(num_nodes)


class _FakeEngine:
    """Just enough engine surface for the recorder to read."""

    def __init__(self, num_nodes: int = 2) -> None:
        self.now = 0.0
        self.system = _FakeSystem(num_nodes)
        self.cores: list[_FakeCore] = []
        self.energy_estimate = 100.0


class TestTimelineRecorder:
    def test_rejects_nonpositive_dt(self):
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                TimelineRecorder(dt)

    def test_one_sample_per_crossed_tick(self):
        rec = TimelineRecorder(10.0)
        engine = _FakeEngine()
        engine.now = 0.0
        rec.on_mapped(engine, None, 0, 0)  # crosses tick 0
        assert [s.t for s in rec.samples] == [0.0]
        engine.now = 35.0
        rec.on_completion(engine, 0, None, engine.now)  # crosses ticks 10, 20, 30
        assert [s.t for s in rec.samples] == [0.0, 10.0, 20.0, 30.0]
        engine.now = 36.0
        rec.on_mapped(engine, None, 0, 0)  # no new tick crossed
        assert len(rec) == 4

    def test_samples_read_engine_state(self):
        rec = TimelineRecorder(1.0)
        engine = _FakeEngine(num_nodes=2)
        engine.cores = [
            _FakeCore(0, assigned=2, running=True),
            _FakeCore(0, assigned=0, running=False),
            _FakeCore(1, assigned=1, running=True),
        ]
        engine.energy_estimate = 42.5
        engine.now = 1.0
        rec.on_mapped(engine, None, 0, 0)
        last = rec.samples[-1]
        assert last.node_depth == (2, 1)
        assert last.in_system == 3
        assert last.busy_cores == 2
        assert last.energy_estimate == 42.5

    def test_cumulative_counts(self):
        rec = TimelineRecorder(1.0)
        engine = _FakeEngine()
        engine.now = 1.0
        rec.on_completion(engine, 0, None, engine.now)
        rec.on_discarded(engine, None)
        engine.now = 3.0
        rec.on_completion(engine, 0, None, engine.now)
        last = rec.samples[-1]
        assert last.completed == 2
        assert last.discarded == 1

    def test_to_dict_parallel_arrays(self):
        rec = TimelineRecorder(5.0, stream=3, label="trial3:SQ/none")
        engine = _FakeEngine(num_nodes=2)
        engine.cores = [_FakeCore(1, assigned=1, running=True)]
        engine.now = 12.0
        rec.on_mapped(engine, None, 0, 0)
        data = rec.to_dict()
        assert data["stream"] == 3 and data["label"] == "trial3:SQ/none"
        assert data["dt"] == 5.0 and data["num_nodes"] == 2
        assert data["t"] == [0.0, 5.0, 10.0]
        assert data["node_depth"] == [[0, 1]] * 3
        for key in ("busy_cores", "energy_estimate", "completed", "discarded"):
            assert len(data[key]) == 3

    def test_empty_recorder_serializes(self):
        data = TimelineRecorder(1.0).to_dict()
        assert data["t"] == [] and data["num_nodes"] == 0

    def test_capacity_bounds_the_ring_buffer(self):
        rec = TimelineRecorder(1.0, capacity=5)
        engine = _FakeEngine()
        for tick in range(1, 50):
            engine.now = float(tick)
            rec.on_mapped(engine, None, 0, 0)
        # Newest 5 samples survive; older ones were evicted.
        assert len(rec) == 5
        assert [s.t for s in rec.samples] == [45.0, 46.0, 47.0, 48.0, 49.0]

    def test_capacity_validation(self):
        for capacity in (0, -3):
            with pytest.raises(ValueError):
                TimelineRecorder(1.0, capacity=capacity)

    def test_capped_recorder_serializes(self):
        rec = TimelineRecorder(1.0, capacity=2)
        engine = _FakeEngine()
        engine.now = 3.0
        rec.on_mapped(engine, None, 0, 0)
        data = rec.to_dict()
        assert data["t"] == [2.0, 3.0]


class TestTimelineSample:
    def test_in_system_sums_nodes(self):
        sample = TimelineSample(
            t=0.0, node_depth=(2, 0, 3), busy_cores=1,
            energy_estimate=0.0, completed=0, discarded=0,
        )
        assert sample.in_system == 5


class TestTimelineSet:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            TimelineSet(0.0)

    def test_sorted_streams_by_stream_then_label(self):
        tls = TimelineSet(1.0)
        tls.add({"stream": 1, "label": "b", "t": []})
        tls.add({"stream": 0, "label": "z", "t": []})
        tls.add({"stream": 1, "label": "a", "t": []})
        assert [(s["stream"], s["label"]) for s in tls] == [
            (0, "z"), (1, "a"), (1, "b"),
        ]

    def test_dict_round_trip(self):
        tls = TimelineSet(2.0)
        rec = TimelineRecorder(2.0, stream=1, label="t")
        engine = _FakeEngine()
        engine.now = 4.0
        rec.on_mapped(engine, None, 0, 0)
        tls.add(rec)
        data = tls.to_dict()
        assert data["format"] == TIMELINE_FORMAT
        back = TimelineSet.from_dict(data)
        assert back.to_dict() == data

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            TimelineSet.from_dict({"format": "repro.metrics/1", "dt": 1.0, "streams": []})
