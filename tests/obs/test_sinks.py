"""Tests for event sinks and the metrics registry (repro.obs.sinks)."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.events import TaskCompleted, TaskMapped, event_from_dict
from repro.obs.sinks import (
    DEPTH_EDGES,
    GRID_EDGES,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
)

EVENT = TaskCompleted(t=1.0, task_id=0, type_id=1, core_id=2)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(EVENT)
            sink.emit(
                TaskMapped(
                    t=2.0, task_id=1, type_id=0, core_id=0, pstate=4,
                    energy_estimate=1.0, queue_depth=0.0,
                )
            )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert sink.count == 2
        assert event_from_dict(json.loads(lines[0])) == EVENT

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(EVENT)
        assert path.exists()

    def test_borrowed_file_left_open(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as fh:
            sink = JsonlSink(fh)
            sink.emit(EVENT)
            sink.close()
            assert not fh.closed


class TestJsonlSinkDurability:
    def test_flush_pushes_lines_without_closing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(EVENT)
        sink.flush()
        assert path.read_text().endswith("\n")
        sink.emit(EVENT)
        sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_close_flushes_borrowed_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with path.open("w") as fh:  # block-buffered: lines sit in memory
            sink = JsonlSink(fh)
            sink.emit(EVENT)
            sink.close()
            assert not fh.closed
            assert path.read_text().count("\n") == 1

    def test_crashed_writer_leaves_only_whole_lines(self, tmp_path):
        # Regression: a worker that dies mid-trial (os._exit skips every
        # atexit/__exit__ path) must leave a parseable trace prefix, not
        # a file ending in half a JSON object.
        import os

        from repro.io.trace_io import load_trace

        path = tmp_path / "crash.jsonl"
        pid = os.fork()
        if pid == 0:  # child: write a burst of events, die without close
            sink = JsonlSink(path)
            for i in range(200):
                sink.emit(
                    TaskCompleted(t=float(i), task_id=i, type_id=0, core_id=0)
                )
            os._exit(17)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 17
        raw = path.read_text()
        assert raw.endswith("\n")
        lines = raw.splitlines()
        for line in lines:  # every surviving line is a complete object
            json.loads(line)
        events = load_trace(path)
        assert len(events) == 200  # line-buffered: nothing was lost
        assert [e.task_id for e in events] == list(range(200))


class TestRingBufferSink:
    def test_keeps_most_recent(self):
        ring = RingBufferSink(capacity=3)
        for i in range(10):
            ring.emit(TaskCompleted(t=float(i), task_id=i, type_id=0, core_id=0))
        assert len(ring) == 3
        assert ring.total_emitted == 10
        assert [e.task_id for e in ring.events] == [7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_iterates_oldest_first(self):
        ring = RingBufferSink(capacity=4)
        for i in range(4):
            ring.emit(TaskCompleted(t=float(i), task_id=i, type_id=0, core_id=0))
        assert [e.task_id for e in ring] == [0, 1, 2, 3]


class TestHistogram:
    def test_bucketing_and_overflow(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 100.0
        assert math.isclose(hist.mean(), (0.5 + 1.5 + 3.0 + 100.0) / 4)

    def test_empty_mean_is_nan(self):
        assert math.isnan(Histogram(edges=(1.0,)).mean())

    def test_merge_adds_elementwise(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(10.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 10.0

    def test_merge_rejects_mismatched_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(1.0,)).merge(Histogram(edges=(2.0,)))

    def test_dict_round_trip_including_empty(self):
        hist = Histogram(edges=(1.0, 2.0))
        assert Histogram.from_dict(hist.to_dict()).counts == hist.counts
        hist.observe(1.5)
        back = Histogram.from_dict(hist.to_dict())
        assert back.counts == hist.counts
        assert back.count == hist.count
        assert back.min == hist.min and back.max == hist.max

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))

    def test_default_edges_strictly_increasing(self):
        for edges in (DEPTH_EDGES, GRID_EDGES):
            assert all(b > a for a, b in zip(edges, edges[1:]))


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("tasks_mapped")
        reg.inc("tasks_mapped", 4)
        assert reg.counter("tasks_mapped") == 5
        assert reg.counter("never_touched") == 0

    def test_counters_with_prefix(self):
        reg = MetricsRegistry()
        reg.inc("tasks_discarded.empty_feasible_set", 2)
        reg.inc("tasks_discarded.cancelled")
        reg.inc("tasks_mapped")
        assert reg.counters_with_prefix("tasks_discarded.") == {
            "empty_feasible_set": 2,
            "cancelled": 1,
        }

    def test_observe_creates_histogram_once(self):
        reg = MetricsRegistry()
        reg.observe("queue_depth", 0.3, DEPTH_EDGES)
        reg.observe("queue_depth", 5.0, DEPTH_EDGES)
        assert reg.histograms["queue_depth"].count == 2

    def test_merge_is_commutative_on_totals(self):
        def build(values):
            reg = MetricsRegistry()
            for v in values:
                reg.inc("n")
                reg.observe("h", v, (1.0, 2.0))
            return reg

        ab = build([0.5, 1.5])
        ab.merge(build([3.0]))
        ba = build([3.0])
        ba.merge(build([0.5, 1.5]))
        assert ab.counters == ba.counters
        assert ab.histograms["h"].counts == ba.histograms["h"].counts

    def test_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("a", 3)
        reg.observe("h", 0.1, (1.0,))
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.counters == reg.counters
        assert back.histograms["h"].counts == reg.histograms["h"].counts

    def test_from_dict_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"format": "something/else"})
