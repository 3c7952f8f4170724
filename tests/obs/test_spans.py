"""Tests for span profiling (repro.obs.spans)."""

from __future__ import annotations

import pytest

from repro.obs.spans import SpanProfile, SpanRecorder


class FakeClock:
    """Deterministic perf_counter stand-in: each read advances by ``step``."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.t
        self.t += self.step
        return value


class TestSpanRecorder:
    def test_nesting_and_self_time(self):
        # Clock reads: outer open @0, inner open @1, inner close @2,
        # outer close @3 -> inner dur 1, outer dur 3, outer self 2.
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner, outer = rec.records
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.dur == pytest.approx(1.0)
        assert outer.dur == pytest.approx(3.0)
        assert inner.self_dur == pytest.approx(1.0)
        assert outer.self_dur == pytest.approx(2.0)
        assert inner.depth == 1 and outer.depth == 0

    def test_seq_is_open_order(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("a"):
            with rec.span("b"):
                pass
        with rec.span("c"):
            pass
        # Records close in b, a, c order but seq reflects open order.
        assert [(r.name, r.seq) for r in rec.records] == [("b", 1), ("a", 0), ("c", 2)]

    def test_add_attributes_to_open_parent(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("parent"):  # open @0
            rec.add("timed-elsewhere", 0.5, 0.25)
        # parent closes @1 -> dur 1, minus the added child's 0.25.
        child, parent = rec.records
        assert child.name == "timed-elsewhere"
        assert child.dur == child.self_dur == pytest.approx(0.25)
        assert child.depth == 1
        assert parent.self_dur == pytest.approx(0.75)

    def test_add_at_top_level(self):
        rec = SpanRecorder()
        rec.add("lonely", 0.0, 1.0)
        assert len(rec) == 1
        assert rec.records[0].depth == 0

    def test_stream_and_label(self):
        rec = SpanRecorder(stream=7, label="worker-7")
        assert rec.stream == 7 and rec.label == "worker-7"
        assert SpanRecorder(stream=3).label == "stream-3"

    def test_span_closed_on_exception(self):
        rec = SpanRecorder(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("x")
        assert [r.name for r in rec.records] == ["boom"]

    def test_dict_round_trip_via_profile(self):
        rec = SpanRecorder(stream=2, label="w", clock=FakeClock())
        with rec.span("a", tid=5):
            pass
        profile = SpanProfile()
        profile.add_stream(rec.to_dict())
        (back,) = profile.records
        assert back == rec.records[0]
        assert profile.labels == {2: "w"}


def two_stream_profile() -> SpanProfile:
    profile = SpanProfile()
    worker = SpanRecorder(stream=2, label="trial-1", clock=FakeClock())
    with worker.span("work"):
        pass
    parent = SpanRecorder(stream=0, label="supervisor", clock=FakeClock())
    with parent.span("supervise"):
        pass
    # Deliberately added out of stream order.
    profile.add_stream(worker)
    profile.add_stream(parent)
    return profile


class TestSpanProfile:
    def test_merge_order_is_deterministic(self):
        # Streams were added worker-first; sorted order is by stream id.
        profile = two_stream_profile()
        assert [r.stream for r in profile.sorted_records()] == [0, 2]
        assert profile.span_counts() == {"supervise": 1, "work": 1}

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            SpanProfile().add_stream({"format": "something/else", "spans": []})

    def test_summary_rows_sorted_by_total(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("big"):       # dur 5 (opens @0, closes @5)
            with rec.span("small"):  # dur 1
                pass
            with rec.span("small"):  # dur 1
                pass
        profile = SpanProfile()
        profile.add_stream(rec)
        rows = profile.summary()
        assert [row[0] for row in rows] == ["big", "small"]
        name, count, total, self_t = rows[1]
        assert count == 2 and total == pytest.approx(2.0)

    def test_chrome_trace_structure(self):
        trace = two_stream_profile().to_chrome_trace()
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["pid"]: m["args"]["name"] for m in meta} == {
            0: "supervisor",
            2: "trial-1",
        }
        assert len(spans) == 2
        for e in spans:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        # Per-stream normalization: each stream's earliest span is at 0.
        assert {e["pid"]: e["ts"] for e in spans} == {0: 0.0, 2: 0.0}

    def test_chrome_trace_track_ordering(self):
        rec = SpanRecorder(clock=FakeClock())
        with rec.span("first"):
            pass
        with rec.span("second"):
            pass
        profile = SpanProfile()
        profile.add_stream(rec)
        spans = [e for e in profile.to_chrome_trace()["traceEvents"] if e["ph"] == "X"]
        ts = [e["ts"] for e in spans]
        assert ts == sorted(ts)

    def test_len_and_iter(self):
        profile = two_stream_profile()
        assert len(profile) == 2
        assert [r.name for r in profile] == ["supervise", "work"]
