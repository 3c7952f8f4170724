"""Unit and property tests for windowed service metrics (repro.sim.metrics).

WindowStats is a monoid under merge; WindowAccumulator folds an event
stream into contiguous windows with telescoping energy.  The soak test
exercises these against a live engine; here they run against synthetic
event streams so failures localize.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import WINDOW_FORMAT, ServiceConfig, window_rows, write_windows_jsonl
from repro.sim.engine import EngineHooks
from repro.sim.results import ON_TIME_TOL
from repro.workload.task import Task
from repro.sim.metrics import WindowAccumulator, WindowStats
from tests.conftest import StubEngine

counts = st.integers(min_value=0, max_value=50)


def window_stats(draw_start: float, length: float, draw) -> WindowStats:
    on_time, late = draw(counts), draw(counts)
    return WindowStats(
        start=draw_start,
        end=draw_start + length,
        mapped=draw(counts),
        discarded=draw(counts),
        completed=on_time + late,
        on_time=on_time,
        late=late,
        energy=draw(st.floats(min_value=0.0, max_value=1e6)),
        budget_remaining=draw(st.floats(min_value=0.0, max_value=1e9)),
        in_system_end=draw(counts),
    )


class TestWindowStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowStats(start=1.0, end=0.5)
        with pytest.raises(ValueError):
            WindowStats(start=0.0, end=1.0, mapped=-1)
        with pytest.raises(ValueError):
            WindowStats(start=0.0, end=1.0, completed=2, on_time=1, late=0)

    def test_merge_requires_contiguity(self):
        a = WindowStats(start=0.0, end=1.0)
        b = WindowStats(start=2.0, end=3.0)
        with pytest.raises(ValueError, match="contiguous"):
            a.merge(b)

    def test_merge_all_rejects_empty(self):
        with pytest.raises(ValueError):
            WindowStats.merge_all([])

    @settings(max_examples=50)
    @given(data=st.data(), lengths=st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=8))
    def test_merge_is_associative_fold(self, data, lengths):
        windows, t = [], 0.0
        for length in lengths:
            windows.append(window_stats(t, length, data.draw))
            t += length
        total = WindowStats.merge_all(windows)
        assert total.start == windows[0].start
        assert total.end == windows[-1].end
        assert total.mapped == sum(w.mapped for w in windows)
        assert total.completed == sum(w.completed for w in windows)
        assert total.arrivals == sum(w.arrivals for w in windows)
        assert total.energy == pytest.approx(sum(w.energy for w in windows))
        # State-at-end fields are last-wins.
        assert total.budget_remaining == windows[-1].budget_remaining
        assert total.in_system_end == windows[-1].in_system_end
        # Pairwise left fold equals merge_all (associativity over a run).
        left = windows[0]
        for w in windows[1:]:
            left = left.merge(w)
        assert left == total

    def test_to_dict_maps_nan_budget_to_none(self):
        w = WindowStats(start=0.0, end=1.0)
        assert w.to_dict()["budget_remaining"] is None
        w = WindowStats(start=0.0, end=1.0, budget_remaining=3.0)
        assert w.to_dict()["budget_remaining"] == 3.0


class TestWindowAccumulator:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowAccumulator(0.0)

    def test_is_an_engine_subscriber(self):
        assert isinstance(WindowAccumulator(1.0), EngineHooks)

    def test_events_land_in_their_windows(self):
        acc = WindowAccumulator(10.0)
        engine = StubEngine(acc)
        engine.mapped(1.0, in_system=1)
        engine.mapped(9.9, in_system=2)
        engine.completed(12.0, in_system=1)
        engine.discarded(25.0, in_system=1)
        windows = acc.flush(25.0)
        assert [w.arrivals for w in windows] == [2, 0, 1]
        assert [w.completed for w in windows] == [0, 1, 0]
        assert windows[0].in_system_end == 2
        assert windows[2].discarded == 1

    def test_empty_gap_windows_are_emitted(self):
        acc = WindowAccumulator(5.0)
        engine = StubEngine(acc)
        engine.mapped(1.0, in_system=1)
        engine.mapped(22.0, in_system=2)
        windows = acc.flush(22.0)
        assert len(windows) == 5
        assert [w.arrivals for w in windows] == [1, 0, 0, 0, 1]

    def test_flush_with_no_events_returns_one_window(self):
        windows = WindowAccumulator(5.0).flush(0.0)
        assert len(windows) == 1
        assert windows[0].arrivals == 0

    def test_telescoping_energy_sums_to_total(self):
        energy = lambda t: 3.0 * t  # noqa: E731 - a linear meter stub
        acc = WindowAccumulator(10.0, energy_at=energy)
        engine = StubEngine(acc)
        for t in (2.0, 17.0, 34.0):
            engine.mapped(t, in_system=1)
        windows = acc.flush(35.0)
        assert sum(w.energy for w in windows) == pytest.approx(energy(35.0))
        assert WindowStats.merge_all(windows).energy == pytest.approx(energy(35.0))

    def test_late_counts_split(self):
        acc = WindowAccumulator(10.0)
        engine = StubEngine(acc)
        engine.completed(1.0, on_time=True, in_system=0)
        engine.completed(2.0, on_time=False, in_system=0)
        (w,) = acc.flush(2.0)
        assert (w.completed, w.on_time, w.late) == (2, 1, 1)

    def test_deadline_tolerance_matches_task_outcome(self):
        # ON_TIME_TOL is shared with TaskOutcome.on_time.
        acc = WindowAccumulator(10.0)
        task = Task(task_id=0, type_id=0, arrival=0.0, deadline=1.0)
        for t_now in (1.0 + 0.5 * ON_TIME_TOL, 1.0 + 2.0 * ON_TIME_TOL):
            acc.on_completion(StubEngine(acc), 0, task, t_now)
        (w,) = acc.flush(2.0)
        assert (w.on_time, w.late) == (1, 1)

    def test_fault_feeds_split_by_disposition(self):
        acc = WindowAccumulator(10.0)
        engine = StubEngine(acc)
        engine.shed(1.0)
        engine.shed(2.0, deferred=True)
        engine.orphaned(3.0, "remapped")
        engine.orphaned(4.0, "lost")
        engine.orphaned(5.0, "killed")
        engine.orphaned(5.0, "dropped")
        (w,) = acc.flush(5.0)
        assert (w.shed, w.deferred, w.arrivals) == (1, 1, 1)
        assert (w.orphaned, w.remapped, w.lost) == (2, 1, 3)
        with pytest.raises(ValueError, match="disposition"):
            engine.orphaned(6.0, "vanished")


class TestWindowRows:
    def _result(self):
        from repro.service import ServiceResult

        windows = (
            WindowStats(start=0.0, end=5.0, mapped=3, completed=1, on_time=1),
            WindowStats(start=5.0, end=10.0, mapped=2, completed=3, on_time=2, late=1),
        )
        return ServiceResult(
            label="LL/en+rob",
            seed=9,
            traffic="poisson",
            window=5.0,
            windows=windows,
            makespan=10.0,
        )

    def test_rows_are_self_describing(self):
        rows = list(window_rows(self._result()))
        assert [r["index"] for r in rows] == [0, 1]
        for row in rows:
            assert row["format"] == WINDOW_FORMAT
            assert row["label"] == "LL/en+rob"
            assert row["seed"] == 9
            assert row["arrivals"] == row["mapped"] + row["discarded"]
            assert row["completed"] == row["on_time"] + row["late"]

    def test_write_windows_jsonl_round_trips(self, tmp_path):
        path = tmp_path / "w.jsonl"
        count = write_windows_jsonl(self._result(), path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed == list(window_rows(self._result()))

    def test_write_windows_jsonl_accepts_a_handle(self):
        buf = io.StringIO()
        count = write_windows_jsonl(self._result(), buf)
        assert count == 2
        assert len(buf.getvalue().splitlines()) == 2
