"""Tests for the window-JSONL monitor internals (repro.obs.monitor)."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import TelemetryServer
from repro.obs.monitor import (
    MIN_STEADY_WINDOWS,
    evaluate_rules,
    read_window_rows,
    render_monitor,
    scrape,
)
from repro.obs.telemetry import Telemetry
from repro.sim.metrics import WindowStats


def row(index: int, *, on_time: int = 8, late: int = 2, **overrides) -> dict:
    base = {
        "format": "repro.window/1",
        "schema_version": 2,
        "index": index,
        "label": "LL/en+rob",
        "seed": 123,
        "traffic": "poisson",
        "start": 10.0 * index,
        "end": 10.0 * (index + 1),
        "arrivals": on_time + late,
        "mapped": on_time + late,
        "discarded": 0,
        "completed": on_time + late,
        "on_time": on_time,
        "late": late,
        "energy": 500.0,
        "budget_remaining": None,
        "in_system_end": 3,
        "shed": 0,
        "deferred": 0,
        "orphaned": 0,
        "remapped": 0,
        "lost": 0,
    }
    base.update(overrides)
    return base


def write_jsonl(path, rows, *, partial_tail: str = "") -> None:
    text = "".join(json.dumps(r) + "\n" for r in rows) + partial_tail
    path.write_bytes(text.encode("utf-8"))


class TestReadWindowRows:
    def test_reads_rows_and_offset(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_jsonl(path, [row(0), row(1)])
        rows, trailer, offset, skipped = read_window_rows(path)
        assert [r["index"] for r in rows] == [0, 1]
        assert skipped == 0
        assert trailer is None
        assert offset == path.stat().st_size

    def test_partial_last_line_is_left_for_later(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_jsonl(path, [row(0)], partial_tail='{"format": "repro.win')
        rows, _, offset, _ = read_window_rows(path)
        assert len(rows) == 1
        assert offset < path.stat().st_size
        # The writer finishes the line: a follow-up read picks it up.
        with open(path, "ab") as fh:
            fh.write(b'dow/1", "index": 1}\n')
        more, _, offset2, _ = read_window_rows(path, offset=offset)
        assert [r["index"] for r in more] == [1]
        assert offset2 == path.stat().st_size

    def test_trailer_separated_from_rows(self, tmp_path):
        path = tmp_path / "w.jsonl"
        trailer_row = {
            "format": "repro.window_trailer/1",
            "truncated": True,
            "windows": 1,
            "makespan": 10.0,
        }
        write_jsonl(path, [row(0), trailer_row])
        rows, trailer, _, _ = read_window_rows(path)
        assert len(rows) == 1
        assert trailer["truncated"] is True

    def test_foreign_and_broken_lines_skipped(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(
            json.dumps(row(0)) + "\nnot json\n" + json.dumps({"format": "other/1"})
            + "\n[1, 2]\n"
        )
        rows, trailer, _, _ = read_window_rows(path)
        assert len(rows) == 1 and trailer is None

    def test_unparseable_rows_are_counted_and_reported(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(
            json.dumps(row(0)) + "\n{not json\n" + json.dumps({"format": "other/1"})
            + "\n[1, 2]\n"
        )
        rows, _, _, skipped = read_window_rows(path)
        assert len(rows) == 1
        # A foreign-format object is a well-formed row of something else
        # and is not counted; the non-JSON and the list line are.
        assert skipped == 2
        assert "2 unparseable rows skipped" in render_monitor(rows, skipped=skipped)
        assert "unparseable" not in render_monitor(rows)

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("")
        assert read_window_rows(path) == ([], None, 0, 0)


class TestEvaluateRules:
    def test_replays_streak_machine(self):
        rows = [
            row(0, on_time=5, late=5),   # breach 1
            row(1, on_time=5, late=5),   # breach 2: fires
            row(2, on_time=10, late=0),  # resolves
            row(3, on_time=5, late=5),   # breach again, streak restarts
        ]
        (state,) = evaluate_rules(["on_time_prob<0.75:2"], rows)
        assert not state.firing
        assert state.streak == 1
        assert state.breached_windows == 3
        assert state.fired_count == 1

    def test_final_state_matches_live_hub(self):
        # The same windows through a live hub and through the replay:
        # fire, resolve, then breach again (firing a second time).
        rules = ["on_time_prob<0.75:2", "queue_depth>4"]
        windows = [
            WindowStats(
                start=10.0 * i,
                end=10.0 * (i + 1),
                mapped=10,
                completed=10,
                on_time=on_time,
                late=10 - on_time,
                energy=500.0,
                in_system_end=depth,
            )
            for i, (on_time, depth) in enumerate(
                [(5, 3), (5, 5), (10, 5), (5, 3), (5, 3), (6, 9)]
            )
        ]
        tele = Telemetry(rules=rules)
        tele.configure(window=10.0)
        for n, stats in enumerate(windows, start=1):
            tele.on_window(stats)
            replayed = evaluate_rules(rules, [w.to_dict() for w in windows[:n]])
            assert [s.to_dict() for s in replayed] == [
                s.to_dict() for s in tele.rule_states
            ]
        assert [s.fired_count for s in tele.rule_states] == [2, 2]
        assert [s.firing for s in tele.rule_states] == [True, True]


class TestRenderMonitor:
    def test_empty_rows(self):
        assert render_monitor([]) == "no windows yet\n"

    def test_table_and_header(self):
        text = render_monitor([row(0), row(1)])
        assert "LL/en+rob [poisson] — 2 windows" in text
        assert "on-time" in text
        assert "steady state" not in text  # too few windows yet

    def test_tail_limits_rows_shown(self):
        text = render_monitor([row(i) for i in range(8)], tail=3)
        lines = [l for l in text.splitlines() if l.strip().startswith(("5", "6", "7"))]
        assert len(lines) == 3
        assert not any(l.strip().startswith("4 ") for l in text.splitlines())

    def test_steady_state_section_after_enough_windows(self):
        text = render_monitor([row(i) for i in range(MIN_STEADY_WINDOWS + 5)])
        assert "steady state (MSER-5 warm-up, batch-means CI)" in text
        assert "| on_time_prob" in text

    def test_slo_section_reports_firing(self):
        rows = [row(i, on_time=5, late=5) for i in range(3)]
        text = render_monitor(rows, rules=["on_time_prob<0.75:2"])
        assert "1 rule(s) FIRING" in text
        assert "[FIRING] on_time_prob<0.75:2" in text
        healthy = render_monitor(rows, rules=["on_time_prob<0.25"])
        assert "SLO health: OK" in healthy

    def test_trailer_notice(self):
        text = render_monitor([row(0)], trailer={"truncated": True})
        assert "truncated" in text


class TestScrape:
    @pytest.fixture()
    def server(self):
        tele = Telemetry()
        tele.configure(window=10.0)
        with TelemetryServer(tele, port=0) as server:
            yield server

    def test_bare_url_gets_metrics_appended(self, server):
        text = scrape(server.url)
        assert "repro_windows_total 0" in text

    def test_health_path_passes_through(self, server):
        doc = json.loads(scrape(f"{server.url}/health"))
        assert doc["healthy"] is True
