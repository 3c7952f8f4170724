"""Tests for profile/timeline/metrics report rendering (repro.analysis.profile_report)."""

from __future__ import annotations

import pytest

from repro.analysis.profile_report import (
    metrics_tables,
    profile_table,
    span_summary,
    timeline_table,
)
from repro.obs.sinks import MetricsRegistry
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.timeline import TimelineSet


def x_event(name, ts, dur, pid=0, tid=0):
    return {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": pid, "tid": tid}


class TestSpanSummary:
    def test_self_time_reconstructed_from_nesting(self):
        events = [
            x_event("parent", 0.0, 100.0),
            x_event("child", 10.0, 30.0),
            x_event("child", 50.0, 20.0),
        ]
        by_name = {s.name: s for s in span_summary(events)}
        assert by_name["parent"].total_us == pytest.approx(100.0)
        assert by_name["parent"].self_us == pytest.approx(50.0)
        assert by_name["child"].count == 2
        assert by_name["child"].self_us == pytest.approx(50.0)

    def test_grandchild_charged_to_direct_parent_only(self):
        events = [
            x_event("a", 0.0, 100.0),
            x_event("b", 10.0, 50.0),
            x_event("c", 20.0, 10.0),
        ]
        by_name = {s.name: s for s in span_summary(events)}
        assert by_name["a"].self_us == pytest.approx(50.0)
        assert by_name["b"].self_us == pytest.approx(40.0)
        assert by_name["c"].self_us == pytest.approx(10.0)

    def test_tracks_are_independent(self):
        # Overlapping intervals on different (pid, tid) tracks don't nest.
        events = [x_event("a", 0.0, 100.0, pid=0), x_event("b", 10.0, 30.0, pid=1)]
        by_name = {s.name: s for s in span_summary(events)}
        assert by_name["a"].self_us == pytest.approx(100.0)
        assert by_name["b"].self_us == pytest.approx(30.0)

    def test_sorted_by_total_then_name(self):
        events = [
            x_event("bb", 0.0, 10.0),
            x_event("aa", 20.0, 10.0),
            x_event("zz", 40.0, 50.0),
        ]
        assert [s.name for s in span_summary(events)] == ["zz", "aa", "bb"]

    def test_ignores_metadata_and_malformed_events(self):
        events = [
            {"ph": "M", "name": "process_name", "pid": 0},
            {"ph": "X", "name": "no-ts"},
            x_event("ok", 0.0, 1.0),
        ]
        assert [s.name for s in span_summary(events)] == ["ok"]

    def test_agrees_with_recorder_self_time(self):
        # End-to-end: interval reconstruction matches what the recorder
        # itself computed and embedded in args.self_us.
        clock_t = iter([0.0, 1.0, 4.0, 10.0])
        rec = SpanRecorder(clock=lambda: next(clock_t))
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        profile = SpanProfile()
        profile.add_stream(rec)
        events = profile.to_chrome_trace()["traceEvents"]
        by_name = {s.name: s for s in span_summary(events)}
        assert by_name["outer"].self_us == pytest.approx(7e6)
        assert by_name["inner"].self_us == pytest.approx(3e6)


class TestProfileTable:
    def test_renders_markdown(self):
        table = profile_table([x_event("engine.arrival", 0.0, 1500.0)])
        assert "| span" in table.splitlines()[0]
        assert "engine.arrival" in table
        assert "1.500 ms" in table

    def test_limit_truncates(self):
        events = [x_event(f"s{i}", i * 10.0, 1.0) for i in range(5)]
        table = profile_table(events, limit=2)
        assert len(table.splitlines()) == 2 + 2  # header + rule + 2 rows


class TestTimelineTable:
    def test_digest_rows(self):
        tls = TimelineSet(1.0)
        tls.add(
            {
                "stream": 0,
                "label": "trial0:SQ/none",
                "dt": 1.0,
                "num_nodes": 2,
                "t": [0.0, 1.0, 2.0],
                "busy_cores": [1, 3, 2],
                "energy_estimate": [9.0, 8.0, 7.0],
                "completed": [0, 2, 5],
                "discarded": [0, 0, 1],
                "node_depth": [[1, 0], [2, 2], [1, 1]],
            }
        )
        table = timeline_table(tls)
        row = table.splitlines()[-1]
        assert "trial0:SQ/none" in row
        for cell in ("3", "2", "3", "4", "5", "1"):
            assert cell in row


class TestMetricsTables:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("stoch.ops.convolve", 7)
        reg.observe("queue_depth", 2.0, (1.0, 4.0))
        text = metrics_tables(reg.to_dict())
        assert "## Counters" in text and "## Histograms" in text
        assert "stoch.ops.convolve" in text and "| 7" in text
        assert "queue_depth" in text

    def test_empty_registry(self):
        assert "empty" in metrics_tables(MetricsRegistry().to_dict())

    def test_cache_table_attributes_per_spec(self):
        reg = MetricsRegistry()
        reg.inc("perf.cache.hits", 90)
        reg.inc("perf.cache.misses", 10)
        reg.inc("perf.cache.hits.LL/en+rob", 60)
        reg.inc("perf.cache.misses.LL/en+rob", 10)
        reg.inc("perf.cache.hits.SQ/none", 30)
        reg.inc("perf.cache.misses.SQ/none", 0)
        text = metrics_tables(reg.to_dict())
        assert "## Kernel cache" in text
        lines = {line.split("|")[1].strip(): line for line in text.splitlines() if "|" in line}
        assert "85.7%" in lines["LL/en+rob"]
        assert "100.0%" in lines["SQ/none"]
        assert "90.0%" in lines["(total)"]
        # Rendered in the derived table only, not the generic dump.
        assert "## Counters" not in text

    def test_executor_table_lists_every_counter(self):
        reg = MetricsRegistry()
        reg.inc("executor.trials_dispatched", 10)
        reg.inc("executor.trials_retried", 2)
        reg.inc("executor.faults.crash", 1)
        text = metrics_tables(reg.to_dict())
        assert "## Executor" in text
        rows = {
            line.split("|")[1].strip(): line.split("|")[2].strip()
            for line in text.splitlines()
            if line.startswith("|")
        }
        assert rows["trials dispatched"] == "10"
        assert rows["trials retried"] == "2"
        assert rows["faults.crash"] == "1"

    def test_faults_table_groups_families(self):
        reg = MetricsRegistry()
        reg.inc("faults.fail.node_outage", 2)
        reg.inc("faults.recover.node_outage", 2)
        reg.inc("tasks_orphaned.remapped", 5)
        reg.inc("tasks_orphaned.lost", 1)
        reg.inc("tasks_shed.queue_depth", 7)
        reg.inc("tasks_deferred", 3)
        text = metrics_tables(reg.to_dict())
        assert "## Faults / shedding" in text
        assert "fail node_outage" in text
        assert "remapped" in text and "| 5" in text
        assert "queue_depth" in text and "| 7" in text
        assert "retry pushes" in text and "| 3" in text
        # Claimed by the derived table: kept out of the generic dump.
        assert "## Counters" not in text

    def test_fault_counters_excluded_from_generic_dump(self):
        reg = MetricsRegistry()
        reg.inc("trials_run", 4)
        reg.inc("tasks_shed.queue_depth", 2)
        text = metrics_tables(reg.to_dict())
        counters_section = text.split("## Faults / shedding")[0]
        assert "trials_run" in counters_section
        assert "tasks_shed.queue_depth" not in counters_section

    def test_no_fault_counters_no_fault_table(self):
        reg = MetricsRegistry()
        reg.inc("trials_run", 1)
        assert "## Faults" not in metrics_tables(reg.to_dict())

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            metrics_tables({"format": "repro.spans/1"})
