"""Tests for trace summarization (repro.analysis.trace_summary)."""

from __future__ import annotations

import math

from repro.analysis.trace_summary import (
    TraceSummary,
    summarize_trace,
    trace_summary_table,
)
from repro.obs.events import (
    CheckpointWritten,
    EnergyExhausted,
    TaskCompleted,
    TaskDiscarded,
    TaskMapped,
    TrialFinished,
    TrialQuarantined,
    TrialRetried,
    TrialStarted,
)

#: A second discard cause: the summary groups whatever cause a trace carries.
OTHER_CAUSE = "other"

EVENTS = [
    TrialStarted(seed=1, num_tasks=3, heuristic="LL", variant="en", budget=100.0),
    TaskMapped(
        t=0.5, task_id=0, type_id=1, core_id=0, pstate=2,
        energy_estimate=90.0, queue_depth=1.0,
    ),
    TaskMapped(
        t=1.0, task_id=1, type_id=0, core_id=3, pstate=2,
        energy_estimate=80.0, queue_depth=3.0,
    ),
    TaskDiscarded(t=1.5, task_id=2, type_id=2),
    TaskDiscarded(t=1.6, task_id=3, type_id=2, cause=OTHER_CAUSE),
    TaskCompleted(t=2.0, task_id=0, type_id=1, core_id=0),
    EnergyExhausted(t=9.0, budget=100.0),
    TrialFinished(
        makespan=9.5, missed=2, completed_within=1, discarded=2, late=0,
        energy_cutoff=1, total_energy=101.0,
    ),
]


class TestSummarizeTrace:
    def test_counts(self):
        s = summarize_trace(EVENTS)
        assert (s.trials, s.mapped, s.discarded, s.completed) == (1, 2, 2, 1)
        assert (s.exhaustions, s.finished) == (1, 1)

    def test_aggregates(self):
        s = summarize_trace(EVENTS)
        assert s.mean_queue_depth == 2.0
        assert s.last_energy_estimate == 80.0
        assert s.pstate_counts == {2: 2}
        assert s.discard_causes == {"empty_feasible_set": 1, OTHER_CAUSE: 1}
        assert s.discard_fraction == 0.5

    def test_empty_trace(self):
        s = summarize_trace([])
        assert s == TraceSummary()
        assert math.isnan(s.mean_queue_depth)
        assert math.isnan(s.discard_fraction)

    def test_accepts_any_iterable(self):
        assert summarize_trace(iter(EVENTS)).mapped == 2


class TestTraceSummaryTable:
    def test_table_rows(self):
        table = trace_summary_table(EVENTS)
        assert "tasks mapped" in table
        assert "discards[empty_feasible_set]" in table
        assert f"discards[{OTHER_CAUSE}]" in table
        assert "mappings[P2]" in table
        assert "mean queue depth at mapping" in table

    def test_empty_trace_table_omits_nan_rows(self):
        table = trace_summary_table([])
        assert "nan" not in table
        assert "tasks mapped" in table


RECOVERY_EVENTS = EVENTS + [
    TrialRetried(trial=0, attempt=1, fault="crash", delay=0.25),
    TrialRetried(trial=2, attempt=1, fault="corrupt", delay=0.5),
    TrialQuarantined(trial=2, attempts=3, fault="corrupt"),
    CheckpointWritten(trial=0, path="run.jsonl", records=1),
]


class TestRecoveryRows:
    def test_recovery_counts(self):
        s = summarize_trace(RECOVERY_EVENTS)
        assert s.retries == 2
        assert s.quarantines == 1
        assert s.checkpoints == 1
        assert s.fault_kinds == {"crash": 1, "corrupt": 2}

    def test_recovery_rows_render(self):
        table = trace_summary_table(RECOVERY_EVENTS)
        assert "trial retries" in table
        assert "trials quarantined" in table
        assert "checkpoint records" in table
        assert "faults[crash]" in table
        assert "faults[corrupt]" in table

    def test_clean_trace_omits_recovery_rows(self):
        table = trace_summary_table(EVENTS)
        assert "retries" not in table
        assert "quarantined" not in table
        assert "faults[" not in table
