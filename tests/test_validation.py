"""Tests for post-run validation (repro.validation)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import build_trial_system
from repro.faults import SheddingConfig
from repro.filters.chain import build_filter_chain
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.sim.engine import Engine
from repro.sim.results import TaskOutcome
from repro.validation import ValidationError, validate_trial
from tests.conftest import small_config, tiny_config


@pytest.fixture(scope="module")
def clean_run(tiny_system):
    engine = Engine(tiny_system, LightestLoad(), build_filter_chain("en+rob"))
    return engine, engine.run()


@pytest.fixture(scope="module")
def tight_run():
    """``clean_run`` on half the energy budget: it discards tasks and
    finishes some late, the cases a recount or discard check needs."""
    system = build_trial_system(tiny_config().with_updates(energy={"budget_mult": 0.5}))
    engine = Engine(system, LightestLoad(), build_filter_chain("en+rob"))
    return system, engine.run()


class TestCleanTrialsValidate:
    def test_baseline(self, tiny_system, clean_run):
        engine, result = clean_run
        validate_trial(tiny_system, result, engine)

    def test_with_dispatch_floor(self):
        # Two nodes under bursts at 10x the equilibrium rate: queues
        # build up and the floor drops tasks at dispatch.
        system = build_trial_system(
            small_config(seed=17).with_updates(
                cluster={"num_nodes": 2}, workload={"fast_ratio": 10.0}
            )
        )
        engine = Engine(
            system,
            MinimumExpectedCompletionTime(),
            build_filter_chain("none"),
            shedding=SheddingConfig(dispatch_prob=0.25),
        )
        result = engine.run()
        assert engine.fault_stats.lost > 0, "the floor dropped nothing"
        validate_trial(system, result, engine)

    def test_batch_engine_output_validates(self, tiny_system):
        from repro.extensions.batch_mode import run_batch_trial

        result = run_batch_trial(tiny_system, "min-min", build_filter_chain("en"))
        validate_trial(tiny_system, result)  # no engine: outcome-level only


def _corrupt_outcome(result, index: int, **changes):
    outcomes = list(result.outcomes)
    outcomes[index] = replace(outcomes[index], **changes)
    return replace(result, outcomes=tuple(outcomes))


class TestCorruptionDetected:
    def test_wrong_outcome_count(self, tiny_system, clean_run):
        _, result = clean_run
        bad = replace(result, outcomes=result.outcomes[:-1])
        with pytest.raises(ValidationError):
            validate_trial(tiny_system, bad)

    def test_time_travel_start(self, tiny_system, clean_run):
        _, result = clean_run
        idx = next(i for i, o in enumerate(result.outcomes) if not o.discarded)
        bad = _corrupt_outcome(result, idx, start=result.outcomes[idx].arrival - 50.0)
        with pytest.raises(ValidationError, match="started before arrival"):
            validate_trial(tiny_system, bad)

    def test_duration_outside_support(self, tiny_system, clean_run):
        _, result = clean_run
        # Shorten a counted task's duration below its pmf's support: the
        # task stays on time and within budget (so the recount still
        # closes) but the duration is impossible.
        idx = next(
            i
            for i, o in enumerate(result.outcomes)
            if not o.discarded
            and o.on_time()
            and o.completion <= result.exhaustion_time
        )
        o = result.outcomes[idx]
        node = int(tiny_system.cluster.core_node_index[o.core_id])
        pmf = tiny_system.table.pmf(o.type_id, node, o.pstate)
        bad = _corrupt_outcome(result, idx, completion=o.start + pmf.start / 2)
        with pytest.raises(ValidationError, match="outside"):
            validate_trial(tiny_system, bad)

    def test_overlapping_executions(self, tiny_system, clean_run):
        _, result = clean_run
        by_core: dict[int, list[int]] = {}
        for i, o in enumerate(result.outcomes):
            if not o.discarded:
                by_core.setdefault(o.core_id, []).append(i)
        core, indices = next(
            (c, idx) for c, idx in by_core.items() if len(idx) >= 2
        )
        first, second = indices[0], indices[1]
        o1 = result.outcomes[first]
        # Shift the second execution into the first one's interval but
        # keep its duration on the pmf support by moving start AND end.
        o2 = result.outcomes[second]
        dur = o2.completion - o2.start
        bad = _corrupt_outcome(
            result, second, start=o1.start, completion=o1.start + dur
        )
        with pytest.raises(ValidationError):
            validate_trial(tiny_system, bad)

    def test_inconsistent_recount(self, tight_run):
        system, result = tight_run
        # Claim one fewer late / one more within than reality (keeps the
        # dataclass-level checks satisfied, so only validate_trial sees it).
        assert result.late > 0, "the tight budget left no late task to misattribute"
        bad = replace(
            result,
            missed=result.missed - 1,
            late=result.late - 1,
            completed_within=result.completed_within + 1,
        )
        with pytest.raises(ValidationError, match="recount"):
            validate_trial(system, bad)

    def test_energy_mismatch_with_engine(self, tiny_system, clean_run):
        engine, result = clean_run
        bad = replace(result, total_energy=result.total_energy * 2.0)
        with pytest.raises(ValidationError, match="energy mismatch"):
            validate_trial(tiny_system, bad, engine)

    def test_discarded_with_assignment(self, tight_run):
        system, result = tight_run
        idx = next(
            (i for i, o in enumerate(result.outcomes) if o.discarded), None
        )
        assert idx is not None, "the tight budget discarded no task"
        bad = _corrupt_outcome(result, idx, core_id=0)
        with pytest.raises(ValidationError, match="carries an assignment"):
            validate_trial(system, bad)
