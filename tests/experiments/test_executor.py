"""Tests for the supervised execution layer (repro.experiments.executor)."""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.chaos import FaultPlan, parse_fault_plan
from repro.experiments.executor import (
    CHECKPOINT_FORMAT,
    CheckpointWriter,
    RetryPolicy,
    TrialFailure,
    load_checkpoint,
    run_supervised,
)
from repro.experiments.runner import VariantSpec
from repro.obs.events import TrialQuarantined, TrialRetried
from repro.obs.manifest import config_digest
from repro.obs.sinks import MetricsRegistry
from tests.conftest import micro_config


# Top-level so worker processes can resolve them by reference.
def _square(x: int) -> int:
    return x * x


def _sleep_forever(x: float) -> float:
    time.sleep(x)
    return x


def _fail(x: int) -> int:
    raise RuntimeError(f"always fails ({x})")


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff_base=0.5)
        assert policy.delay(9, 3, 1) == policy.delay(9, 3, 1)

    def test_delay_varies_with_attempt_and_trial(self):
        policy = RetryPolicy(backoff_base=0.5)
        delays = {policy.delay(9, t, a) for t in (0, 1) for a in (1, 2)}
        assert len(delays) == 4

    def test_exponential_shape_with_jitter_bounds(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=100.0)
        for attempt in (1, 2, 3):
            raw = 0.5 * 2.0 ** (attempt - 1)
            delay = policy.delay(0, 0, attempt)
            assert 0.5 * raw <= delay < raw

    def test_cap_bounds_delay(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=2.0)
        assert policy.delay(0, 0, 10) <= 2.0

    def test_zero_base_means_no_backoff(self):
        assert RetryPolicy(backoff_base=0.0).delay(0, 0, 1) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_retries": -1}, {"backoff_base": -0.1}, {"backoff_cap": -1.0}],
    )
    def test_rejects_negative_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestFaultPlan:
    def test_fault_for(self):
        plan = FaultPlan.of((0, 1, "crash"), (2, 2, "hang"))
        assert plan.fault_for(0, 1) == "crash"
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(2, 2) == "hang"

    def test_needs_timeout_only_for_hangs(self):
        assert FaultPlan.of((0, 1, "hang")).needs_timeout()
        assert not FaultPlan.of((0, 1, "crash")).needs_timeout()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.of((0, 1, "gremlin"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.of((0, 1, "crash"), (0, 1, "hang"))

    def test_rejects_zero_attempt(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan.of((0, 0, "crash"))

    def test_parse_round_trip(self):
        plan = parse_fault_plan("0:1:crash, 2:1:hang")
        assert plan == FaultPlan.of((0, 1, "crash"), (2, 1, "hang"))

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="trial:attempt:kind"):
            parse_fault_plan("0:crash")


class TestRunSupervised:
    def test_runs_every_payload(self):
        done, failures = run_supervised(
            _square, {i: i for i in range(5)}, base_seed=0, n_jobs=3
        )
        assert failures == []
        assert done == {i: i * i for i in range(5)}

    def test_rejects_nonpositive_n_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            run_supervised(_square, {0: 1}, base_seed=0, n_jobs=0)

    def test_empty_payloads(self):
        assert run_supervised(_square, {}, base_seed=0, n_jobs=2) == ({}, [])

    def test_timeout_quarantines_unkillable_hang(self):
        registry = MetricsRegistry()
        events = []
        done, failures = run_supervised(
            _sleep_forever,
            {0: 30.0},
            base_seed=0,
            n_jobs=1,
            trial_timeout=0.3,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
            on_event=events.append,
            metrics=registry,
        )
        assert done == {}
        assert len(failures) == 1
        assert failures[0].fault == "timeout"
        assert failures[0].attempts == 2
        assert registry.counter("executor.trials_retried") == 1
        assert registry.counter("executor.trials_quarantined") == 1
        assert registry.counter("executor.faults.timeout") == 2
        kinds = [type(e) for e in events]
        assert kinds == [TrialRetried, TrialQuarantined]

    def test_persistent_error_quarantines_without_killing_others(self):
        done, failures = run_supervised(
            _fail,
            {0: 1, 1: 2},
            base_seed=0,
            n_jobs=2,
            retry=RetryPolicy(max_retries=1, backoff_base=0.0),
        )
        assert done == {}
        assert {f.trial for f in failures} == {0, 1}
        assert all("always fails" in f.detail for f in failures)

    def test_on_result_fires_per_completion(self):
        seen: dict[int, int] = {}
        run_supervised(
            _square, {i: i for i in range(4)}, base_seed=0, n_jobs=2,
            on_result=lambda t, v: seen.__setitem__(t, v),
        )
        assert seen == {i: i * i for i in range(4)}


@pytest.fixture()
def shard(tmp_path):
    """A two-trial checkpoint shard plus its key, built from real trials."""
    config = micro_config(seed=5)
    digest = config_digest(config)
    specs = (VariantSpec("LL", "none"),)
    labels = [s.label for s in specs]
    from repro import api, build_trial_system
    from repro import rng as rng_mod

    path = tmp_path / "shard.jsonl"
    writer = CheckpointWriter(
        path, config_digest=digest, base_seed=9, spec_labels=labels
    )
    results = {}
    for trial in (0, 1):
        seed = rng_mod.spawn_trial_seed(9, trial)
        system = build_trial_system(config.with_seed(seed))
        scenario = api.Scenario(specs[0].heuristic, specs[0].variant)
        results[trial] = [api.run_trial(scenario, system=system)]
        writer.write(trial, results[trial], None)
    writer.close()
    return {
        "path": path,
        "digest": digest,
        "labels": labels,
        "results": results,
    }


def _load(shard, **overrides):
    kwargs = dict(
        config_digest=shard["digest"],
        base_seed=9,
        spec_labels=shard["labels"],
        num_trials=5,
    )
    kwargs.update(overrides)
    return load_checkpoint(shard["path"], **kwargs)


class TestCheckpointRoundTrip:
    def test_restores_written_trials(self, shard):
        restored, notes = _load(shard)
        assert notes == []
        assert set(restored) == {0, 1}
        for trial in (0, 1):
            results, metrics_dict = restored[trial]
            assert results == shard["results"][trial]
            assert metrics_dict is None

    def test_records_are_format_tagged(self, shard):
        first = json.loads(shard["path"].read_text().splitlines()[0])
        assert first["format"] == CHECKPOINT_FORMAT
        assert first["config_digest"] == shard["digest"]

    def test_missing_shard_restores_nothing(self, shard, tmp_path):
        restored, notes = load_checkpoint(
            tmp_path / "absent.jsonl",
            config_digest=shard["digest"],
            base_seed=9,
            spec_labels=shard["labels"],
            num_trials=5,
        )
        assert restored == {} and notes == []

    def test_later_duplicate_record_wins(self, shard):
        lines = shard["path"].read_text().splitlines()
        shard["path"].write_text("\n".join(lines + [lines[0]]) + "\n")
        restored, notes = _load(shard)
        assert set(restored) == {0, 1}

    def test_foreign_run_records_ignored_with_note(self, shard):
        with pytest.warns(RuntimeWarning, match="different run"):
            restored, notes = _load(shard, config_digest="0" * 64)
        assert restored == {}
        assert len(notes) == 2

    def test_wrong_spec_grid_ignored(self, shard):
        with pytest.warns(RuntimeWarning, match="different run"):
            restored, _ = _load(shard, spec_labels=["LL/en+rob"])
        assert restored == {}

    def test_out_of_range_trial_ignored(self, shard):
        with pytest.warns(RuntimeWarning, match="out of range"):
            restored, _ = _load(shard, num_trials=1)
        assert set(restored) == {0}


class TestCheckpointCorruption:
    def test_truncated_final_line_dropped_with_warning(self, shard):
        # Simulate a process killed mid-write: final line cut in half.
        text = shard["path"].read_text()
        lines = text.splitlines()
        shard["path"].write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        with pytest.warns(RuntimeWarning, match="truncated"):
            restored, notes = _load(shard)
        assert set(restored) == {0}
        assert any("re-run" in note for note in notes)

    def test_tampered_result_fails_digest_check(self, shard):
        lines = shard["path"].read_text().splitlines()
        record = json.loads(lines[1])
        record["results"][0]["total_energy"] += 1.0
        lines[1] = json.dumps(record, sort_keys=True)
        shard["path"].write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="digest mismatch"):
            restored, _ = _load(shard)
        assert set(restored) == {0}

    def test_non_checkpoint_lines_skipped(self, shard):
        shard["path"].write_text(
            json.dumps({"format": "something/else"}) + "\n" + shard["path"].read_text()
        )
        with pytest.warns(RuntimeWarning, match="not a repro.checkpoint/1"):
            restored, _ = _load(shard)
        assert set(restored) == {0, 1}


class TestTrialFailure:
    def test_carries_post_mortem(self):
        failure = TrialFailure(trial=3, attempts=4, fault="crash", detail="boom")
        assert failure.trial == 3
        assert failure.fault == "crash"
