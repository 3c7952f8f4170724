"""Chaos integration tests: recovery must be bitwise invisible.

The acceptance bar for the resilience layer: an ensemble that survives
injected crashes, hangs, and corrupt results — checkpointing along the
way and resuming afterwards — produces **manifest trial digests bitwise
identical** to the fault-free serial run.  Supervision may change *when*
trials run, never *what* they compute.
"""

from __future__ import annotations

import pytest

from repro.experiments.chaos import FaultPlan
from repro.experiments.runner import (
    PartialEnsembleResult,
    VariantSpec,
    run_ensemble,
)
from repro.obs.events import CheckpointWritten, TrialQuarantined, TrialRetried
from repro.obs.manifest import build_manifest
from repro.obs.sinks import MetricsRegistry, RingBufferSink
from tests.conftest import micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"))
TRIALS = 3
BASE_SEED = 9


@pytest.fixture(scope="module")
def clean_manifest():
    """Fault-free serial ground truth for digest comparisons."""
    config = micro_config(seed=5)
    ensemble = run_ensemble(SPECS, config, TRIALS, BASE_SEED)
    return build_manifest(ensemble, config)


class TestChaosRecovery:
    def test_recovered_run_is_bitwise_identical(self, clean_manifest, tmp_path):
        """ISSUE acceptance: crash + hang + corrupt, checkpointed, resumed."""
        config = micro_config(seed=5)
        plan = FaultPlan.of((0, 1, "crash"), (1, 1, "hang"), (2, 1, "corrupt"))
        registry = MetricsRegistry()
        ring = RingBufferSink()
        shard = tmp_path / "chaos.jsonl"

        chaotic = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            checkpoint=shard,
            trial_timeout=5.0,
            backoff_base=0.0,
            fault_plan=plan,
            metrics=registry,
            sinks=(ring,),
        )

        assert not isinstance(chaotic, PartialEnsembleResult)
        assert (
            build_manifest(chaotic, config).trial_digests
            == clean_manifest.trial_digests
        )
        # Every injected fault was seen and recovered by a retry.
        assert registry.counter("executor.trials_retried") == 3
        assert registry.counter("executor.trials_quarantined") == 0
        assert registry.counter("executor.faults.crash") == 1
        assert registry.counter("executor.faults.timeout") == 1
        assert registry.counter("executor.faults.corrupt") == 1
        retried = [e for e in ring if isinstance(e, TrialRetried)]
        assert sorted((e.trial, e.fault) for e in retried) == [
            (0, "crash"),
            (1, "timeout"),
            (2, "corrupt"),
        ]
        checkpoints = [e for e in ring if isinstance(e, CheckpointWritten)]
        assert len(checkpoints) == TRIALS

        # Resume from the shard: nothing re-runs, digests still identical.
        resumed_metrics = MetricsRegistry()
        resumed = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            checkpoint=shard,
            resume=True,
            metrics=resumed_metrics,
        )
        assert (
            build_manifest(resumed, config).trial_digests
            == clean_manifest.trial_digests
        )
        assert resumed_metrics.counter("executor.trials_resumed") == TRIALS
        assert resumed_metrics.counter("executor.checkpoints_written") == 0

    def test_parallel_chaos_matches_serial(self, clean_manifest):
        config = micro_config(seed=5)
        plan = FaultPlan.of((0, 1, "error"), (2, 1, "crash"))
        chaotic = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            n_jobs=2,
            backoff_base=0.0,
            fault_plan=plan,
        )
        assert (
            build_manifest(chaotic, config).trial_digests
            == clean_manifest.trial_digests
        )

    def test_retry_order_does_not_leak_into_results(self, clean_manifest):
        # Fault trial 1 twice: it finishes last, yet fan-in stays sorted.
        config = micro_config(seed=5)
        plan = FaultPlan.of((1, 1, "error"), (1, 2, "error"))
        chaotic = run_ensemble(
            SPECS, config, TRIALS, BASE_SEED, backoff_base=0.0, fault_plan=plan
        )
        assert (
            build_manifest(chaotic, config).trial_digests
            == clean_manifest.trial_digests
        )

    def test_trial_is_resent_only_after_a_charged_fault(self):
        # A crash forfeits the crashed trial alone: no other trial is sent
        # twice, so every dispatch beyond the first per trial is a retry.
        plan = FaultPlan.of((0, 1, "crash"), (1, 1, "corrupt"), (2, 1, "error"))
        registry = MetricsRegistry()
        run_ensemble(
            SPECS, micro_config(seed=5), TRIALS, BASE_SEED,
            backoff_base=0.0, fault_plan=plan, metrics=registry,
        )
        retried = registry.counter("executor.trials_retried")
        assert retried == 3
        assert registry.counter("executor.trials_dispatched") == TRIALS + retried


class TestQuarantine:
    def test_poison_trial_yields_partial_result(self):
        config = micro_config(seed=5)
        # Trial 1 fails every allowed attempt (max_retries=2 -> 3 attempts).
        plan = FaultPlan.of((1, 1, "error"), (1, 2, "error"), (1, 3, "error"))
        registry = MetricsRegistry()
        ring = RingBufferSink()
        result = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            backoff_base=0.0,
            fault_plan=plan,
            metrics=registry,
            sinks=(ring,),
        )
        assert isinstance(result, PartialEnsembleResult)
        assert not result.is_complete()
        assert result.completed_trials == (0, 2)
        assert result.missing_trials == (1,)
        assert result.quarantined_trials == (1,)
        assert result.num_trials == TRIALS
        failure = result.failures[0]
        assert failure.trial == 1
        assert failure.attempts == 3
        assert failure.fault == "error"
        # Medians still computable over what completed.
        for spec in SPECS:
            assert result.misses(spec).shape == (2,)
        assert registry.counter("executor.trials_retried") == 2
        assert registry.counter("executor.trials_quarantined") == 1
        quarantined = [e for e in ring if isinstance(e, TrialQuarantined)]
        assert [(e.trial, e.attempts) for e in quarantined] == [(1, 3)]

    def test_hang_plan_requires_timeout(self):
        config = micro_config(seed=5)
        with pytest.raises(ValueError, match="trial_timeout"):
            run_ensemble(
                SPECS,
                config,
                TRIALS,
                BASE_SEED,
                fault_plan=FaultPlan.of((0, 1, "hang")),
            )

    def test_resume_requires_checkpoint(self):
        config = micro_config(seed=5)
        with pytest.raises(ValueError, match="checkpoint"):
            run_ensemble(SPECS, config, TRIALS, BASE_SEED, resume=True)


class TestResumeAfterQuarantine:
    def test_second_run_completes_the_quarantined_trial(self, clean_manifest, tmp_path):
        config = micro_config(seed=5)
        shard = tmp_path / "partial.jsonl"
        plan = FaultPlan.of((1, 1, "error"), (1, 2, "error"), (1, 3, "error"))
        first = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            checkpoint=shard,
            backoff_base=0.0,
            fault_plan=plan,
        )
        assert isinstance(first, PartialEnsembleResult)
        assert first.missing_trials == (1,)

        # Re-run with resume and no faults: only trial 1 executes.
        registry = MetricsRegistry()
        second = run_ensemble(
            SPECS,
            config,
            TRIALS,
            BASE_SEED,
            checkpoint=shard,
            resume=True,
            metrics=registry,
        )
        assert not isinstance(second, PartialEnsembleResult)
        assert registry.counter("executor.trials_resumed") == 2
        assert registry.counter("executor.checkpoints_written") == 1
        assert (
            build_manifest(second, config).trial_digests
            == clean_manifest.trial_digests
        )
