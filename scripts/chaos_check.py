#!/usr/bin/env python
"""Assert that fault recovery is bitwise invisible (CI chaos job).

Runs a small ensemble three ways and compares manifest trial digests:

1. clean, serial — the ground truth;
2. under an injected fault plan (worker crash, hang, corrupt result)
   with checkpointing and a per-trial timeout — every fault must be
   recovered by a retry, never by re-seeding or skipping;
3. resumed from the checkpoint shard — no trial re-runs, digests of the
   restored results must still match.

Exits nonzero (with a diagnostic) on any digest mismatch, any
quarantined trial, unexpected retry counts, or a trial dispatched again
without a charged fault (dispatches must equal trials + retries).

Usage:
    python scripts/chaos_check.py [--tasks 60] [--trials 3] [--seed 5]
        [--plan "0:1:crash,1:1:hang,2:1:corrupt"] [--trial-timeout 30]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro import SimulationConfig
from repro.experiments.chaos import parse_fault_plan
from repro.experiments.runner import PartialEnsembleResult, VariantSpec, run_ensemble
from repro.obs.manifest import build_manifest
from repro.obs.sinks import MetricsRegistry

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tasks", type=int, default=60)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--plan",
        default="0:1:crash,1:1:hang,2:1:corrupt",
        help="fault plan as trial:attempt:kind triples",
    )
    parser.add_argument("--trial-timeout", type=float, default=30.0)
    args = parser.parse_args()

    plan = parse_fault_plan(args.plan)
    config = SimulationConfig(seed=args.seed)
    if args.tasks != config.workload.num_tasks:
        config = replace(config, workload=config.workload.with_num_tasks(args.tasks))

    print(f"clean run: {len(SPECS)} specs x {args.trials} trials x {args.tasks} tasks")
    clean = build_manifest(
        run_ensemble(SPECS, config, args.trials, args.seed), config
    )

    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        shard = Path(tmp) / "chaos.ckpt.jsonl"
        print(f"chaos run: plan={args.plan!r} timeout={args.trial_timeout}s")
        registry = MetricsRegistry()
        chaotic = run_ensemble(
            SPECS,
            config,
            args.trials,
            args.seed,
            checkpoint=shard,
            trial_timeout=args.trial_timeout,
            backoff_base=0.0,
            fault_plan=plan,
            metrics=registry,
        )
        faults = len(plan.faults)
        retried = registry.counter("executor.trials_retried")
        quarantined = registry.counter("executor.trials_quarantined")
        dispatched = registry.counter("executor.trials_dispatched")
        print(f"  retried={retried} quarantined={quarantined} dispatched={dispatched}")
        if isinstance(chaotic, PartialEnsembleResult):
            problems.append(f"chaos run lost trials: {chaotic.missing_trials}")
        if retried != faults:
            problems.append(f"expected {faults} retries, saw {retried}")
        # A trial is re-sent only after a fault was charged to it.
        if dispatched != args.trials + retried:
            problems.append(
                f"expected {args.trials} + {retried} dispatches, saw {dispatched}"
            )
        if quarantined:
            problems.append(f"{quarantined} trials quarantined; expected 0")
        if build_manifest(chaotic, config).trial_digests != clean.trial_digests:
            problems.append("chaos-run digests differ from the clean run")

        print("resume run: restoring every trial from the checkpoint shard")
        resumed_registry = MetricsRegistry()
        resumed = run_ensemble(
            SPECS,
            config,
            args.trials,
            args.seed,
            checkpoint=shard,
            resume=True,
            metrics=resumed_registry,
        )
        restored = resumed_registry.counter("executor.trials_resumed")
        print(f"  resumed={restored}")
        if restored != args.trials:
            problems.append(f"expected {args.trials} resumed trials, saw {restored}")
        if build_manifest(resumed, config).trial_digests != clean.trial_digests:
            problems.append("resumed-run digests differ from the clean run")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("OK: recovered and resumed runs are bitwise identical to the clean run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
