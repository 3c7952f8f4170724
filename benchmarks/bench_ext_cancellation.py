"""Extension bench: dropping hopeless queued tasks at dispatch.

Section VIII's "cancel ... tasks" direction.  Under the baseline model a
task that can no longer meet its deadline still occupies its core to
completion, wasting time and energy.  This bench measures how much the
engine's dispatch floor (``SheddingConfig(dispatch_prob=...)``: a freed
core drops each queued task whose on-time probability if started now is
below the floor) recovers for the unfiltered Random mapper — the policy
whose mismapped bursts leave the most hopeless work in queues — across
floors.
"""

from __future__ import annotations

import numpy as np

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro import rng as rng_mod
from repro.faults import SheddingConfig
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.sim.engine import Engine
from repro.sim.system import build_trial_system

THRESHOLDS = (None, 0.02, 0.10, 0.25)


def run_comparison() -> dict[str, float]:
    config = bench_config()
    trials = bench_trials()
    misses: dict[str, list[int]] = {}
    dropped: dict[str, int] = {}
    for trial in range(trials):
        seed = rng_mod.spawn_trial_seed(bench_seed(), trial)
        system = build_trial_system(config.with_seed(seed))
        for thresh in THRESHOLDS:
            label = "no cancel" if thresh is None else f"cancel<{thresh}"
            engine = Engine(
                system,
                # Same stream key for every threshold: all variants see
                # identical random assignment draws (paired comparison).
                build_heuristic("Random", rng_mod.stream(seed, "cancel-bench")),
                build_filter_chain("none", config.filters),
                shedding=None if thresh is None else SheddingConfig(dispatch_prob=thresh),
            )
            misses.setdefault(label, []).append(engine.run().missed)
            if thresh is not None:
                dropped[label] = dropped.get(label, 0) + engine.fault_stats.lost

    rows = {name: float(np.median(vals)) for name, vals in misses.items()}
    lines = [
        f"cancellation extension: Random/none, median missed of {bench_tasks()} "
        f"({trials} trials)"
    ]
    for label in misses:
        extra = f"   dropped={dropped[label]}" if label in dropped else ""
        lines.append(f"  {label:>12}: {rows[label]:7.1f}{extra}")
    emit("ext_cancellation", "\n".join(lines))
    return rows


def test_cancellation(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # Cancelling truly hopeless work must not hurt the headline metric.
    assert rows["cancel<0.02"] <= rows["no cancel"] + 0.05 * bench_tasks()
