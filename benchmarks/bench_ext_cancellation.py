"""Extension bench: abandoning hopeless queued tasks.

Section VIII's "cancel ... tasks" direction.  Under the baseline model a
task that can no longer meet its deadline still occupies its core to
completion, wasting time and energy.  This bench measures how much the
:class:`~repro.extensions.cancellation.AbandonHopelessPolicy` recovers
for the unfiltered Random mapper — the policy whose mismapped bursts
leave the most hopeless work in queues — across cancellation thresholds.
"""

from __future__ import annotations

import numpy as np

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro import rng as rng_mod
from repro.extensions.cancellation import AbandonHopelessPolicy
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.sim.engine import run_trial
from repro.sim.system import build_trial_system

THRESHOLDS = (None, 0.02, 0.10, 0.25)


def run_comparison() -> dict[str, float]:
    config = bench_config()
    trials = bench_trials()
    misses: dict[str, list[int]] = {}
    cancelled: dict[str, int] = {}
    for trial in range(trials):
        seed = rng_mod.spawn_trial_seed(bench_seed(), trial)
        system = build_trial_system(config.with_seed(seed))
        for thresh in THRESHOLDS:
            label = "no cancel" if thresh is None else f"cancel<{thresh}"
            hooks = None if thresh is None else AbandonHopelessPolicy(thresh)
            result = run_trial(
                system,
                # Same stream key for every threshold: all variants see
                # identical random assignment draws (paired comparison).
                build_heuristic("Random", rng_mod.stream(seed, "cancel-bench")),
                build_filter_chain("none", config.filters),
                hooks=hooks,
            )
            misses.setdefault(label, []).append(result.missed)
            if hooks is not None:
                cancelled[label] = cancelled.get(label, 0) + len(hooks.cancelled)

    rows = {name: float(np.median(vals)) for name, vals in misses.items()}
    lines = [
        f"cancellation extension: Random/none, median missed of {bench_tasks()} "
        f"({trials} trials)"
    ]
    for label in misses:
        extra = f"   cancelled={cancelled[label]}" if label in cancelled else ""
        lines.append(f"  {label:>12}: {rows[label]:7.1f}{extra}")
    emit("ext_cancellation", "\n".join(lines))
    return rows


def test_cancellation(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # Cancelling truly hopeless work must not hurt the headline metric.
    assert rows["cancel<0.02"] <= rows["no cancel"] + 0.05 * bench_tasks()
