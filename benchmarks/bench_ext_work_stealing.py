"""Extension bench: what does rescheduling (work stealing) buy?

Section VIII asks about "a system with the ability to cancel and/or
reschedule tasks".  This bench runs the filtered Random mapper (the
policy with the worst load balance, hence the most to gain) with and
without the :class:`~repro.extensions.rescheduling.WorkStealingPolicy`,
plus filtered LL as the engineered reference point.
"""

from __future__ import annotations

import numpy as np

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro import rng as rng_mod
from repro.extensions.rescheduling import WorkStealingPolicy
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.sim.engine import run_trial
from repro.sim.system import build_trial_system


def run_comparison() -> dict[str, float]:
    config = bench_config()
    trials = bench_trials()
    misses: dict[str, list[int]] = {
        "Random/rob": [],
        "Random/rob + steal": [],
        "LL/en+rob": [],
    }
    steals_total = 0
    for trial in range(trials):
        seed = rng_mod.spawn_trial_seed(bench_seed(), trial)
        system = build_trial_system(config.with_seed(seed))

        def rand():
            return build_heuristic("Random", rng_mod.stream(seed, "ws-bench"))

        base = run_trial(system, rand(), build_filter_chain("rob", config.filters))
        policy = WorkStealingPolicy()
        stolen = run_trial(
            system, rand(), build_filter_chain("rob", config.filters), hooks=policy
        )
        ll = run_trial(
            system,
            build_heuristic("LL"),
            build_filter_chain("en+rob", config.filters),
        )
        misses["Random/rob"].append(base.missed)
        misses["Random/rob + steal"].append(stolen.missed)
        misses["LL/en+rob"].append(ll.missed)
        steals_total += len(policy.steals)

    rows = {name: float(np.median(vals)) for name, vals in misses.items()}
    lines = [
        f"work-stealing extension: median missed of {bench_tasks()} "
        f"({trials} trials; {steals_total} total steals)"
    ]
    for name, med in rows.items():
        lines.append(f"  {name:>20}: {med:7.1f}")
    emit("ext_work_stealing", "\n".join(lines))
    rows["total_steals"] = float(steals_total)
    return rows


def test_work_stealing(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # Rescheduling must not make the load-blind mapper worse.
    assert rows["Random/rob + steal"] <= rows["Random/rob"] + 0.05 * bench_tasks()
