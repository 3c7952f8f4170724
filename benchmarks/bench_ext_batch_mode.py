"""Extension bench: immediate-mode (the paper) vs batch-mode mapping.

The paper constrains its manager to immediate mode (Section II); this
bench quantifies what that constraint costs by running batch-mode
Min-Min / Max-Min over the same trials as immediate-mode MECT and LL,
all under the paper's "en+rob" filters where applicable.
"""

from __future__ import annotations

import numpy as np

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro.extensions.batch_mode import run_batch_trial
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro import rng as rng_mod
from repro.sim.engine import Engine
from repro.sim.system import build_trial_system


def run_comparison() -> dict[str, float]:
    config = bench_config()
    trials = bench_trials()
    misses: dict[str, list[int]] = {
        "MECT/en+rob (immediate)": [],
        "LL/en+rob (immediate)": [],
        "Min-Min/en+rob (batch)": [],
        "Max-Min/en+rob (batch)": [],
    }
    for trial in range(trials):
        seed = rng_mod.spawn_trial_seed(bench_seed(), trial)
        system = build_trial_system(config.with_seed(seed))
        chain = build_filter_chain("en+rob", config.filters)
        misses["MECT/en+rob (immediate)"].append(
            Engine(system, build_heuristic("MECT"), chain).run().missed
        )
        misses["LL/en+rob (immediate)"].append(
            Engine(system, build_heuristic("LL"), chain).run().missed
        )
        misses["Min-Min/en+rob (batch)"].append(
            run_batch_trial(system, "min-min", build_filter_chain("en+rob", config.filters)).missed
        )
        misses["Max-Min/en+rob (batch)"].append(
            run_batch_trial(system, "max-min", build_filter_chain("en+rob", config.filters)).missed
        )
    rows = {name: float(np.median(vals)) for name, vals in misses.items()}
    lines = [
        f"batch vs immediate mode: median missed of {bench_tasks()} "
        f"({trials} trials)"
    ]
    for name, med in sorted(rows.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>26}: {med:7.1f}")
    emit("ext_batch_mode", "\n".join(lines))
    return rows


def test_batch_mode(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # Deferred commitment must be at least competitive with the
    # immediate-mode field on the shared trials.
    best_immediate = min(
        rows["MECT/en+rob (immediate)"], rows["LL/en+rob (immediate)"]
    )
    assert rows["Min-Min/en+rob (batch)"] <= best_immediate + 0.25 * bench_tasks()
