"""Extended comparison: the paper's heuristics vs four more classics.

Puts the literature baselines of :mod:`repro.extensions.baselines`
(MET, OLB, KPB, MEEC) through the same filtered evaluation as the
paper's four, testing the paper's thesis out of sample: if the filters
drive performance, even load-blind MET or deadline-blind MEEC should be
competitive once filtered.
"""

from __future__ import annotations

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro import rng as rng_mod
from repro.extensions.baselines import make_extended_heuristic
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.sim.engine import Engine
from repro.sim.system import build_trial_system

import numpy as np

ALL = ("SQ", "MECT", "LL", "Random", "MET", "OLB", "KPB", "MEEC")
VARIANT = "en+rob"


def _make(name: str, seed: int):
    if name in ("SQ", "MECT", "LL", "Random"):
        return build_heuristic(name, rng_mod.stream(seed, "heuristic", name))
    return make_extended_heuristic(name)


def run_comparison() -> dict[str, float]:
    config = bench_config()
    trials = bench_trials()
    misses: dict[str, list[int]] = {name: [] for name in ALL}
    for trial in range(trials):
        seed = rng_mod.spawn_trial_seed(bench_seed(), trial)
        system = build_trial_system(config.with_seed(seed))
        for name in ALL:
            result = Engine(
                system, _make(name, seed), build_filter_chain(VARIANT, config.filters)
            ).run()
            misses[name].append(result.missed)
    rows = {name: float(np.median(vals)) for name, vals in misses.items()}
    lines = [
        f"extended heuristics under '{VARIANT}' filtering: median missed of "
        f"{bench_tasks()} ({trials} trials)"
    ]
    for name, med in sorted(rows.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>7}: {med:7.1f}")
    emit("extended_heuristics", "\n".join(lines))
    return rows


def test_extended_heuristics(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # The paper's thesis, out of sample: filtered classics stay within
    # a bounded band of the best filtered heuristic.
    best = min(rows.values())
    for name in ("MET", "OLB", "KPB"):
        assert rows[name] <= best + 0.30 * bench_tasks()
