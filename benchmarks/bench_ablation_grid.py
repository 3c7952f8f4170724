"""Ablation: pmf grid resolution (our discretization choice, DESIGN.md §6).

The grid step ``dt`` trades prediction accuracy against simulation speed
(every pmf array scales as support/dt).  This ablation shows the headline
metric is stable across a 4x range of resolutions while wall-clock cost
is not — justifying the default dt=15.  The wall times go to the
benchmark's ``extra_info`` (``seconds_dt=…``), not to the committed
table, so the table reproduces byte for byte.
"""

from __future__ import annotations

import time

from _common import bench_config, bench_seed, bench_tasks, bench_trials, emit
from repro.experiments.runner import VariantSpec, run_ensemble

SPEC = VariantSpec("LL", "en+rob")
STEPS = (7.5, 15.0, 30.0, 60.0)


def run_ablation() -> dict[str, float]:
    rows: dict[str, float] = {}
    lines = [
        f"grid-resolution ablation: {SPEC.label}, median missed of "
        f"{bench_tasks()} ({bench_trials()} trials)"
    ]
    for dt in STEPS:
        config = bench_config(grid={"dt": dt})
        start = time.perf_counter()
        ensemble = run_ensemble([SPEC], config, bench_trials(), base_seed=bench_seed())
        elapsed = time.perf_counter() - start
        med = ensemble.median_misses(SPEC)
        rows[f"dt={dt}"] = med
        rows[f"seconds_dt={dt}"] = round(elapsed, 2)
        lines.append(f"  dt={dt:5.1f}: median={med:7.1f}")
    emit("ablation_grid", "\n".join(lines))
    return rows


def test_ablation_grid(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    benchmark.extra_info.update(rows)
    # The metric must be stable between the default and a 2x finer grid.
    ref, fine = rows["dt=15.0"], rows["dt=7.5"]
    assert abs(fine - ref) <= 0.1 * bench_tasks()
