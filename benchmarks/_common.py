"""Shared infrastructure for the benchmark harness.

Scale knobs (environment variables):

``REPRO_TRIALS``  trials per variant (default 5; the paper used 50)
``REPRO_TASKS``   tasks per trial (default 300; the paper used 1000)
``REPRO_SEED``    ensemble base seed (default 0)

Every bench prints its table and also writes it under ``results/`` so the
rows survive pytest's output capture; ``repro grid --trials 50 --out
results/full_grid.json`` regenerates everything at full paper scale and
``repro report results/full_grid.json`` re-renders it.

The full 16-variant grid ensemble is computed once per pytest session and
shared by the figure benches (fig2-5 are row-subsets of it, fig6 and the
text summary need all of it).
"""

from __future__ import annotations

import functools
import os
import pathlib
from dataclasses import replace

from repro import SimulationConfig
from repro.experiments.figures import figure_specs
from repro.experiments.runner import EnsembleResult, run_ensemble

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "results"


def env_int(name: str, default: int) -> int:
    """Integer environment knob."""
    return int(os.environ.get(name, default))


def bench_trials() -> int:
    return env_int("REPRO_TRIALS", 5)


def bench_tasks() -> int:
    return env_int("REPRO_TASKS", 300)


def bench_seed() -> int:
    return env_int("REPRO_SEED", 0)


def bench_config(**section_updates) -> SimulationConfig:
    """The benchmark-scale simulation configuration."""
    config = SimulationConfig(seed=bench_seed())
    tasks = bench_tasks()
    if tasks != config.workload.num_tasks:
        config = replace(config, workload=config.workload.with_num_tasks(tasks))
    if section_updates:
        config = config.with_updates(**section_updates)
    return config


@functools.lru_cache(maxsize=1)
def grid_ensemble() -> EnsembleResult:
    """The full 16-variant ensemble at benchmark scale (computed once)."""
    return run_ensemble(
        figure_specs("fig6"), bench_config(), bench_trials(), base_seed=bench_seed()
    )


def emit(name: str, text: str) -> None:
    """Print a bench's table and persist it under results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"bench_{name}.txt").write_text(text + "\n")
