#!/usr/bin/env python
"""Anatomy of a bursty trial: queues, P-state choices, and where misses live.

Replays one trial with trace collection on and dissects it by arrival
phase (early burst / lull / late burst), showing how the energy filter
changes P-state choices between congestion and calm — the mechanism
behind the paper's Figures 2-5.

Run:  python examples/burst_oversubscription.py
"""

from dataclasses import replace

import numpy as np

from repro import SimulationConfig, build_trial_system
from repro.analysis.phases import phase_breakdown
from repro.filters import build_filter_chain
from repro.heuristics import MinimumExpectedCompletionTime
from repro.sim.engine import Engine
from repro.sim.metrics import TraceCollector


def sparkline(values: np.ndarray, bins: int = 60) -> str:
    """Down-sample a series into a text sparkline."""
    blocks = " .:-=+*#%@"
    if values.size == 0:
        return ""
    chunks = np.array_split(values, bins)
    means = np.array([c.mean() if c.size else 0.0 for c in chunks])
    top = means.max() if means.max() > 0 else 1.0
    idx = np.minimum((means / top * (len(blocks) - 1)).astype(int), len(blocks) - 1)
    return "".join(blocks[i] for i in idx)


def main() -> None:
    config = SimulationConfig(seed=99)
    config = replace(config, workload=config.workload.with_num_tasks(600))
    system = build_trial_system(config)

    for variant in ("none", "en+rob"):
        collector = TraceCollector()
        heuristic = MinimumExpectedCompletionTime()
        result = Engine(
            system, heuristic, build_filter_chain(variant), hooks=(collector,)
        ).run()
        traces = collector.as_arrays()
        print(f"=== MECT/{variant} ===")
        print(f"queue depth over arrivals: [{sparkline(traces['queue_depths'])}]")
        est = traces["energy_estimates"] / system.budget
        print(f"energy estimate (frac)   : [{sparkline(np.maximum(est, 0.0))}]")
        hist = collector.pstate_histogram(system.cluster.num_pstates)
        total = hist.sum() if hist.sum() else 1
        shares = " ".join(
            f"P{i}:{100 * h / total:.0f}%" for i, h in enumerate(hist)
        )
        print(f"P-state choices          : {shares}")
        for phase, stats in phase_breakdown(result, config.workload).items():
            print(f"  {phase:>4}: missed {stats.missed:3d} / {stats.total}")
        print(
            f"  overall: {result.missed} missed "
            f"({result.late} late, {result.energy_cutoff} after budget, "
            f"{result.discarded} discarded); "
            f"energy {100 * result.energy_utilization():.0f}% of budget\n"
        )


if __name__ == "__main__":
    main()
