#!/usr/bin/env python
"""Section VIII extensions in action: priorities + cancellation.

Stamps the workload with priority levels (1x / 2x / 4x) and compares:

* plain filtered LL (priority-blind);
* priority-shaped LL (load = EEC * (1 - rho)^priority) behind a
  priority-scaled energy filter (important tasks get a bigger fair share
  of the remaining budget);
* the same, plus the engine's dispatch floor: a freed core drops each
  queued task whose on-time probability if started now is below 5%.

Everything is scored by priority-weighted missed work: a 4x task counts
as four 1x tasks.

Run:  python examples/priority_scheduling.py
"""

from dataclasses import replace

from repro import SimulationConfig, build_trial_system
from repro import rng as rng_mod
from repro.extensions import (
    PriorityEnergyFilter,
    PriorityLightestLoad,
    weighted_missed,
    with_priorities,
)
from repro.faults import SheddingConfig
from repro.filters import FilterChain, RobustnessFilter, build_filter_chain
from repro.heuristics import LightestLoad
from repro.sim.engine import Engine

SEED = 77


def main() -> None:
    config = SimulationConfig(seed=SEED)
    config = replace(config, workload=config.workload.with_num_tasks(500))
    system = build_trial_system(config)
    prioritized = with_priorities(
        system.workload, rng_mod.stream(SEED, "priorities"), levels=(1.0, 2.0, 4.0)
    )
    system = replace(system, workload=prioritized)

    prio_chain = FilterChain(
        [
            PriorityEnergyFilter.for_workload(prioritized, config.filters),
            RobustnessFilter(config.filters),
        ]
    )
    runs = {
        "LL (priority-blind)": (LightestLoad(), build_filter_chain("en+rob"), None),
        "LL-prio": (PriorityLightestLoad(), prio_chain, None),
        "LL-prio + cancel": (
            PriorityLightestLoad(),
            prio_chain,
            SheddingConfig(dispatch_prob=0.05),
        ),
    }
    print(f"{'policy':>22} {'missed':>7} {'weighted miss':>14} {'cancelled':>10}")
    for label, (heuristic, chain, shedding) in runs.items():
        engine = Engine(system, heuristic, chain, shedding=shedding)
        result = engine.run()
        wm = weighted_missed(result, system.workload)
        cancelled = engine.fault_stats.lost
        print(f"{label:>22} {result.missed:7d} {100 * wm:13.1f}% {cancelled:10d}")
    print(
        "\nPriority-weighted missed work counts a 4x task as four 1x tasks; "
        "the priority-aware policies shift the inevitable misses onto the "
        "cheap tasks, lowering weighted loss even when raw misses tie."
    )


if __name__ == "__main__":
    main()
