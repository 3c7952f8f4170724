#!/usr/bin/env python
"""Does heterogeneity change which policy wins?

The CVB parameters V_task and V_mach control how much task types and
machines differ (the paper fixes both at 0.25).  This example rebuilds
the environment at low and high heterogeneity and reruns the head-to-head
between the four filtered heuristics, exercising the claim that the
*filters*, not the heuristic, drive performance across regimes.

Run:  python examples/heterogeneity_study.py
"""

from dataclasses import replace

import numpy as np

from repro import SimulationConfig, api
from repro.heuristics.registry import HEURISTICS

REGIMES = {
    "low het  (V=0.10)": (0.10, 0.10),
    "paper    (V=0.25)": (0.25, 0.25),
    "high het (V=0.45)": (0.45, 0.45),
}
TRIALS = 3


def main() -> None:
    header = f"{'regime':>18} " + " ".join(f"{h + '/en+rob':>14}" for h in HEURISTICS)
    print(header)
    for label, (v_task, v_mach) in REGIMES.items():
        row = [f"{label:>18}"]
        for heuristic in HEURISTICS:
            misses = []
            for trial in range(TRIALS):
                config = SimulationConfig(seed=500 + trial)
                config = replace(
                    config,
                    workload=replace(
                        config.workload.with_num_tasks(400),
                        v_task=v_task,
                        v_mach=v_mach,
                    ),
                )
                result = api.run_trial(api.Scenario(heuristic, "en+rob", config=config))
                misses.append(result.missed)
            row.append(f"{float(np.median(misses)):14.1f}")
        print(" ".join(row))
    print(
        "\nMedian missed deadlines out of 400 over "
        f"{TRIALS} trials per cell. Higher heterogeneity widens the spread "
        "of assignment quality, increasing the payoff of informed mapping."
    )


if __name__ == "__main__":
    main()
