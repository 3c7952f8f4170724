#!/usr/bin/env python
"""What does the paper's immediate-mode constraint cost?

The paper maps every task the instant it arrives, irrevocably (Section
III-B).  Batch mode defers commitment: tasks wait in a central pool and
are placed only when a core can actually take them, with full knowledge
of everything that arrived in the meantime.  This example runs both
modes over the same trials.

Run:  python examples/batch_vs_immediate.py
"""

from dataclasses import replace

import numpy as np

from repro import SimulationConfig, build_trial_system
from repro.extensions import run_batch_trial
from repro.filters import build_filter_chain
from repro.heuristics import LightestLoad, MinimumExpectedCompletionTime
from repro.sim.engine import Engine

TRIALS = 3
TASKS = 400


def main() -> None:
    rows: dict[str, list[int]] = {
        "immediate MECT/en+rob": [],
        "immediate LL/en+rob": [],
        "batch Min-Min/en+rob": [],
        "batch Max-Min/en+rob": [],
    }
    for trial in range(TRIALS):
        config = SimulationConfig(seed=4000 + trial)
        config = replace(config, workload=config.workload.with_num_tasks(TASKS))
        system = build_trial_system(config)
        rows["immediate MECT/en+rob"].append(
            Engine(
                system, MinimumExpectedCompletionTime(), build_filter_chain("en+rob")
            ).run().missed
        )
        rows["immediate LL/en+rob"].append(
            Engine(system, LightestLoad(), build_filter_chain("en+rob")).run().missed
        )
        rows["batch Min-Min/en+rob"].append(
            run_batch_trial(system, "min-min", build_filter_chain("en+rob")).missed
        )
        rows["batch Max-Min/en+rob"].append(
            run_batch_trial(system, "max-min", build_filter_chain("en+rob")).missed
        )

    print(f"{'policy':>24} {'median missed':>14}  (of {TASKS}, {TRIALS} trials)")
    for name, misses in sorted(rows.items(), key=lambda kv: np.median(kv[1])):
        print(f"{name:>24} {float(np.median(misses)):14.1f}")
    print(
        "\nBatch mode commits at the last responsible moment: during bursts "
        "it avoids stacking tasks behind slow commitments, which is exactly "
        "the information advantage the paper's immediate-mode setting gives up."
    )


if __name__ == "__main__":
    main()
