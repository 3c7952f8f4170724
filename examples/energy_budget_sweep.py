#!/usr/bin/env python
"""How tight must the energy constraint be before filtering matters?

Sweeps the budget multiplier (1.0 = the paper's "energy for one thousand
average tasks") and compares an energy-oblivious policy (MECT, no
filters) against the filtered LL policy on paired trials.  With a loose
budget both are equivalent; as the constraint tightens, the unfiltered
policy falls off a cliff — it burns P0 energy early and forfeits the
late burst.

Run:  python examples/energy_budget_sweep.py
"""

from repro import api

BUDGET_MULTS = (0.7, 0.85, 1.0, 1.15, 1.3, 1.6)
TRIALS = 3
TASKS = 400
SCENARIO = api.Scenario(
    seed=1000,
    num_tasks=TASKS,
    ensemble=api.EnsembleSettings(
        num_trials=TRIALS, base_seed=0, specs=("MECT/none", "LL/en+rob")
    ),
)


def main() -> None:
    sweep = api.budget_sweep(SCENARIO, BUDGET_MULTS)
    print(sweep.table(num_tasks=TASKS))
    print(
        f"\nMedians over {TRIALS} paired trials. The gap between columns is "
        "the value of energy-aware filtering; it closes as the budget loosens."
    )


if __name__ == "__main__":
    main()
