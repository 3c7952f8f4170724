#!/usr/bin/env python
"""Quickstart: simulate one trial of the paper's environment.

Builds the Section VI environment (heterogeneous 8-node cluster, CVB
execution-time pmfs, bursty arrivals, energy budget), runs the paper's
best policy (Lightest Load with energy + robustness filtering) against
the unfiltered baseline, and prints the outcome.

With an output directory, the run is *observed*: a JSONL event trace,
a metrics dump and a run manifest land there, and every artifact can be
inspected later with ``repro inspect-manifest``.

Run:  python examples/quickstart.py [seed] [outdir]
"""

import pathlib
import sys
from dataclasses import replace

from repro import SimulationConfig, api, build_trial_system
from repro.experiments.calibrate import subscription_report
from repro.io.results_io import save_json
from repro.obs.manifest import manifest_for_results, save_manifest
from repro.obs.sinks import JsonlSink, MetricsRegistry


def main(seed: int = 2011, outdir: "str | None" = None, num_tasks: int = 500) -> None:
    # A half-size workload keeps the demo under ~10 s on one core; drop
    # the with_num_tasks(...) override for the paper's full 1,000-task
    # trials.
    config = SimulationConfig(seed=seed)
    config = replace(config, workload=config.workload.with_num_tasks(num_tasks))
    system = build_trial_system(config)

    print("=== Environment ===")
    print(system.cluster.describe())
    rep = subscription_report(system)
    print(
        f"\nburst utilization {rep.fast_utilization:.2f}x capacity, "
        f"lull utilization {rep.slow_utilization:.2f}x, "
        f"budget {system.budget / 1e6:.1f} MJ "
        f"({rep.budget_per_task / 1e3:.0f} kJ per task)"
    )

    out = pathlib.Path(outdir) if outdir else None
    metrics = MetricsRegistry() if out else None
    trace_sink = JsonlSink(out / "quickstart_trace.jsonl") if out else None
    sinks = (trace_sink,) if trace_sink else ()

    print("\n=== Policies ===")
    results = {}
    for variant in ("none", "en+rob"):
        scenario = api.Scenario("LL", variant, config=config)
        result = api.run_trial(scenario, system=system, metrics=metrics, sinks=sinks)
        results[scenario.label] = [result]
        print(
            f"LL/{variant:>6}: missed {result.missed:4d} / {result.num_tasks} "
            f"({100 * result.miss_fraction:.1f}%)  "
            f"[late {result.late}, discarded {result.discarded}, "
            f"energy cutoff {result.energy_cutoff}]  "
            f"energy used {100 * result.energy_utilization():.0f}% of budget"
        )
    print("\nFiltering adds energy- and robustness-awareness to the same "
          "heuristic — the paper's central result.")

    if out and trace_sink and metrics:
        trace_sink.close()
        save_json(metrics.to_dict(), out / "quickstart_metrics.json")
        manifest = manifest_for_results(results, config, base_seed=seed, num_trials=1)
        save_manifest(manifest, out / "quickstart.manifest.json")
        print(
            f"\nwrote {out}/quickstart_trace.jsonl ({trace_sink.count} events), "
            f"quickstart_metrics.json and quickstart.manifest.json\n"
            f"inspect with: repro inspect-manifest {out}/quickstart.manifest.json "
            f"--trace {out}/quickstart_trace.jsonl"
        )


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 2011,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
