"""Check that each workload keeps its defining shape at a given seed.

Runs the traced mode of every workload once (twice with ``--twice``, to
check that the trace digest repeats) and asserts the relations the
workloads were chosen for:

* serve-overload does more convolutions per candidate build than paper-grid;
* paper-grid reads its kernel cache more often (higher hit rate);
* serve-overload sheds and orphans tasks;
* ensemble-2proc spends a far larger share of its time building systems;
* bypassed layers read 0 (faults/service off the service workload,
  executor off the ensemble workload).

Usage, from the root of a checkout::

    python3 perfbench/shape_check.py --seed 2 [--twice]

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-grid", "ensemble-2proc", "serve-overload")


def traced(workload: str, seed: int, seconds: int) -> tuple[dict[str, float], str, bool]:
    """Per-layer metrics, trace digest and correctness of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines if line.startswith("trace digest"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, digest, result["correct"] and result["failed"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=1, help="traced-mode --seconds")
    parser.add_argument("--twice", action="store_true", help="also check digests repeat")
    args = parser.parse_args(argv)

    m: dict[str, dict[str, float]] = {}
    checks: list[tuple[str, bool]] = []
    for wl in WORKLOADS:
        m[wl], digest, ok = traced(wl, args.seed, args.seconds)
        checks.append((f"{wl}: outputs correct, no failed operation", ok))
        print(f"{wl}: trace digest {digest}")
        if args.twice:
            _, again, _ = traced(wl, args.seed, args.seconds)
            checks.append((f"{wl}: trace digest repeats", again == digest))

    paper, ens, serve = m["paper-grid"], m["ensemble-2proc"], m["serve-overload"]
    for name in ("stoch.convolve_per_build", "perf.cache_hit_rate", "system.build_share"):
        print(f"{name:28s} " + "  ".join(f"{wl} {m[wl][name]:.4f}" for wl in WORKLOADS))
    checks += [
        ("serve-overload convolves more per build than paper-grid",
         serve["stoch.convolve_per_build"] > paper["stoch.convolve_per_build"]),
        ("paper-grid has the higher kernel-cache hit rate",
         paper["perf.cache_hit_rate"] > serve["perf.cache_hit_rate"]),
        ("serve-overload sheds tasks", serve["faults.shed"] > 0),
        ("serve-overload orphans tasks", serve["faults.orphaned"] > 0),
        ("ensemble-2proc build share is over 5x paper-grid's",
         ens["system.build_share"] > 5 * paper["system.build_share"]),
        ("ensemble-2proc runs trials through the executor", ens["executor.trials"] > 0),
    ]
    for wl in ("paper-grid", "ensemble-2proc"):
        checks.append((f"{wl}: faults.* and service.* read 0", all(
            value == 0 for name, value in m[wl].items()
            if name.startswith(("faults.", "service."))
        )))
    for wl in ("paper-grid", "serve-overload"):
        checks.append((f"{wl}: executor.* read 0", all(
            value == 0 for name, value in m[wl].items() if name.startswith("executor.")
        )))
    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
