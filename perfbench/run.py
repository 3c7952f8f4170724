"""The repository's benchmark: one command, three workloads, two modes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-overload --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` reports the per-layer metrics of one traced unit next to an untraced
one.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the metrics and the noise findings.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the command exits non-zero and prints no
result.
"""

from __future__ import annotations

import os

# One busy thread per process: pinned before numpy loads, inherited by
# the set-up probes and the ensemble's forked workers.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
# Measure the default numpy kernels; a compiled backend would also write
# its build cache outside the checkout.
os.environ.pop("REPRO_PERF_BACKEND", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per run: this process plus SETUP_SAMPLES - 1 children.
SETUP_SAMPLES = 3

#: ROADMAP's full Figs. 2-6 grid: 50 trials x 16 variants x 1,000 tasks.
FULL_GRID_TASKS = 50 * 16 * 1000



def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (user + sys)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of the largest process so far (this or a child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _sha256(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import the checkout's ``repro`` (and the modules built on it); time it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'repro'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro

    import workloads

    import_s = time.perf_counter() - t0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    return workloads, import_s


def _setup_samples(args: argparse.Namespace, own_sample: float) -> list[float]:
    """Set-up time of this process plus fresh child processes, one at a time."""
    samples = [own_sample]
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _run_unit(wl, state, **kwargs):
    """One unit of work, with an exception counted as failed operations."""
    from workloads import UnitResult

    try:
        return wl.run(state, **kwargs)
    except Exception as exc:  # the benchmark must report, not crash
        traceback.print_exc()
        return UnitResult(
            records=[], tasks=0, missed=0, offered=0, ops=wl.ops,
            failures=[f"{type(exc).__name__}: {exc}"],
        )


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, unit, extra_failures: tuple[str, ...] | list[str] = ()) -> None:
        failures = list(unit.failures) + list(extra_failures)
        self.attempted += unit.ops
        self.failed += min(unit.ops, len(failures))
        self.messages.extend(failures[: 10 - len(self.messages)])


def _report(correct: bool, tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for message in tally.messages:
        print(f"FAILED: {message}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _plain(args, wl, inputs, import_s) -> int:
    """``--trace 0``: end-to-end metrics with tracing off."""
    t0 = time.perf_counter()
    state = wl.setup(inputs)
    samples = _setup_samples(args, import_s + time.perf_counter() - t0)

    tally = Tally()
    units, rates = [], []
    start = time.perf_counter()
    while True:
        c0 = _cpu_s()
        unit = _run_unit(wl, state)
        cpu = _cpu_s() - c0
        drift = []
        if units and unit.fingerprint() != units[0].fingerprint():
            drift = [f"repeat {len(units)} produced different outputs"]
        tally.add(unit, drift)
        units.append(unit)
        if not unit.failures and cpu > 0:
            rates.append(unit.tasks / cpu)
        elapsed = time.perf_counter() - start
        # Stop before a unit that would overrun the measuring window.
        if elapsed * (len(units) + 1) / len(units) > args.seconds:
            break

    first = units[0]
    tasks_per_s = statistics.median(rates) if rates else 0.0
    print(f"workload {args.workload} seed {args.seed}: {len(units)} unit(s), "
          f"{first.tasks} task arrivals each")
    print("unit tasks/s (CPU): " + ", ".join(f"{r:.2f}" for r in rates))
    print("setup samples s: " + ", ".join(f"{s:.4f}" for s in samples))
    print(f"digest {_sha256(first.records)}")
    if args.workload == "paper-grid" and tasks_per_s > 0:
        print(f"projected full Figs. 2-6 grid: {FULL_GRID_TASKS / tasks_per_s:.1f} CPU s")
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "tasks_per_s": (tasks_per_s, "tasks/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "missed_pct": (100.0 * first.missed / first.offered if first.offered else 0.0, "%"),
    }
    _report(tally.failed == 0 and bool(rates), tally, metrics)
    return 0


def _traced(args, wl, inputs) -> int:
    """``--trace 1``: per-layer metrics of a traced unit, plus its overhead."""
    import layers
    from repro.obs.sinks import MetricsRegistry
    from repro.obs.spans import SpanProfile
    from repro.stoch.ops import set_op_observer
    from workloads import EnsembleWorkload

    batch = isinstance(wl, EnsembleWorkload)
    probe = layers.LayerProbe()

    # Set-up builds count toward sim.system.
    setup_registry = MetricsRegistry()
    uninstall = layers.install(probe)
    try:
        state = wl.setup(inputs)
    finally:
        uninstall()
    probe.flush_into(setup_registry)

    def traced_unit():
        registry = MetricsRegistry()
        uninstall = layers.install(probe)
        previous = None if batch else set_op_observer(layers.StochCounter(registry))
        c0 = _cpu_s()
        try:
            if batch:
                unit = _run_unit(wl, state, metrics=registry, profile=SpanProfile())
            else:
                unit = _run_unit(wl, state)
        finally:
            cpu = _cpu_s() - c0
            uninstall()
            if not batch:
                set_op_observer(previous)
        engine = probe.last_engine
        if not batch and engine is not None:
            stats = engine.kernel_cache_stats()
            if stats is not None:
                for name in ("hits", "misses", "evictions"):
                    registry.inc(f"perf.cache.{name}", getattr(stats, name))
        probe.flush_into(registry)
        for name, value in unit.extra.items():
            registry.inc(f"bench.{name}", value)
        return unit, registry, cpu

    tally = Tally()
    plain_cpu, traced_cpu, counts_digests = [], [], []
    first_unit = first_registry = None
    start = time.perf_counter()
    while True:
        c0 = _cpu_s()
        plain = _run_unit(wl, state)
        plain_cpu.append(_cpu_s() - c0)
        unit, registry, cpu = traced_unit()
        traced_cpu.append(cpu)
        drift = []
        if unit.fingerprint() != plain.fingerprint():
            drift.append("tracing changed the outputs")
        counts = {
            k: v for k, v in sorted(registry.counters.items()) if not k.endswith("_ns")
        }
        counts_digests.append(_sha256(counts))
        if counts_digests[-1] != counts_digests[0]:
            drift.append(f"traced repeat {len(counts_digests) - 1} counted differently")
        tally.add(plain)
        tally.add(unit, drift)
        if first_unit is None:
            first_unit, first_registry = unit, registry
        elapsed = time.perf_counter() - start
        pairs = len(traced_cpu)
        if elapsed * (pairs + 1) / pairs > args.seconds:
            break

    unit_build_s = first_registry.counter("bench.system.build_ns") / 1e9
    first_registry.merge(setup_registry)
    overhead = 100.0 * (statistics.median(traced_cpu) / statistics.median(plain_cpu) - 1.0)
    values = layers.layer_metrics(
        first_registry,
        unit_build_s=unit_build_s,
        unit_cpu_s=traced_cpu[0],
        trace_overhead_pct=overhead,
    )
    exact = {name: values[name] for name, unit in layers.PER_LAYER if unit == "count"}
    print(f"workload {args.workload} seed {args.seed}: {len(traced_cpu)} traced unit(s)")
    print("untraced CPU s: " + ", ".join(f"{c:.3f}" for c in plain_cpu))
    print("traced CPU s: " + ", ".join(f"{c:.3f}" for c in traced_cpu))
    print(f"digest {_sha256(first_unit.records)}")
    print(f"trace digest {_sha256({'outputs': first_unit.records, 'counts': exact})}")
    metrics = {name: (float(values[name]), unit) for name, unit in layers.PER_LAYER}
    _report(tally.failed == 0, tally, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    workloads, import_s = _import_program()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}"
        )
    inputs = wl.prepare(args.seed)
    if args.setup_probe:
        t0 = time.perf_counter()
        wl.setup(inputs)
        print(json.dumps({"setup_s": import_s + time.perf_counter() - t0}))
        return 0
    if args.trace:
        return _traced(args, wl, inputs)
    return _plain(args, wl, inputs, import_s)


if __name__ == "__main__":
    sys.exit(main())
