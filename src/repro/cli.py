"""Command-line interface.

Installed as the ``repro`` console script::

    repro calibrate                     # sanity-check the Section VI setup
    repro trial -H LL -F en+rob         # one trial, one policy
    repro serve --traffic diurnal --horizon 3e5 --windows-out w.jsonl
                                        # continuous-service mode
    repro serve --horizon 3e5 --fault-mtbf 6e4 --fault-mttr 6e3 \
                --shed-queue-depth 8    # degraded service with shedding
    repro serve --horizon 3e5 --telemetry-port 9464 \
                --slo 'on_time_prob<0.9:3'  # live scrape + SLO health
    repro monitor windows.jsonl --follow    # terminal dashboard
    repro figure fig5 --trials 10       # one of the paper's figures
    repro grid --trials 50 --out grid.json  # the full 16-variant evaluation
    repro sweep --multipliers 0.7 1.0 1.3  # budget-tightness sweep
    repro report grid.json --svg-dir figs/   # re-render saved results
    repro compare grid.json LL/none LL/en+rob # paired significance test
    repro trial --trace-out t.jsonl --metrics-out m.json  # observed run
    repro trial --profile-out p.json --timeline-out tl.json  # profiled run
    repro profile p.json --timeline tl.json  # top-spans + timeline digest
    repro inspect-manifest grid.manifest.json --results grid.json
    repro grid --jobs 8 --checkpoint g.ckpt.jsonl --resume  # survivable run

All simulation subcommands accept ``--tasks`` and ``--seed``; results
are deterministic for a given seed, with tracing and profiling on or
off.  ``--profile-out`` files are Chrome trace-event JSON — drag one
into https://ui.perfetto.dev to browse the spans interactively.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import signal
import sys
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from repro.analysis.boxplot import ascii_boxplot_group
from repro.analysis.profile_report import metrics_tables, profile_table, timeline_table
from repro.analysis.svg import save_boxplot_svg, save_timeline_svg
from repro.analysis.trace_summary import trace_summary_table
from repro.experiments.calibrate import calibration_summary
from repro.experiments.compare import compare_variants
from repro.experiments.figures import FIGURES, figure_specs, full_grid_specs
from repro.experiments.report import best_variant_table, figure_table, summary_table
from repro.experiments.runner import (
    EnsembleResult,
    PartialEnsembleResult,
    VariantSpec,
    run_ensemble,
)
from repro.api import run_scenario
from repro.faults import FaultSchedule, SheddingConfig
from repro.filters.chain import VARIANTS, canonical_variant
from repro.heuristics.registry import HEURISTICS
from repro.registry import (
    HEURISTIC_PLUGINS,
    TRAFFIC_PLUGINS,
    UnknownPluginError,
    describe_plugins,
    plugin_table,
)
from repro.scenario import FaultSettings, Scenario, ScenarioError
from repro.io.faults_io import load_faults, save_faults
from repro.io.profile_io import (
    load_profile_events,
    load_timeline,
    save_profile,
    save_timeline,
)
from repro.io.results_io import ensemble_from_dict, ensemble_to_dict, load_json, save_json
from repro.io.trace_io import load_trace
from repro.obs.export import FileExporter, TelemetryServer
from repro.obs.manifest import build_manifest, load_manifest, save_manifest, verify_ensemble
from repro.obs.monitor import read_window_rows, render_monitor, scrape
from repro.obs.sinks import JsonlSink, MetricsRegistry
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.telemetry import Telemetry, parse_rule
from repro.obs.timeline import TIMELINE_FORMAT, TimelineRecorder, TimelineSet
from repro.service import TRAFFIC_MODELS, ServiceConfig, ServiceResult, write_windows_jsonl

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tasks", type=int, default=1000, help="tasks per trial")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _add_policy(parser: argparse.ArgumentParser) -> None:
    """The -H/-F policy flags, resolved case-insensitively via the registries."""
    parser.add_argument(
        "-H",
        "--heuristic",
        default="LL",
        type=_heuristic_name,
        help="allocation heuristic, any registered plugin, e.g. the paper's "
        f"{', '.join(HEURISTICS)} ('repro scenarios plugins' lists all; "
        "case-insensitive)",
    )
    parser.add_argument(
        "-F",
        "--filters",
        default="en+rob",
        type=_variant_name,
        help="filter variant: 'none' or '+'-joined registered filter names "
        f"(builtin: {', '.join(VARIANTS)}; case-insensitive)",
    )


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by the ensemble subcommands."""
    parser.add_argument(
        "--checkpoint",
        help="stream each completed trial to this JSONL shard",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already in --checkpoint (digests re-verified)",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help="kill and retry any trial exceeding this wall clock (seconds)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per trial before it is quarantined as poison",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    """In-simulation fault and shedding flags shared by trial and serve."""
    group = parser.add_argument_group("faults / shedding")
    group.add_argument(
        "--faults", help="load a repro.faults/1 schedule JSON (vs. generating one)"
    )
    group.add_argument(
        "--faults-out", help="save the (loaded or generated) fault schedule here"
    )
    group.add_argument(
        "--fault-mtbf",
        type=float,
        default=None,
        help="generate a schedule: mean up-time per target (simulated seconds)",
    )
    group.add_argument(
        "--fault-mttr",
        type=float,
        default=None,
        help="mean outage duration per target (simulated seconds)",
    )
    group.add_argument(
        "--fault-horizon",
        type=float,
        default=None,
        help="generate faults up to this time (serve defaults to --horizon)",
    )
    group.add_argument(
        "--fault-scope",
        default="node",
        choices=("node", "core", "slowdown"),
        help="what a generated fault takes down (slowdown caps P-states instead)",
    )
    group.add_argument(
        "--fault-targets",
        type=int,
        default=None,
        help="targets subject to faults (default: every node, or core)",
    )
    group.add_argument(
        "--fault-pstate-floor",
        type=int,
        default=1,
        help="forbid P-state indices below this during a slowdown (scope=slowdown)",
    )
    group.add_argument(
        "--fault-running",
        default="lost",
        choices=("lost", "resume"),
        help="running tasks caught by an outage are lost or resume-orphaned",
    )
    group.add_argument(
        "--no-remap",
        action="store_true",
        help="disable orphan re-mapping (the no-recovery ablation)",
    )
    group.add_argument(
        "--shed-queue-depth",
        type=float,
        default=None,
        help="shed arrivals when avg queue depth exceeds this (tasks/core)",
    )
    group.add_argument(
        "--shed-budget-frac",
        type=float,
        default=None,
        help="shed arrivals when the energy allowance falls below this fraction",
    )
    group.add_argument(
        "--shed-min-prob",
        type=float,
        default=None,
        help="shed tasks whose chosen assignment's on-time probability is below this",
    )
    group.add_argument(
        "--shed-defer",
        type=float,
        default=None,
        help="retry tripped arrivals after this many simulated seconds (default: drop)",
    )
    group.add_argument(
        "--shed-max-defers",
        type=int,
        default=3,
        help="deferrals per task before it is shed for good",
    )


#: ``repro serve`` flags named like :class:`ServiceConfig` fields (the
#: fault layer comes from the ``--fault-*`` / ``--shed-*`` flags instead).
_SERVICE_FLAGS = tuple(
    f.name
    for f in dataclasses.fields(ServiceConfig)
    if f.name not in ("faults", "fault_policy", "shedding")
)


def _fault_settings(args: argparse.Namespace) -> FaultSettings | None:
    """The scenario ``[faults]`` the fault flags describe (``None``: no faults).

    ``--faults FILE`` becomes explicit ``events``; ``--fault-mtbf``
    becomes the generator, its horizon defaulting to ``serve``'s
    ``--horizon``.
    """
    if args.faults and args.fault_mtbf is not None:
        raise ValueError("pass either --faults FILE or --fault-mtbf, not both")
    policy = {"running": args.fault_running, "remap": not args.no_remap}
    if args.faults:
        return FaultSettings(events=load_faults(args.faults).events, **policy)
    if args.fault_mtbf is None:
        return None
    horizon = args.fault_horizon
    if horizon is None:
        horizon = getattr(args, "horizon", None)
    return FaultSettings(
        mtbf=args.fault_mtbf,
        mttr=args.fault_mttr,
        horizon=horizon,
        num_targets=args.fault_targets,
        scope=args.fault_scope,
        pstate_floor=args.fault_pstate_floor,
        **policy,
    )


def _flag_scenario(
    args: argparse.Namespace,
) -> tuple[Scenario, FaultSchedule | None]:
    """The :class:`Scenario` a ``trial`` or ``serve`` command line describes.

    Also returns its resolved fault schedule: resolving up front makes
    bad flags or a malformed ``--faults`` file exit with one line before
    anything runs, and ``--faults-out`` saves the schedule the run uses.
    """
    serve = args.command == "serve"
    thresholds = (args.shed_queue_depth, args.shed_budget_frac, args.shed_min_prob)
    with _bad_input(args):
        shedding = None
        if any(value is not None for value in thresholds):
            shedding = SheddingConfig(
                queue_depth=args.shed_queue_depth,
                budget_frac=args.shed_budget_frac,
                min_prob=args.shed_min_prob,
                defer=args.shed_defer,
                max_defers=args.shed_max_defers,
            )
        service = None
        if serve:
            service = ServiceConfig(**{name: getattr(args, name) for name in _SERVICE_FLAGS})
        scenario = Scenario(
            args.heuristic,
            args.filters,
            seed=args.seed,
            num_tasks=args.tasks,
            mode="service" if serve else "trial",
            service=service,
            faults=_fault_settings(args),
            shedding=shedding,
        )
        schedule, _ = scenario.resolved_faults()
    if args.faults_out:
        if schedule is None:
            raise SystemExit("--faults-out needs a schedule (--faults or --fault-mtbf)")
        save_faults(schedule, args.faults_out)
        print(f"wrote {args.faults_out} ({len(schedule.events)} fault events)")
    return scenario, schedule


@contextmanager
def _bad_input(args: argparse.Namespace, path: Any = None) -> Iterator[None]:
    """The one place bad input exits 1 with a ``repro <cmd>: ...`` line.

    Catches ``OSError``/``ValueError``; ``path`` (the file being read)
    prefixes a reason that does not already name it.
    """
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = str(exc)
        if path is not None and str(path) not in reason:
            reason = f"{path}: {reason}"
        raise SystemExit(f"repro {args.command}: {reason}") from None


def _print_fault_totals(totals: dict[str, int]) -> None:
    """One-line fault/shedding summary (only when something happened)."""
    if not any(totals.values()):
        return
    print(
        f"faults: {totals['outages']} outages ({totals['recoveries']} recovered, "
        f"{totals['slowdowns']} slowdowns), {totals['orphaned']} orphaned "
        f"({totals['remapped']} re-mapped), {totals['lost']} lost, "
        f"{totals['shed']} shed, {totals['deferred']} deferred"
    )


def _obs_parent() -> argparse.ArgumentParser:
    """One argparse parent carrying the observability flags.

    Every simulation subcommand (trial / figure / grid / sweep) inherits
    the same five flags with the same names and semantics, so ``repro X
    --metrics-out m.json`` works uniformly: ``--trace-out`` streams
    JSONL events (per-task events for ``trial``; executor-level recovery
    events for the ensemble commands), ``--metrics-out`` aggregates the
    counter/histogram registry, ``--profile-out`` records wall-clock
    spans as Chrome trace-event JSON, and ``--timeline-out`` samples
    system state on a ``--timeline-dt`` grid.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--trace-out", help="write a JSONL event trace here")
    group.add_argument("--metrics-out", help="write the metrics registry JSON here")
    group.add_argument(
        "--profile-out",
        help="write a Chrome trace-event span profile here (Perfetto-loadable)",
    )
    group.add_argument(
        "--timeline-out",
        help="write sampled system-state timelines (repro.timeline/1 JSON) here",
    )
    group.add_argument(
        "--timeline-dt",
        type=float,
        default=60.0,
        help="simulated seconds between timeline samples (default: 60)",
    )
    return parent


class _Outputs:
    """The collectors the observability flags ask for, and their write-out.

    Ensemble commands hand ``profile`` / ``timelines`` to the runner,
    which merges one stream per trial into them.  A single run
    (``label`` given: ``trial``, ``serve``) records into ``recorder`` /
    ``timeline`` instead, folded in by :meth:`write`.  Used as a context
    manager, it closes the trace sink when the run ends, even on error.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        *,
        label: str | None = None,
        timeline_cap: int | None = None,
    ) -> None:
        self.args = args
        trace_out = getattr(args, "trace_out", None)
        profile_out = getattr(args, "profile_out", None)
        self.trace = JsonlSink(trace_out) if trace_out else None
        self.sinks = (self.trace,) if self.trace is not None else ()
        self.metrics = MetricsRegistry() if getattr(args, "metrics_out", None) else None
        self.profile = SpanProfile() if profile_out else None
        self.timelines = TimelineSet(args.timeline_dt) if args.timeline_out else None
        self.recorder = self.timeline = None
        if label is not None:
            if profile_out:
                self.recorder = SpanRecorder(stream=0, label=f"trial:{label}")
            if args.timeline_out:
                self.timeline = TimelineRecorder(
                    args.timeline_dt, stream=0, label=label, capacity=timeline_cap
                )

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.trace is not None:
            self.trace.close()

    def write(self) -> None:
        """Save every requested output and print one line per file."""
        args = self.args
        if self.trace is not None:
            print(f"wrote {args.trace_out} ({self.trace.count} events)")
        if self.metrics is not None:
            save_json(self.metrics.to_dict(), args.metrics_out)
            print(f"wrote {args.metrics_out}")
        if self.profile is not None:
            if self.recorder is not None:
                self.profile.add_stream(self.recorder)
            save_profile(self.profile, args.profile_out)
            print(f"wrote {args.profile_out} ({len(self.profile)} spans)")
        if self.timelines is not None:
            if self.timeline is not None:
                self.timelines.add(self.timeline)
                count = f"{len(self.timeline)} samples"
            else:
                count = f"{len(self.timelines)} timelines"
            save_timeline(self.timelines, args.timeline_out)
            print(f"wrote {args.timeline_out} ({count})")


def _parse_spec(label: str) -> VariantSpec:
    """``"LL/en+rob"`` -> a spec; ``ValueError`` on a malformed or unknown one.

    Names are checked against the plugin registries here, so a typo
    fails before any trial runs, but kept as given (the spec label
    seeds the Random heuristic's stream).
    """
    heuristic, sep, variant = label.partition("/")
    if not sep:
        raise ValueError(f"spec must look like 'LL/en+rob', got {label!r}")
    try:
        HEURISTIC_PLUGINS.canonical(heuristic)
        canonical_variant(variant)
    except KeyError as exc:  # UnknownPluginError or a malformed variant
        raise ValueError(exc.args[0]) from None
    return VariantSpec(heuristic, variant)


def _heuristic_name(value: str) -> str:
    """argparse type: canonicalize a heuristic name via the plugin registry.

    Accepts any case ("mect" == "MECT") and any registered third-party
    heuristic, unlike a static ``choices=`` list.
    """
    try:
        return HEURISTIC_PLUGINS.canonical(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _variant_name(value: str) -> str:
    """argparse type: canonicalize a filter-variant label ("EN+ROB" -> "en+rob")."""
    try:
        return canonical_variant(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc.args[0]))


def _traffic_name(value: str) -> str:
    """argparse type: canonicalize a traffic-model name via the registry."""
    try:
        return TRAFFIC_PLUGINS.canonical(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Print Section VI subscription/budget diagnostics."""
    with _bad_input(args):
        config = Scenario(seed=args.seed, num_tasks=args.tasks).resolved_config()
    print(calibration_summary(config))
    return 0


def _print_trial_result(result: Any) -> None:
    """The two-line score summary of one trial result."""
    print(
        f"{result.label}: missed {result.missed}/{result.num_tasks} "
        f"({result.late} late, {result.discarded} discarded, "
        f"{result.energy_cutoff} after budget exhaustion)"
    )
    print(
        f"energy {result.total_energy / 1e6:.2f} MJ of "
        f"{result.budget / 1e6:.2f} MJ budget "
        f"({100 * result.energy_utilization():.1f}%), makespan {result.makespan:.0f}"
    )


def cmd_trial(args: argparse.Namespace) -> int:
    """Run a single trial of one (heuristic, filters) policy."""
    scenario, schedule = _flag_scenario(args)
    with _bad_input(args), _Outputs(args, label=scenario.label) as out:
        result = run_scenario(
            scenario,
            metrics=out.metrics,
            sinks=out.sinks,
            profile=out.recorder,
            timeline=out.timeline,
        )
    if schedule is not None:
        faults = scenario.faults
        print(
            f"fault schedule: {len(schedule.events)} events "
            f"(policy: running {faults.running}, "
            f"remap {'on' if faults.remap else 'off'})"
        )
    _print_trial_result(result)
    out.write()
    return 0


def _print_windows(result: ServiceResult, head: int = 10, tail: int = 10) -> None:
    """Render the per-window summary table (elided in the middle when long)."""
    header = (
        f"{'#':>5} {'start':>10} {'end':>10} {'arr':>6} {'map':>6} {'disc':>6} "
        f"{'done':>6} {'late':>6} {'energy MJ':>10} {'allow MJ':>9}"
    )
    print(header)
    rows = list(enumerate(result.windows))
    elided = len(rows) - head - tail
    if elided > 1:
        shown: list[tuple[int, Any] | None] = [*rows[:head], None, *rows[-tail:]]
    else:
        shown = list(rows)
    for row in shown:
        if row is None:
            print(f"{'...':>5} ({elided} windows elided)")
            continue
        index, w = row
        allow = "-" if w.budget_remaining != w.budget_remaining else f"{w.budget_remaining / 1e6:9.3f}"
        print(
            f"{index:>5} {w.start:>10.1f} {w.end:>10.1f} {w.arrivals:>6} "
            f"{w.mapped:>6} {w.discarded:>6} {w.completed:>6} {w.late:>6} "
            f"{w.energy / 1e6:>10.3f} {allow:>9}"
        )


def _resolve_telemetry(
    args: argparse.Namespace,
) -> tuple[Telemetry | None, TelemetryServer | None]:
    """Build the serve command's telemetry hub (``None`` when unrequested).

    A bad ``--slo`` rule raises ``ValueError`` and a busy
    ``--telemetry-port`` ``OSError``, each naming its flag, for
    :func:`_bad_input` to turn into one line.
    """
    wanted = (
        args.telemetry_port is not None
        or args.telemetry_out is not None
        or bool(args.slo)
    )
    if not wanted:
        return None, None
    try:
        telemetry = Telemetry(rules=[parse_rule(spec) for spec in args.slo or []])
    except ValueError as exc:
        raise ValueError(f"--slo: {exc}") from None
    if args.telemetry_out:
        telemetry.exporters.append(FileExporter(args.telemetry_out, telemetry))
    server = None
    if args.telemetry_port is not None:
        server = TelemetryServer(telemetry, port=args.telemetry_port)
        try:
            port = server.start()
        except OSError as exc:
            raise OSError(
                f"--telemetry-port {args.telemetry_port}: {exc.strerror or exc}"
            ) from None
        print(f"telemetry: scrape http://127.0.0.1:{port}/metrics "
              f"(health: /health)")
    return telemetry, server


def _print_telemetry_summary(telemetry: Telemetry) -> None:
    """Post-run SLO health + steady-state roll-up of a telemetered serve."""
    health = telemetry.health()
    verdict = "healthy" if health["healthy"] else "UNHEALTHY"
    print(f"SLO health: {verdict} ({health['alerts']} alert transitions)")
    for state in health["rules"]:
        mark = "FIRING" if state["firing"] else "ok"
        print(
            f"  [{mark:>6}] {state['rule']}  "
            f"breached {state['breached_windows']} windows, "
            f"fired {state['fired_count']}x"
        )
    steady = telemetry.steady_state()
    if steady:
        from repro.analysis.steady_state import steady_state_table

        print("steady state (MSER-5 warm-up, batch-means CI):")
        print(steady_state_table(steady))


def _print_service_summary(result: ServiceResult) -> None:
    """The roll-up a service run prints: totals, faults, budget, windows."""
    totals = result.totals
    if result.truncated:
        print("stop requested: stream cut, committed work drained")
    print(
        f"{result.label} [{result.traffic}]: {totals.arrivals} arrivals "
        f"({totals.mapped} mapped, {totals.discarded} discarded), "
        f"{totals.completed} completed ({totals.late} late), "
        f"makespan {result.makespan:.0f}"
    )
    if result.fault_totals is not None:
        _print_fault_totals(result.fault_totals)
    print(
        f"energy {result.total_energy / 1e6:.2f} MJ over {len(result.windows)} "
        f"windows of {result.window:.0f} s"
    )
    if result.trial_result is None and result.traffic != "replay":
        print(
            f"allowance drawn {result.budget_drawn / 1e6:.2f} MJ "
            f"(deficit {result.budget_deficit / 1e6:.2f} MJ)"
        )
    if result.trial_result is not None:
        batch = result.trial_result
        print(
            f"batch-equivalent score: missed {batch.missed}/{batch.num_tasks} "
            f"({batch.late} late, {batch.discarded} discarded, "
            f"{batch.energy_cutoff} after budget exhaustion)"
        )
    _print_windows(result)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the engine as a continuous service and summarize its windows.

    SIGINT/SIGTERM trigger a graceful shutdown: the arrival stream is
    cut, committed work drains, the final partial window is flushed
    (``--windows-out`` then ends with a truncation trailer) and the
    process exits 0.
    """
    scenario, _ = _flag_scenario(args)
    with _bad_input(args):
        out = _Outputs(args, label=scenario.label, timeline_cap=args.timeline_cap)
        telemetry, server = _resolve_telemetry(args)
    stop_requested = False

    def _request_stop(signum: int, frame: Any) -> None:
        nonlocal stop_requested
        stop_requested = True

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with _bad_input(args):
            result = run_scenario(
                scenario,
                timeline=out.timeline,
                stop=lambda: stop_requested,
                telemetry=telemetry,
            )
    except BaseException:
        if server is not None:
            server.stop()
        raise
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    _print_service_summary(result)
    if telemetry is not None:
        _print_telemetry_summary(telemetry)
    if args.windows_out:
        count = write_windows_jsonl(result, args.windows_out)
        print(f"wrote {args.windows_out} ({count} windows)")
    if args.telemetry_out:
        for exporter in telemetry.exporters:
            exporter.export()
        print(f"wrote {args.telemetry_out}")
    out.write()
    if server is not None:
        if args.telemetry_linger > 0.0:
            # Leave the endpoint scrapeable after the simulation ends so
            # a collector (or the CI smoke job) can take a final sample.
            import time

            print(f"telemetry: lingering {args.telemetry_linger:.0f}s for scrapes")
            try:
                time.sleep(args.telemetry_linger)
            except KeyboardInterrupt:
                pass
        server.stop()
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Tail window JSONL (or scrape a live endpoint) into a dashboard.

    With a file source, ``--follow`` polls for newly appended rows and
    re-renders until the truncation trailer lands or Ctrl-C.  With an
    ``http(s)://`` source, each refresh prints the raw Prometheus
    scrape (the serving process owns the rendering).
    """
    try:
        rules = [parse_rule(spec) for spec in args.slo or []]
    except ValueError as exc:
        raise SystemExit(f"--slo: {exc}")
    if args.source.startswith(("http://", "https://")):
        import time

        while True:
            try:
                print(scrape(args.source), end="")
            except OSError as exc:
                raise SystemExit(f"repro monitor: cannot scrape {args.source}: {exc}")
            if not args.follow:
                return 0
            time.sleep(args.interval)
            print()
    import time

    rows: list[dict[str, Any]] = []
    trailer: dict[str, Any] | None = None
    offset = 0
    skipped = 0
    rendered: tuple[int, int] | None = None
    while True:
        try:
            new_rows, new_trailer, offset, new_skipped = read_window_rows(
                args.source, offset=offset
            )
        except OSError as exc:
            raise SystemExit(f"repro monitor: cannot read {args.source}: {exc}")
        rows.extend(new_rows)
        skipped += new_skipped
        trailer = new_trailer or trailer
        if (len(rows), skipped) != rendered or not args.follow:
            if args.follow and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(
                render_monitor(
                    rows,
                    rules=rules,
                    tail=args.tail,
                    budget_rate=args.budget_rate,
                    trailer=trailer,
                    skipped=skipped,
                ),
                end="",
            )
            rendered = (len(rows), skipped)
        if not args.follow or trailer is not None:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _print_ensemble(ensemble: EnsembleResult, svg_dir: str | None) -> bool:
    """Print the per-heuristic tables; False when no trial completed.

    An ensemble that lost every trial to quarantine has nothing to
    tabulate: it prints ``no completed trials`` instead, and the caller
    exits 1 through :func:`_no_completed_trials`.
    """
    if not _has_trials(ensemble):
        print("no completed trials")
        return False
    tasks = next(rs for rs in ensemble.results.values() if rs)[0].num_tasks
    heuristics = sorted(
        {s.heuristic for s in ensemble.specs},
        # Paper heuristics keep the figures' order; third-party plugin
        # names sort alphabetically after them.
        key=lambda h: (
            HEURISTICS.index(h) if h in HEURISTICS else len(HEURISTICS),
            h,
        ),
    )
    for heuristic in heuristics:
        print(figure_table(ensemble, heuristic, tasks))
        print()
        columns = ensemble.by_heuristic(heuristic)
        print(ascii_boxplot_group(columns, title=f"{heuristic} missed deadlines"))
        print()
        if svg_dir:
            path = save_boxplot_svg(
                columns,
                f"{svg_dir}/{heuristic.lower()}_misses.svg",
                title=f"{heuristic}: missed deadlines",
            )
            print(f"wrote {path}")
    if len(heuristics) > 1:
        print(best_variant_table(ensemble, tasks))
        print()
        print(summary_table(ensemble, tasks))
    return True


def _has_trials(ensemble: EnsembleResult) -> bool:
    """Whether any trial completed (quarantine can take every one)."""
    return any(ensemble.results.values())


def _no_completed_trials(args: argparse.Namespace) -> SystemExit:
    """The one-line exit of an ensemble command whose every trial failed."""
    return SystemExit(f"repro {args.command}: no completed trials")


def _report_partial(ensemble: EnsembleResult) -> None:
    """Print what a supervised run could not recover (quarantined trials)."""
    if not isinstance(ensemble, PartialEnsembleResult) or ensemble.is_complete():
        return
    missing = ", ".join(str(i) for i in ensemble.missing_trials)
    print(
        f"WARNING: only {len(ensemble.completed_trials)} of "
        f"{ensemble.num_trials} trials completed (missing: {missing})"
    )
    for failure in ensemble.failures:
        print(
            f"  quarantined trial {failure.trial} after {failure.attempts} "
            f"attempts ({failure.fault}): {failure.detail}"
        )


def _run_ensemble_command(specs: list[VariantSpec], args: argparse.Namespace) -> int:
    """Shared figure/grid body: run, render, save results + manifest + metrics."""
    with _bad_input(args):
        config = Scenario(seed=args.seed, num_tasks=args.tasks).resolved_config()
    # Ensemble-level traces carry the executor's recovery events
    # (retries, quarantines, checkpoints); per-task events stay in the
    # workers and are summarized by --metrics-out instead.
    with _bad_input(args), _Outputs(args) as out:
        ensemble = run_ensemble(
            specs, config, args.trials, base_seed=args.seed,
            n_jobs=args.jobs, metrics=out.metrics,
            checkpoint=args.checkpoint, resume=args.resume,
            trial_timeout=args.trial_timeout, max_retries=args.max_retries,
            profile=out.profile, timeline=out.timelines, sinks=out.sinks,
        )
    _report_partial(ensemble)
    printed = _print_ensemble(ensemble, args.svg_dir)
    if args.out:
        save_json(ensemble_to_dict(ensemble), args.out)
        print(f"wrote {args.out}")
        manifest_path = pathlib.Path(args.out).with_suffix(".manifest.json")
        save_manifest(build_manifest(ensemble, config), manifest_path)
        print(f"wrote {manifest_path}")
    out.write()
    if not printed:
        raise _no_completed_trials(args)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Rerun one of the paper's figures at the requested scale."""
    return _run_ensemble_command(figure_specs(args.figure), args)


def cmd_grid(args: argparse.Namespace) -> int:
    """Run the full 16-variant evaluation grid."""
    return _run_ensemble_command(full_grid_specs(), args)


def _companion_path(manifest_path: str) -> pathlib.Path:
    """Default ``--metrics`` companion: ``x.manifest.json`` -> ``x.metrics.json``."""
    path = pathlib.Path(manifest_path)
    name = path.name
    if name.endswith(".manifest.json"):
        return path.with_name(name[: -len(".manifest.json")] + ".metrics.json")
    return path.with_suffix(".metrics.json")


def _render_companion(data: Any) -> str:
    """Pretty-print a metrics / profile / timeline companion document."""
    if isinstance(data, dict) and data.get("format") == "repro.metrics/1":
        return metrics_tables(data)
    if isinstance(data, dict) and data.get("format") == TIMELINE_FORMAT:
        return timeline_table(TimelineSet.from_dict(data))
    if isinstance(data, list) or (isinstance(data, dict) and "traceEvents" in data):
        events = data if isinstance(data, list) else data["traceEvents"]
        return profile_table([e for e in events if isinstance(e, dict)])
    raise ValueError(
        "unrecognized companion document (expected repro.metrics/1, "
        "repro.timeline/1, or Chrome traceEvents JSON)"
    )


def cmd_inspect_manifest(args: argparse.Namespace) -> int:
    """Render a run manifest; optionally verify saved results/trace."""
    with _bad_input(args, args.manifest):
        manifest = load_manifest(args.manifest)
    print(manifest.summary())
    code = 0
    if args.results:
        ensemble = _load_ensemble(args, args.results)
        problems = verify_ensemble(manifest, ensemble)
        if problems:
            for problem in problems:
                print(f"MISMATCH: {problem}")
            code = 1
        else:
            print(f"results match: {args.results} is the run this manifest describes")
    if args.trace:
        with _bad_input(args, args.trace):
            events = load_trace(args.trace)
        print()
        print(trace_summary_table(events))
    if args.metrics is not None:
        companion = (
            _companion_path(args.manifest)
            if args.metrics == ""
            else pathlib.Path(args.metrics)
        )
        with _bad_input(args, companion):
            rendered = _render_companion(load_json(companion))
        print()
        print(f"# {companion.name}")
        print(rendered)
    return code


def cmd_profile(args: argparse.Namespace) -> int:
    """Render a top-spans table from a saved Chrome trace profile."""
    with _bad_input(args, args.profile):
        events = load_profile_events(args.profile)
    print(profile_table(events, limit=args.limit))
    if args.timeline:
        with _bad_input(args, args.timeline):
            timeline = load_timeline(args.timeline)
        print()
        print(timeline_table(timeline))
        if args.svg_dir:
            for stream in timeline.sorted_streams():
                safe = str(stream["label"]).replace("/", "-").replace(":", "_")
                path = save_timeline_svg(stream, f"{args.svg_dir}/timeline_{safe}.svg")
                print(f"wrote {path}")
    return 0


def _load_ensemble(args: argparse.Namespace, path: str) -> EnsembleResult:
    """Read a saved ``repro.ensemble/1`` document; bad files exit with one line."""
    with _bad_input(args, path):
        return ensemble_from_dict(load_json(path))


def cmd_report(args: argparse.Namespace) -> int:
    """Re-render tables from a saved ensemble JSON."""
    ensemble = _load_ensemble(args, args.results)
    if not _print_ensemble(ensemble, args.svg_dir):
        raise _no_completed_trials(args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the energy-budget multiplier over given specs."""
    from repro.experiments.sweep import budget_sweep

    with _bad_input(args):
        specs = tuple(_parse_spec(s) for s in args.specs)
        config = Scenario(seed=args.seed, num_tasks=args.tasks).resolved_config()
    with _bad_input(args), _Outputs(args) as out:
        sweep = budget_sweep(
            args.multipliers, specs, config, args.trials, base_seed=args.seed,
            n_jobs=args.jobs,
            checkpoint=args.checkpoint, resume=args.resume,
            trial_timeout=args.trial_timeout, max_retries=args.max_retries,
            metrics=out.metrics, profile=out.profile, timeline=out.timelines,
            sinks=out.sinks,
        )
    for point in sweep.points:
        _report_partial(point.ensemble)
    if not any(_has_trials(point.ensemble) for point in sweep.points):
        print("no completed trials")
        out.write()
        raise _no_completed_trials(args)
    print(sweep.table(num_tasks=args.tasks))
    out.write()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a scenario file end to end, printing the mode's summary."""
    with _bad_input(args):
        scenario = Scenario.from_file(args.scenario)
    shown = scenario.name or pathlib.Path(args.scenario).stem
    print(f"scenario {shown}: {scenario.label}, mode {scenario.mode} "
          f"(digest {scenario.digest()[:12]})")
    with _bad_input(args):
        result = run_scenario(scenario)
    if scenario.mode == "trial":
        _print_trial_result(result)
    elif scenario.mode == "ensemble":
        _report_partial(result)
        if not _print_ensemble(result, None):
            raise _no_completed_trials(args)
    else:
        _print_service_summary(result)
    return 0


def _iter_scenario_files(root: pathlib.Path) -> list[pathlib.Path]:
    if root.is_file():
        return [root]
    return sorted(
        path
        for pattern in ("*.toml", "*.json")
        for path in root.glob(pattern)
    )


def cmd_scenarios(args: argparse.Namespace) -> int:
    """The scenario toolbox: list / validate / show files, plugin catalog."""
    if args.action == "plugins":
        try:
            rows = describe_plugins(args.kind)
        except KeyError as exc:
            raise SystemExit(f"repro scenarios plugins: {exc}")
        print(plugin_table(rows))
        return 0

    if args.action == "list":
        root = pathlib.Path(args.dir)
        files = _iter_scenario_files(root)
        if not files:
            print(f"no scenario files under {root}")
            return 0
        code = 0
        for path in files:
            try:
                scenario = Scenario.from_file(path)
            except (OSError, ScenarioError) as exc:
                print(f"{path.name}: INVALID ({exc})")
                code = 1
                continue
            shown = scenario.name or path.stem
            print(
                f"{path.name}: {shown} — {scenario.label}, mode "
                f"{scenario.mode}, digest {scenario.digest()[:12]}"
            )
        return code

    if args.action == "validate":
        code = 0
        for name in args.files:
            try:
                scenario = Scenario.from_file(name)
            except (OSError, ScenarioError) as exc:
                print(f"{name}: INVALID\n  {exc}")
                code = 1
                continue
            print(f"{name}: ok ({scenario.label}, mode {scenario.mode}, "
                  f"digest {scenario.digest()[:12]})")
        return code

    # show: the canonical rendering after validation + canonicalization
    try:
        scenario = Scenario.from_file(args.file)
    except (OSError, ScenarioError) as exc:
        raise SystemExit(f"repro scenarios show: {exc}")
    print(scenario.to_toml(), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Paired significance test between two saved specs."""
    ensemble = _load_ensemble(args, args.results)
    if not _has_trials(ensemble):
        raise _no_completed_trials(args)
    with _bad_input(args):
        a, b = _parse_spec(args.a), _parse_spec(args.b)
    comparison = compare_variants(ensemble, a, b)
    print(comparison)
    verdict = "significant" if comparison.significant(args.alpha) else "not significant"
    print(f"difference is {verdict} at alpha={args.alpha}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-constrained dynamic resource allocation (ICPP 2011) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = _obs_parent()

    p = sub.add_parser("calibrate", help="print subscription/budget diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "trial", help="run a single trial of one policy", parents=[obs]
    )
    _add_common(p)
    _add_policy(p)
    _add_faults(p)
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("serve", help="run the engine as a continuous service")
    _add_common(p)
    _add_policy(p)
    p.add_argument(
        "--traffic",
        default="poisson",
        type=_traffic_name,
        help="arrival model, any registered traffic plugin "
        f"(builtin: {', '.join(TRAFFIC_MODELS)}; 'replay' streams the "
        "batch workload's own tasks)",
    )
    p.add_argument(
        "--rate-mult",
        type=float,
        default=1.0,
        help="mean arrival rate as a multiple of the equilibrium rate",
    )
    p.add_argument(
        "--swing",
        type=float,
        default=0.75,
        help="peak-to-mean swing of diurnal/mmpp traffic, in [0, 1)",
    )
    p.add_argument(
        "--phase-length",
        type=float,
        default=None,
        help="mean traffic-phase length in simulated seconds (default: 5 windows)",
    )
    p.add_argument(
        "--window",
        type=float,
        default=None,
        help="metric window in simulated seconds (default: 50 equilibrium arrivals)",
    )
    p.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="stop admitting arrivals after this simulated time",
    )
    p.add_argument(
        "--task-limit",
        type=int,
        default=None,
        help="stop admitting arrivals after this many tasks",
    )
    p.add_argument(
        "--budget-rate-mult",
        type=float,
        default=1.0,
        help="allowance accrual as a multiple of the offered load's average cost",
    )
    p.add_argument(
        "--budget-cap-windows",
        type=float,
        default=4.0,
        help="allowance pool cap, in windows' worth of accrual",
    )
    p.add_argument(
        "--budget-cap",
        type=float,
        default=None,
        help="absolute allowance pool cap in joules (overrides --budget-cap-windows)",
    )
    p.add_argument(
        "--planning-tasks",
        type=int,
        default=None,
        help="energy filter fair-share divisor (default: one window of arrivals)",
    )
    p.add_argument("--windows-out", help="write one JSON line per window here")
    p.add_argument(
        "--timeline-out",
        help="write sampled system-state timelines (repro.timeline/1 JSON) here",
    )
    p.add_argument(
        "--timeline-dt",
        type=float,
        default=60.0,
        help="simulated seconds between timeline samples (default: 60)",
    )
    p.add_argument(
        "--timeline-cap",
        type=int,
        default=None,
        help="keep only the newest N timeline samples (ring buffer)",
    )
    tele = p.add_argument_group("telemetry")
    tele.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="serve Prometheus /metrics and JSON /health on this port (0 = ephemeral)",
    )
    tele.add_argument(
        "--telemetry-out",
        help="atomically republish the Prometheus rendering to this file per window",
    )
    tele.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO alert rule like 'on_time_prob<0.9:3' (repeatable); "
        "metrics: on_time_prob, queue_depth, burn_rate, budget_remaining, shed, ...",
    )
    tele.add_argument(
        "--telemetry-linger",
        type=float,
        default=0.0,
        help="keep the scrape endpoint up this many wall seconds after the run",
    )
    _add_faults(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "run", help="run a declarative scenario file (TOML or JSON)"
    )
    p.add_argument(
        "--scenario",
        required=True,
        metavar="FILE",
        help="scenario .toml/.json (see docs/scenarios.md and examples/scenarios/)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "scenarios", help="list/validate/show scenario files; plugin catalog"
    )
    scen = p.add_subparsers(dest="action", required=True)
    sp = scen.add_parser("list", help="summarize every scenario file in a directory")
    sp.add_argument(
        "dir",
        nargs="?",
        default="examples/scenarios",
        help="directory of .toml/.json scenario files (default: examples/scenarios)",
    )
    sp = scen.add_parser("validate", help="validate scenario files; exit 1 on errors")
    sp.add_argument("files", nargs="+", help="scenario files to check")
    sp = scen.add_parser("show", help="print a scenario's canonical TOML form")
    sp.add_argument("file", help="scenario file to render")
    sp = scen.add_parser("plugins", help="print the plugin catalog")
    sp.add_argument(
        "--kind",
        default=None,
        choices=("heuristic", "filter", "traffic", "admission"),
        help="restrict the catalog to one plugin family",
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "monitor", help="tail window JSONL or a telemetry endpoint into a dashboard"
    )
    p.add_argument(
        "source", help="window JSONL path (from serve --windows-out) or http:// endpoint"
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new windows until the run truncates or Ctrl-C",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="poll interval in wall seconds (default: 2)",
    )
    p.add_argument(
        "--tail", type=int, default=10, help="recent windows shown in the table"
    )
    p.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO rule evaluated over the rows, e.g. 'on_time_prob<0.9:3' (repeatable)",
    )
    p.add_argument(
        "--budget-rate",
        type=float,
        default=None,
        help="allowance accrual (J/s) enabling the burn_rate column",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "figure", help="rerun one of the paper's figures", parents=[obs]
    )
    _add_common(p)
    p.add_argument("figure", choices=sorted(FIGURES))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="save the ensemble JSON here (plus its manifest)")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    _add_resilience(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "grid", help="run the full 16-variant evaluation", parents=[obs]
    )
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="save the ensemble JSON here (plus its manifest)")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    _add_resilience(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "inspect-manifest", help="render a run manifest; verify results against it"
    )
    p.add_argument("manifest", help="JSON written next to grid/figure --out")
    p.add_argument("--results", help="saved ensemble JSON to verify digests against")
    p.add_argument("--trace", help="JSONL event trace to summarize alongside")
    p.add_argument(
        "--metrics",
        nargs="?",
        const="",
        default=None,
        help="pretty-print a metrics/profile/timeline companion JSON "
        "(default: the sibling .metrics.json of the manifest)",
    )
    p.set_defaults(func=cmd_inspect_manifest)

    p = sub.add_parser(
        "profile", help="render a top-spans table from a saved span profile"
    )
    p.add_argument("profile", help="Chrome trace-event JSON written by --profile-out")
    p.add_argument("--limit", type=int, default=20, help="rows in the top-spans table")
    p.add_argument("--timeline", help="also digest this --timeline-out JSON")
    p.add_argument("--svg-dir", help="write one timeline SVG per stream here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="re-render tables from a saved ensemble")
    p.add_argument("results", help="JSON written by grid/figure --out")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "sweep", help="sweep the energy-budget multiplier", parents=[obs]
    )
    _add_common(p)
    p.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=[0.7, 0.85, 1.0, 1.15, 1.3],
        help="budget multipliers to sweep",
    )
    p.add_argument(
        "--specs",
        nargs="+",
        default=["MECT/none", "LL/en+rob"],
        help="specs to compare, e.g. LL/en+rob",
    )
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    _add_resilience(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="paired significance test of two specs")
    p.add_argument("results", help="JSON written by grid/figure --out")
    p.add_argument("a", help="baseline spec, e.g. LL/none")
    p.add_argument("b", help="challenger spec, e.g. LL/en+rob")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
