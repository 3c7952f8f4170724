"""repro.api — the stable facade over the reproduction.

Everything a study script needs lives here under one import, with the
compatibility promise that names in ``__all__`` keep their signatures
across releases (internal modules may move; this module will keep
re-exporting them):

>>> from repro import api
>>> result = api.run_trial(api.Scenario("LL", "en+rob", seed=42, num_tasks=100))
>>> 0 <= result.missed <= 100
True

The facade groups five things:

* **Describing an experiment** — :class:`Scenario` names a policy
  (heuristic + filter variant), the workload scale/seed, and the run
  shape (trial / ensemble / service).  The same object round-trips
  through one TOML or JSON file (:meth:`Scenario.from_file` /
  :meth:`Scenario.to_file`, :mod:`repro.scenario`).
* **Extending it** — every policy-shaped family (heuristics, filters,
  traffic models, admission policies) is a plugin registry
  (:mod:`repro.registry`): ``@register_heuristic("mine")`` — or an
  ``entry_points(group="repro.plugins")`` hook in a third-party
  package — makes a name constructible from the CLI and from scenario
  files; :func:`describe_plugins` renders the catalog.
* **Running it** — :func:`run_scenario` (a scenario object or file,
  dispatched on its mode), :func:`run_trial` (one trial, built on
  :class:`TrialPlan`), :func:`run_ensemble` (paired trials, optionally
  fanned out over processes), :func:`run_service` (continuous-service
  mode) and :func:`budget_sweep` (the energy-tightness sweep).  All
  accept the observability collectors (:class:`MetricsRegistry`,
  :class:`SpanProfile`, :class:`TimelineSet`, event sinks) and the
  :class:`PerfConfig` performance knobs.
* **Inspecting results** — :class:`TrialResult`,
  :class:`EnsembleResult` and :class:`PartialEnsembleResult`.
* **The value types underneath** — :class:`PMF` and
  :class:`SimulationConfig`, for scripts that construct custom
  workloads or distributions.

The pre-facade entry points are gone; ``docs/api.md`` lists each
removed name with its replacement.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.config import SimulationConfig
from repro.experiments.runner import (
    EnsembleResult,
    PartialEnsembleResult,
    TrialPlan,
    VariantSpec,
)
from repro.experiments.runner import run_ensemble as _run_ensemble
from repro.experiments.sweep import SweepResult
from repro.experiments.sweep import budget_sweep as _budget_sweep
from repro.faults import (
    FaultEvent,
    FaultPolicy,
    FaultSchedule,
    FaultStats,
    SheddingConfig,
)
from repro.filters.chain import VARIANTS as FILTER_VARIANTS
from repro.filters.chain import FilterChain, build_filter_chain, canonical_variant
from repro.heuristics.registry import HEURISTICS, build_heuristic
from repro.registry import (
    ADMISSION_PLUGINS,
    FILTER_PLUGINS,
    HEURISTIC_PLUGINS,
    TRAFFIC_PLUGINS,
    PluginRegistry,
    UnknownPluginError,
    describe_plugins,
    load_entry_point_plugins,
    register_admission,
    register_filter,
    register_heuristic,
    register_traffic,
)
from repro.scenario import (
    MODES,
    SCENARIO_FORMAT,
    EnsembleSettings,
    FaultSettings,
    Scenario,
    ScenarioError,
)
from repro.analysis.steady_state import (
    SteadyStateSummary,
    analyze_windows,
    steady_state_table,
)
from repro.obs.export import FileExporter, TelemetryServer
from repro.obs.hooks import observe_trial
from repro.obs.sinks import EventSink, JsonlSink, MetricsRegistry, RingBufferSink
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    AlertRule,
    Telemetry,
    parse_rule,
)
from repro.obs.timeline import TimelineRecorder, TimelineSet
from repro.perf.kernel_cache import CacheStats, PerfConfig
from repro.perf.trial_cache import TrialCache
from repro.service import ServiceConfig, ServiceResult, write_windows_jsonl
from repro.service import serve_system as _serve_system
from repro.sim.metrics import WindowStats
from repro.sim.results import TrialResult
from repro.sim.system import TrialSystem, build_trial_system
from repro.stoch.pmf import PMF

__all__ = [
    # describing an experiment
    "Scenario",
    "ScenarioError",
    "EnsembleSettings",
    "FaultSettings",
    "MODES",
    "SCENARIO_FORMAT",
    "VariantSpec",
    "HEURISTICS",
    "FILTER_VARIANTS",
    "build_heuristic",
    "build_filter_chain",
    "canonical_variant",
    "FilterChain",
    "SimulationConfig",
    "build_trial_system",
    "TrialSystem",
    # the plugin registries
    "PluginRegistry",
    "UnknownPluginError",
    "HEURISTIC_PLUGINS",
    "FILTER_PLUGINS",
    "TRAFFIC_PLUGINS",
    "ADMISSION_PLUGINS",
    "register_heuristic",
    "register_filter",
    "register_traffic",
    "register_admission",
    "describe_plugins",
    "load_entry_point_plugins",
    # running it
    "run_scenario",
    "run_trial",
    "TrialPlan",
    "run_ensemble",
    "budget_sweep",
    "run_service",
    "ServiceConfig",
    "ServiceResult",
    "WindowStats",
    "write_windows_jsonl",
    # live telemetry + steady state
    "Telemetry",
    "NULL_TELEMETRY",
    "AlertRule",
    "parse_rule",
    "FileExporter",
    "TelemetryServer",
    "SteadyStateSummary",
    "analyze_windows",
    "steady_state_table",
    # fault layer
    "FaultEvent",
    "FaultSchedule",
    "FaultPolicy",
    "FaultStats",
    "SheddingConfig",
    "observe_trial",
    "PerfConfig",
    "CacheStats",
    "TrialCache",
    # observability collectors
    "MetricsRegistry",
    "JsonlSink",
    "RingBufferSink",
    "SpanProfile",
    "SpanRecorder",
    "TimelineRecorder",
    "TimelineSet",
    # results
    "TrialResult",
    "EnsembleResult",
    "PartialEnsembleResult",
    "SweepResult",
    # value types
    "PMF",
]


def run_trial(
    scenario: Scenario,
    *,
    system: TrialSystem | None = None,
    keep_outcomes: bool = False,
    metrics: MetricsRegistry | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanRecorder | None = None,
    timeline: TimelineRecorder | None = None,
    perf: PerfConfig | None = None,
    shared: TrialCache | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    shedding: SheddingConfig | None = None,
) -> TrialResult:
    """Run one trial of a scenario.

    Pass ``system`` to reuse an already-built
    :class:`TrialSystem` (e.g. to run several scenarios against the
    identical workload draw, the paper's pairing discipline); otherwise
    the scenario builds its own.  When reusing a system across
    scenarios, a single :class:`TrialCache` passed as ``shared`` lets
    later runs reuse the kernel cache and mapper tables the first run
    warmed.  Observability collectors, the ``perf`` knobs and
    ``shared`` are results-neutral: the returned :class:`TrialResult`
    is bitwise identical for any combination.

    ``faults`` injects an in-simulation :class:`FaultSchedule` (node or
    core outages, slowdowns) with recovery behavior set by
    ``fault_policy``; ``shedding`` attaches the overload admission
    controller.  All three default to ``None``: a fault-free run is
    bitwise identical to one on a build without the fault layer.
    """
    return TrialPlan.from_scenario(
        scenario,
        system=system,
        keep_outcomes=keep_outcomes,
        metrics=metrics,
        sinks=sinks,
        profile=profile,
        timeline=timeline,
        perf=perf,
        shared=shared,
        faults=faults,
        fault_policy=fault_policy,
        shedding=shedding,
    ).run()


def run_service(
    scenario: Scenario,
    service: ServiceConfig | None = None,
    *,
    system: TrialSystem | None = None,
    timeline: TimelineRecorder | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    perf: PerfConfig | None = None,
) -> ServiceResult:
    """Run one scenario in continuous-service mode.

    ``service`` selects the traffic model, windowing and rolling energy
    budget (default: equilibrium-rate Poisson replayed over the batch
    workload is *not* assumed — the default :class:`ServiceConfig` is
    generative, so a ``horizon`` or ``task_limit`` is required; pass
    ``ServiceConfig(traffic="replay")`` for the finite batch-equivalent
    run).  ``system`` reuses a prebuilt :class:`TrialSystem` exactly as
    in :func:`run_trial`; ``timeline`` attaches a (optionally
    ring-buffered) :class:`TimelineRecorder`.

    Replay mode's :attr:`ServiceResult.trial_result` is bitwise
    identical to what :func:`run_trial` returns for the same scenario.

    ``telemetry`` attaches a live :class:`Telemetry` hub (streaming
    quantiles, SLO rules, online steady-state detection); the inert
    default keeps the run bitwise identical to an untelemetered one.

    ``perf`` selects the hot-path performance knobs
    (:class:`PerfConfig`, including the compiled kernel ``backend``).
    """
    if service is None:
        service = ServiceConfig(traffic="replay")
    if system is None:
        system = scenario.build_system()
    return _serve_system(
        system,
        scenario.spec,
        service,
        timeline=timeline,
        telemetry=telemetry,
        perf=perf,
    )


def run_scenario(
    scenario: Scenario | str | Path,
    **options: object,
):
    """Run a scenario — an object or a ``.toml`` / ``.json`` file path.

    Dispatches on :attr:`Scenario.mode`:

    * ``"trial"`` — one :class:`TrialPlan` run, returning a
      :class:`TrialResult`.  Scenario-level ``[faults]`` / ``[shedding]``
      sections are resolved and injected.
    * ``"ensemble"`` — paired trials per the scenario's ``[ensemble]``
      settings, returning an :class:`EnsembleResult`; bitwise identical
      to :func:`run_ensemble` with the same arguments.
    * ``"service"`` — continuous-service mode per the scenario's
      ``[service]`` settings (batch-equivalent replay when omitted),
      returning a :class:`ServiceResult`.

    Extra keyword ``options`` forward to the mode's runner (collectors,
    ``n_jobs``, ``perf``, ...), so a scenario file pins the experiment
    while the call site adds observability.
    """
    if isinstance(scenario, (str, Path)):
        scenario = Scenario.from_file(scenario)
    if scenario.mode == "trial":
        faults, fault_policy = scenario.resolved_faults()
        return run_trial(
            scenario,
            faults=faults,
            fault_policy=fault_policy,
            shedding=scenario.shedding,
            **options,  # type: ignore[arg-type]
        )
    if scenario.mode == "ensemble":
        settings = scenario.resolved_ensemble()
        options.setdefault("n_jobs", settings.n_jobs)
        return run_ensemble(
            scenario,
            settings.num_trials,
            base_seed=settings.base_seed,
            **options,  # type: ignore[arg-type]
        )
    return run_service(scenario, scenario.resolved_service(), **options)  # type: ignore[arg-type]


def _common_config(scenarios: Sequence[Scenario]) -> SimulationConfig:
    """The single resolved config an ensemble's scenarios must share."""
    config = scenarios[0].resolved_config()
    for other in scenarios[1:]:
        if other.resolved_config() != config:
            raise ValueError(
                "ensemble scenarios must share one workload configuration "
                f"({other.label} differs from {scenarios[0].label}); vary only "
                "the heuristic/filters, or run separate ensembles"
            )
    return config


def run_ensemble(
    scenarios: Scenario | Sequence[Scenario],
    num_trials: int,
    *,
    base_seed: int | None = None,
    n_jobs: int = 1,
    keep_outcomes: bool = False,
    metrics: MetricsRegistry | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanProfile | None = None,
    timeline: TimelineSet | None = None,
    perf: PerfConfig | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    chunk_size: int | None = None,
) -> EnsembleResult:
    """Run ``num_trials`` paired trials of one or more scenarios.

    All scenarios must resolve to the same workload configuration (the
    pairing discipline: within a trial every policy sees the identical
    task stream).  ``base_seed`` defaults to the scenarios' shared seed
    override, falling back to the configured master seed; trial ``i``
    derives its own seed from it.  The resilience options
    (``checkpoint``/``resume``/``trial_timeout``/``max_retries``), the
    ``chunk_size`` dispatch knob, and collectors forward to
    :func:`repro.experiments.runner.run_ensemble`.
    """
    scens = (scenarios,) if isinstance(scenarios, Scenario) else tuple(scenarios)
    if not scens:
        raise ValueError("need at least one scenario")
    config = _common_config(scens)
    if base_seed is None:
        base_seed = config.seed
    return _run_ensemble(
        [s.spec for s in scens],
        config,
        num_trials,
        base_seed,
        n_jobs=n_jobs,
        keep_outcomes=keep_outcomes,
        metrics=metrics,
        sinks=sinks,
        profile=profile,
        timeline=timeline,
        perf=perf,
        checkpoint=checkpoint,
        resume=resume,
        trial_timeout=trial_timeout,
        max_retries=max_retries,
        chunk_size=chunk_size,
    )


def budget_sweep(
    scenarios: Scenario | Sequence[Scenario],
    multipliers: Sequence[float],
    num_trials: int,
    *,
    base_seed: int | None = None,
    n_jobs: int = 1,
    perf: PerfConfig | None = None,
) -> SweepResult:
    """Sweep the energy-budget multiplier over one or more scenarios."""
    scens = (scenarios,) if isinstance(scenarios, Scenario) else tuple(scenarios)
    if not scens:
        raise ValueError("need at least one scenario")
    config = _common_config(scens)
    if base_seed is None:
        base_seed = config.seed
    return _budget_sweep(
        multipliers,
        [s.spec for s in scens],
        config,
        num_trials,
        base_seed,
        n_jobs=n_jobs,
        perf=perf,
    )
