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
  traffic models) is a plugin registry
  (:mod:`repro.registry`): ``@register_heuristic("mine")`` — or an
  ``entry_points(group="repro.plugins")`` hook in a third-party
  package — makes a name constructible from the CLI and from scenario
  files; :func:`describe_plugins` renders the catalog.
* **Running it** — :func:`run_scenario` (a scenario object or file,
  dispatched on its mode), :func:`run_trial` (one trial, through
  :func:`observe_trial`), :func:`run_ensemble` (paired trials, optionally
  fanned out over processes), :func:`run_service` (continuous-service
  mode) and :func:`budget_sweep` (the energy-tightness sweep).  The
  scenario alone states a run's faults, shedding and service shape.
  :func:`run_ensemble` and :func:`budget_sweep` take one scenario whose
  ``[ensemble]`` section gives trials, base seed and grid cells.
  :func:`run_trial`, :func:`run_ensemble` and :func:`budget_sweep`
  accept the observability collectors (:class:`MetricsRegistry`,
  :class:`SpanProfile` or :class:`SpanRecorder`, :class:`TimelineSet`
  or :class:`TimelineRecorder`, event sinks); :func:`run_service` takes
  only a ``timeline`` and a live ``telemetry`` hub.
* **Inspecting results** — :class:`TrialResult`,
  :class:`EnsembleResult` and :class:`PartialEnsembleResult`.
* **The value types underneath** — :class:`PMF` and
  :class:`SimulationConfig`, for scripts that construct custom
  workloads or distributions.

The pre-facade entry points are gone; ``docs/api.md`` lists each
removed name with its replacement.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.config import SimulationConfig
from repro.experiments.runner import (
    EnsembleResult,
    PartialEnsembleResult,
    VariantSpec,
    policy_for,
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
    FILTER_PLUGINS,
    HEURISTIC_PLUGINS,
    TRAFFIC_PLUGINS,
    PluginRegistry,
    UnknownPluginError,
    describe_plugins,
    load_entry_point_plugins,
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
from repro.obs.telemetry import AlertRule, Telemetry, parse_rule
from repro.obs.timeline import TimelineRecorder, TimelineSet
from repro.perf.kernel_cache import CacheStats, KernelCache
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
    "register_heuristic",
    "register_filter",
    "register_traffic",
    "describe_plugins",
    "load_entry_point_plugins",
    # running it
    "run_scenario",
    "run_trial",
    "run_ensemble",
    "budget_sweep",
    "run_service",
    "ServiceConfig",
    "ServiceResult",
    "WindowStats",
    "write_windows_jsonl",
    # live telemetry + steady state
    "Telemetry",
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
    "CacheStats",
    "KernelCache",
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
) -> TrialResult:
    """Run one trial of a scenario.

    Pass ``system`` to reuse an already-built
    :class:`TrialSystem` (e.g. to run several scenarios against the
    identical workload draw, the paper's pairing discipline); otherwise
    the scenario builds its own.  Runs over one system share its
    candidate-builder tables.  Observability collectors are
    results-neutral: the returned :class:`TrialResult` is bitwise
    identical for any combination.  Per-task outcomes are dropped unless
    ``keep_outcomes``.

    The scenario's ``faults`` (a :class:`FaultSettings`, resolved by
    :meth:`Scenario.resolved_faults`) and ``shedding`` sections are
    injected; without them the run is bitwise identical to one on a
    build without the fault layer.
    """
    if system is None:
        system = scenario.build_system()
    heuristic, chain = policy_for(system, scenario.spec)
    faults, fault_policy = scenario.resolved_faults()
    result = observe_trial(
        system,
        heuristic,
        chain,
        sinks=sinks,
        metrics=metrics,
        profile=profile,
        timeline=timeline,
        faults=faults,
        fault_policy=fault_policy,
        shedding=scenario.shedding,
    )
    return result if keep_outcomes else replace(result, outcomes=())


def run_service(
    scenario: Scenario,
    *,
    system: TrialSystem | None = None,
    timeline: TimelineRecorder | None = None,
    stop: Callable[[], bool] | None = None,
    telemetry: Telemetry | None = None,
) -> ServiceResult:
    """Run one scenario in continuous-service mode.

    The scenario's ``service`` section selects the traffic model,
    windowing and rolling energy budget, and its ``faults`` /
    ``shedding`` sections the fault layer
    (:meth:`Scenario.resolved_service`).  Without a ``service`` section
    the run is ``ServiceConfig(traffic="replay")``: the batch workload
    streamed through the service loop, finite and batch-equivalent.  A
    generative :class:`ServiceConfig` (``poisson`` and the rest) needs a
    ``horizon`` or ``task_limit``.

    ``system`` reuses a prebuilt :class:`TrialSystem` exactly as in
    :func:`run_trial`; ``timeline`` attaches a (optionally
    ring-buffered) :class:`TimelineRecorder`.  ``stop`` is the
    graceful-shutdown probe: once it returns true the arrival stream is
    cut, committed work drains and the result is marked truncated.

    Replay mode's :attr:`ServiceResult.trial_result` is bitwise
    identical to what :func:`run_trial` returns for the same scenario.

    ``telemetry`` subscribes a live :class:`Telemetry` hub (streaming
    quantiles, SLO rules, online steady-state detection); ``None``
    attaches none.  The hub only reads, so the run is bitwise identical
    either way.
    """
    if system is None:
        system = scenario.build_system()
    return _serve_system(
        system,
        scenario.spec,
        scenario.resolved_service(),
        timeline=timeline,
        stop=stop,
        telemetry=telemetry,
    )


def run_scenario(
    scenario: Scenario | str | Path,
    **options: object,
):
    """Run a scenario — an object or a ``.toml`` / ``.json`` file path.

    Dispatches on :attr:`Scenario.mode`:

    * ``"trial"`` — one :func:`run_trial` call, returning a
      :class:`TrialResult`.
    * ``"ensemble"`` — one :func:`run_ensemble` call, returning an
      :class:`EnsembleResult`.
    * ``"service"`` — one :func:`run_service` call, returning a
      :class:`ServiceResult`.

    Extra keyword ``options`` forward to the mode's runner (collectors,
    ``n_jobs``, ...), so a scenario file pins the experiment
    while the call site adds observability.
    """
    if isinstance(scenario, (str, Path)):
        scenario = Scenario.from_file(scenario)
    if scenario.mode == "trial":
        return run_trial(scenario, **options)  # type: ignore[arg-type]
    if scenario.mode == "ensemble":
        return run_ensemble(scenario, **options)  # type: ignore[arg-type]
    return run_service(scenario, **options)  # type: ignore[arg-type]


def _ensemble_args(scenario: Scenario, n_jobs: int | None) -> tuple[tuple[Any, ...], int]:
    """``(specs, config, num_trials, base_seed)`` and the worker count of
    a scenario's ensemble, all from its ``[ensemble]`` section."""
    scenario.require_fault_free()
    settings = scenario.resolved_ensemble()
    config = scenario.resolved_config()
    base_seed = config.seed if settings.base_seed is None else settings.base_seed
    args = (scenario.ensemble_specs, config, settings.num_trials, base_seed)
    return args, settings.n_jobs if n_jobs is None else n_jobs


def run_ensemble(
    scenario: Scenario,
    *,
    n_jobs: int | None = None,
    keep_outcomes: bool = False,
    metrics: MetricsRegistry | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanProfile | None = None,
    timeline: TimelineSet | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    trial_timeout: float | None = None,
    max_retries: int = 2,
) -> EnsembleResult:
    """Run the paired ensemble a scenario describes.

    The scenario's ``[ensemble]`` section (:class:`EnsembleSettings`,
    its defaults when omitted) alone gives the trial count and the base
    seed (``None``: the scenario's resolved seed); trial ``i`` derives
    its own seed from it.  Its ``specs`` name the grid cells, the
    ``[policy]`` cell without them; within a trial every cell sees the
    identical task stream.  ``n_jobs`` defaults to the section's and
    changes no result.  The resilience options
    (``checkpoint``/``resume``/``trial_timeout``/``max_retries``) and
    collectors forward to :func:`repro.experiments.runner.run_ensemble`.
    Ensembles inject no faults: a scenario with active ``faults`` or any
    ``shedding`` raises ``ValueError``.
    """
    args, n_jobs = _ensemble_args(scenario, n_jobs)
    return _run_ensemble(
        *args, n_jobs=n_jobs, keep_outcomes=keep_outcomes,
        metrics=metrics, sinks=sinks, profile=profile, timeline=timeline,
        checkpoint=checkpoint, resume=resume,
        trial_timeout=trial_timeout, max_retries=max_retries,
    )


def budget_sweep(
    scenario: Scenario,
    multipliers: Sequence[float],
    *,
    n_jobs: int | None = None,
    metrics: MetricsRegistry | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanProfile | None = None,
    timeline: TimelineSet | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    trial_timeout: float | None = None,
    max_retries: int = 2,
) -> SweepResult:
    """Run a scenario's ensemble at every energy-budget multiplier.

    Each point is :func:`run_ensemble` of the scenario with its budget
    scaled, under the same rules and options; ``checkpoint`` fans out to
    one shard per point (``name.pointN.jsonl``).
    """
    args, n_jobs = _ensemble_args(scenario, n_jobs)
    return _budget_sweep(
        multipliers, *args, n_jobs=n_jobs,
        metrics=metrics, sinks=sinks, profile=profile, timeline=timeline,
        checkpoint=checkpoint, resume=resume,
        trial_timeout=trial_timeout, max_retries=max_retries,
    )
