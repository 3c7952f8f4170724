"""Observability: structured events, sinks, metrics and run manifests.

The simulator's headline numbers compress thousands of per-event
decisions — the running energy estimate ``zeta(t_l)``, the chosen
assignment's on-time probability ``rho``, discard causes — into a
handful of scalars per trial.  This package makes those decisions
inspectable without touching the engine's hot path:

* :mod:`repro.obs.events` — typed, frozen event records
  (``TaskMapped``, ``TaskDiscarded``, ``TaskCompleted``,
  ``EnergyExhausted``, ``TrialStarted``, ``TrialFinished``, plus the
  executor's recovery events ``TrialRetried``, ``TrialQuarantined``,
  ``CheckpointWritten``) with a stable JSON round-trip;
* :mod:`repro.obs.sinks` — destinations for those events: a JSONL
  trace writer, an in-memory ring buffer, and a
  :class:`~repro.obs.sinks.MetricsRegistry` of counters and histograms
  that merges across worker processes;
* :mod:`repro.obs.hooks` — the :class:`~repro.obs.hooks.ObservingHooks`
  subscriber that turns the engine's ``EngineHooks`` callbacks into events, plus
  :func:`~repro.obs.hooks.observe_trial`;
* :mod:`repro.obs.manifest` — run manifests (config digest, seeds,
  version, git SHA, per-trial result digests) so any saved figure is
  reproducible from the manifest sitting next to it;
* :mod:`repro.obs.spans` — nested wall-clock span profiling with
  per-worker streams, merged deterministically and exportable as
  Chrome trace-event JSON (Perfetto-loadable);
* :mod:`repro.obs.timeline` — system-state snapshots (queue depth,
  busy cores, energy estimate, completions/discards) sampled on a
  uniform simulated-time grid by another ``EngineHooks`` subscriber;
* :mod:`repro.obs.telemetry` — live service instruments (counters,
  EWMA rates, P² streaming quantiles), SLO alert rules and online
  steady-state estimates, fed by the
  :class:`~repro.obs.telemetry.Telemetry` hub — a third ``EngineHooks``
  subscriber, attached only when a service run asks for one;
* :mod:`repro.obs.export` — telemetry export surfaces: Prometheus text
  rendering, an atomic file exporter, and a stdlib HTTP scrape
  endpoint (:class:`TelemetryServer`), whose handler
  (:mod:`repro.obs.scrape`) loads only when a server starts;
* :mod:`repro.obs.monitor` — the ``repro monitor`` dashboard: tail
  window JSONL (or scrape a live endpoint) into a terminal view.

Observability is strictly opt-in: ``observe_trial`` with no sinks,
metrics or timeline subscribes nothing and allocates no event objects,
and :mod:`repro.sim.engine` never imports this package.
"""

from repro.obs.events import (
    AlertFired,
    AlertResolved,
    CheckpointWritten,
    EnergyExhausted,
    Event,
    TaskCompleted,
    TaskDiscarded,
    TaskMapped,
    TrialFinished,
    TrialQuarantined,
    TrialRetried,
    TrialStarted,
    event_from_dict,
    event_to_dict,
)
from repro.obs.export import FileExporter, TelemetryServer, to_prometheus
from repro.obs.hooks import (
    ObservingHooks,
    TimedFilterChain,
    TimedHeuristic,
    observe_trial,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_digest,
    load_manifest,
    manifest_for_results,
    save_manifest,
    trial_digest,
    verify_ensemble,
)
from repro.obs.sinks import JsonlSink, MetricsRegistry, RingBufferSink
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.telemetry import AlertRule, P2Quantile, Telemetry, parse_rule
from repro.obs.timeline import TimelineRecorder, TimelineSet

__all__ = [
    "AlertFired",
    "AlertResolved",
    "AlertRule",
    "P2Quantile",
    "Telemetry",
    "parse_rule",
    "FileExporter",
    "TelemetryServer",
    "to_prometheus",
    "CheckpointWritten",
    "EnergyExhausted",
    "Event",
    "TaskCompleted",
    "TaskDiscarded",
    "TaskMapped",
    "TrialFinished",
    "TrialQuarantined",
    "TrialRetried",
    "TrialStarted",
    "event_from_dict",
    "event_to_dict",
    "ObservingHooks",
    "TimedFilterChain",
    "TimedHeuristic",
    "observe_trial",
    "RunManifest",
    "build_manifest",
    "config_digest",
    "load_manifest",
    "manifest_for_results",
    "save_manifest",
    "trial_digest",
    "verify_ensemble",
    "JsonlSink",
    "MetricsRegistry",
    "RingBufferSink",
    "SpanProfile",
    "SpanRecorder",
    "TimelineRecorder",
    "TimelineSet",
]
