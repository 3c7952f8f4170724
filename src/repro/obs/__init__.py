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
  adapter that plugs into the engine's ``EngineHooks`` protocol, plus
  :func:`~repro.obs.hooks.observe_trial`;
* :mod:`repro.obs.manifest` — run manifests (config digest, seeds,
  version, git SHA, per-trial result digests) so any saved figure is
  reproducible from the manifest sitting next to it;
* :mod:`repro.obs.spans` — nested wall-clock span profiling with
  per-worker streams, merged deterministically and exportable as
  Chrome trace-event JSON (Perfetto-loadable);
* :mod:`repro.obs.timeline` — system-state snapshots (queue depth,
  busy cores, energy estimate, completions/discards) sampled on a
  uniform simulated-time grid;
* :mod:`repro.obs.telemetry` — live service instruments (counters,
  EWMA rates, P² streaming quantiles), SLO alert rules and online
  steady-state estimates, inert by default (:data:`NULL_TELEMETRY`);
* :mod:`repro.obs.export` — telemetry export surfaces: Prometheus text
  rendering, an atomic file exporter, and a stdlib HTTP scrape
  endpoint (:class:`TelemetryServer`);
* :mod:`repro.obs.monitor` — the ``repro monitor`` dashboard: tail
  window JSONL (or scrape a live endpoint) into a terminal view.

Observability is strictly opt-in: ``run_trial`` with no hooks allocates
no event objects, and :mod:`repro.sim.engine` never imports this
package.
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
from repro.obs.spans import SpanProfile, SpanRecorder, recording, span, traced
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    AlertRule,
    NullTelemetry,
    P2Quantile,
    Telemetry,
    parse_rule,
)
from repro.obs.timeline import TimelineRecorder, TimelineSet

__all__ = [
    "AlertFired",
    "AlertResolved",
    "AlertRule",
    "NULL_TELEMETRY",
    "NullTelemetry",
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
    "recording",
    "span",
    "traced",
    "TimelineRecorder",
    "TimelineSet",
]
