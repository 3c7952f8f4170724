"""Running ensembles of paired trials.

Pairing discipline: trial ``i`` of an ensemble derives its seed from
``(base_seed, "trial", i)`` and builds **one**
:class:`~repro.sim.system.TrialSystem`; every requested (heuristic,
variant) spec then runs against that same system.  Task arrival times,
types, deadlines, the cluster, and each task's execution-time "luck" are
therefore identical across variants within a trial — differences in
missed deadlines are attributable to the policies alone, matching the
paper's methodology ("task arrival times, task deadlines, and task types
vary across simulation trials; all other parameters are held constant").

Trials are independent, so the runner can fan them out over processes
(``n_jobs``); results are deterministic regardless of ``n_jobs``.  The
fan-out is *supervised* (:mod:`repro.experiments.executor`): a crashing
worker forfeits only its in-flight trial, hung trials are killed at
``trial_timeout``, failed trials retry with deterministic backoff, and
poison trials are quarantined after ``max_retries`` — the ensemble then
comes back as a :class:`PartialEnsembleResult` naming what is missing
instead of aborting.  With ``checkpoint=`` every completed trial streams
to a JSONL shard and ``resume=True`` skips verified checkpointed trials,
so long sweeps survive interruption.

Observability rides along without perturbing that determinism: pass a
:class:`~repro.obs.sinks.MetricsRegistry` and each worker process fills
its own registry (counters, discard causes, queue-depth histograms),
which the parent merges after the fan-in;
recovery actions emit ``TrialRetried`` / ``TrialQuarantined`` /
``CheckpointWritten`` events to ``sinks`` and ``executor.*`` counters.
Metrics describe the run; they never steer it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.config import SimulationConfig
from repro.experiments.chaos import FaultPlan
from repro.experiments.executor import (
    CheckpointWriter,
    RetryPolicy,
    TrialFailure,
    load_checkpoint,
    run_supervised,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.obs.events import CheckpointWritten, Event
from repro.obs.hooks import observe_trial
from repro.obs.manifest import config_digest
from repro.obs.sinks import EventSink, MetricsRegistry
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.timeline import TimelineRecorder, TimelineSet
from repro.perf.kernel_cache import KernelCache
from repro.sim.results import TrialResult
from repro.sim.system import TrialSystem, build_trial_system

__all__ = [
    "VariantSpec",
    "EnsembleResult",
    "PartialEnsembleResult",
    "policy_for",
    "run_ensemble",
]


@dataclass(frozen=True)
class VariantSpec:
    """One cell of the evaluation grid: a heuristic plus a filter variant."""

    heuristic: str
    variant: str

    @property
    def label(self) -> str:
        """Display label, e.g. ``"LL/en+rob"``."""
        return f"{self.heuristic}/{self.variant}"


def policy_for(system: TrialSystem, spec: VariantSpec):
    """The seeded (heuristic, filter chain) pair of one spec.

    The Random heuristic's generator derives from the trial seed and the
    spec label, so it is reproducible and independent across variants.
    Single source of the policy construction, shared by the batch path
    below and by :mod:`repro.service` — a replayed service run therefore
    starts from the identical policy state as its batch counterpart.
    """
    rng = rng_mod.stream(system.config.seed, "heuristic", spec.label)
    heuristic = build_heuristic(spec.heuristic, rng)
    chain = build_filter_chain(spec.variant, system.config.filters)
    return heuristic, chain


#: What one trial sends back to the parent: per-spec results, then the
#: serialized metrics registry, span stream and timeline streams (each
#: ``None``/empty when its collection was off or the trial was restored
#: from a checkpoint, which stores only the first two).
_TrialValue = tuple[
    list[TrialResult], dict[str, Any] | None, dict[str, Any] | None, list[dict[str, Any]] | None
]


def _run_one_trial(
    args: tuple[
        SimulationConfig,
        int,
        int,
        tuple[VariantSpec, ...],
        bool,
        bool,
        bool,
        float | None,
    ],
) -> _TrialValue:
    """Worker: build trial ``i``'s system and run every spec against it.

    Returns the per-spec results plus, when requested, the worker's
    metrics / span stream / timelines serialized for the trip back to
    the parent process.  Span *and* timeline streams share the id
    ``trial_index + 1`` (stream 0 is the parent supervisor), so streams
    merge deterministically regardless of which pool slot ran the trial
    and a trial's spans correlate with its timelines by stream id.

    One :class:`~repro.perf.KernelCache` spans all specs: they run
    against the same system, so the truncation kernels warmed by the
    first spec serve the rest, as do the builder tables memoized on the
    system's execution-time table (results-neutral; see
    :mod:`repro.perf`).
    """
    (
        config,
        base_seed,
        trial_index,
        specs,
        keep_outcomes,
        collect_metrics,
        collect_spans,
        timeline_dt,
    ) = args
    seed = rng_mod.spawn_trial_seed(base_seed, trial_index)
    recorder = (
        SpanRecorder(stream=trial_index + 1, label=f"trial-{trial_index}")
        if collect_spans
        else None
    )
    if recorder is not None:
        with recorder.span("trial.build_system"):
            system = build_trial_system(config.with_seed(seed))
    else:
        system = build_trial_system(config.with_seed(seed))
    registry = MetricsRegistry() if collect_metrics else None
    timelines: list[dict[str, Any]] | None = [] if timeline_dt is not None else None
    kernel_cache = KernelCache()
    results = []
    for spec in specs:
        tl = (
            TimelineRecorder(
                timeline_dt,
                stream=trial_index + 1,
                label=f"trial{trial_index}:{spec.label}",
            )
            if timeline_dt is not None
            else None
        )
        heuristic, chain = policy_for(system, spec)
        result = observe_trial(
            system,
            heuristic,
            chain,
            metrics=registry,
            profile=recorder,
            timeline=tl,
            kernel_cache=kernel_cache,
        )
        results.append(result if keep_outcomes else replace(result, outcomes=()))
        if tl is not None and timelines is not None:
            timelines.append(tl.to_dict())
    return (
        results,
        registry.to_dict() if registry is not None else None,
        recorder.to_dict() if recorder is not None else None,
        timelines,
    )


@dataclass(frozen=True)
class EnsembleResult:
    """All trial results of an ensemble, organized by spec.

    ``results[spec]`` lists one :class:`~repro.sim.results.TrialResult`
    per trial, in trial order.
    """

    specs: tuple[VariantSpec, ...]
    num_trials: int
    base_seed: int
    results: dict[VariantSpec, tuple[TrialResult, ...]]

    def misses(self, spec: VariantSpec) -> np.ndarray:
        """Missed-deadline counts across trials for one spec."""
        return np.array([r.missed for r in self.results[spec]], dtype=np.int64)

    def median_misses(self, spec: VariantSpec) -> float:
        """Median missed deadlines for one spec."""
        return float(np.median(self.misses(spec)))

    def by_heuristic(self, heuristic: str) -> dict[str, np.ndarray]:
        """variant -> misses array, for one heuristic (a figure's columns)."""
        return {
            spec.variant: self.misses(spec)
            for spec in self.specs
            if spec.heuristic == heuristic
        }

    def best_variant(self, heuristic: str) -> VariantSpec:
        """The heuristic's variant with the lowest median misses."""
        candidates = [s for s in self.specs if s.heuristic == heuristic]
        if not candidates:
            raise KeyError(f"no specs for heuristic {heuristic!r}")
        return min(candidates, key=lambda s: (self.median_misses(s), s.variant))


@dataclass(frozen=True)
class PartialEnsembleResult(EnsembleResult):
    """An ensemble that lost trials to quarantine (graceful, not silent).

    ``num_trials`` stays the *requested* count; ``results[spec]`` holds
    only the completed trials (in trial order), so medians are computed
    over ``len(completed_trials)`` values.  ``failures`` carries the
    post-mortem of every quarantined trial.
    """

    completed_trials: tuple[int, ...]
    failures: tuple[TrialFailure, ...]

    @property
    def missing_trials(self) -> tuple[int, ...]:
        """Requested trial indices with no result."""
        have = set(self.completed_trials)
        return tuple(i for i in range(self.num_trials) if i not in have)

    @property
    def quarantined_trials(self) -> tuple[int, ...]:
        """Trial indices that exhausted their retry budget."""
        return tuple(sorted({f.trial for f in self.failures}))

    def is_complete(self) -> bool:
        """Whether every requested trial actually completed."""
        return len(self.completed_trials) == self.num_trials


def run_ensemble(
    specs: list[VariantSpec] | tuple[VariantSpec, ...],
    config: SimulationConfig,
    num_trials: int,
    base_seed: int = 0,
    *,
    n_jobs: int = 1,
    keep_outcomes: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
    fault_plan: FaultPlan | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanProfile | None = None,
    timeline: TimelineSet | None = None,
) -> EnsembleResult:
    """Run ``num_trials`` paired trials of every spec.

    Parameters
    ----------
    n_jobs:
        Worker processes; 1 (default) runs in-process.  Results are
        identical for any value.  Non-positive values are rejected.
    keep_outcomes:
        Retain per-task outcome tuples (larger results; off by default).
    metrics:
        Optional registry to aggregate observability metrics into.  Each
        worker fills its own registry; after the fan-in they are merged
        into this one (order-independent, so ``n_jobs`` does not change
        the totals).  Recovery actions land in ``executor.*`` counters.
    checkpoint:
        Stream each completed trial to this JSONL shard (keyed by the
        config digest and ``base_seed``).  Without ``resume`` the shard
        is started fresh.
    resume:
        Skip trials already present in ``checkpoint`` whose stored
        digests re-verify; new completions append to the same shard.
    trial_timeout:
        Per-trial wall-clock limit (seconds, positive).  A trial that
        overruns is killed and retried.  Setting it (or ``fault_plan``) forces the
        supervised worker pool even at ``n_jobs=1``.
    max_retries / backoff_base / backoff_cap:
        Retry budget per trial (``>= 0``; checked before any work, at
        every ``n_jobs``) and its exponential-backoff shape; jitter
        is deterministic (see
        :class:`~repro.experiments.executor.RetryPolicy`).  A trial
        failing ``max_retries + 1`` attempts is quarantined and the
        ensemble returns a :class:`PartialEnsembleResult`.
    fault_plan:
        Deterministic chaos injection (tests/CI only); see
        :mod:`repro.experiments.chaos`.
    sinks:
        Event sinks receiving executor-level events (``TrialRetried``,
        ``TrialQuarantined``, ``CheckpointWritten``).
    profile:
        Optional :class:`~repro.obs.spans.SpanProfile` to merge span
        streams into: one stream per trial (id ``trial + 1``) plus the
        parent supervisor's ``executor.trial`` spans on stream 0.
        Stream ids are keyed by trial, not pool slot, so the merged
        profile's span names/counts are identical for any ``n_jobs``.
        Trials restored from a checkpoint carry no spans.
    timeline:
        Optional :class:`~repro.obs.timeline.TimelineSet`; each trial
        contributes one sampled state timeline per spec at the set's
        ``dt``, on the same stream id as the trial's spans
        (``trial + 1``).  Fully deterministic for a fixed seed.
    """
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one variant spec")
    if num_trials < 1:
        raise ValueError("need at least one trial")
    if n_jobs < 1:
        raise ValueError(
            f"n_jobs must be a positive worker count, got {n_jobs} "
            "(use n_jobs=1 for the in-process serial path)"
        )
    if trial_timeout is not None and trial_timeout <= 0:
        raise ValueError(f"trial_timeout must be positive, got {trial_timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    if fault_plan is not None and fault_plan.needs_timeout() and trial_timeout is None:
        raise ValueError("a fault plan with 'hang' faults requires trial_timeout")

    # Checkpoint shards always carry worker metrics so a resumed run can
    # restore them; collection stays off on the plain fast path.
    collect = metrics is not None or checkpoint is not None
    collect_spans = profile is not None
    timeline_dt = timeline.dt if timeline is not None else None
    parent_recorder = (
        SpanRecorder(stream=0, label="supervisor") if profile is not None else None
    )
    labels = [spec.label for spec in specs]

    def emit(event: Event) -> None:
        for sink in sinks:
            sink.emit(event)

    done: dict[int, _TrialValue] = {}
    failures: tuple[TrialFailure, ...] = ()
    writer: CheckpointWriter | None = None
    if checkpoint is not None:
        digest = config_digest(config)
        if resume:
            restored, _ = load_checkpoint(
                checkpoint,
                config_digest=digest,
                base_seed=base_seed,
                spec_labels=labels,
                num_trials=num_trials,
            )
            # Checkpoints store (results, metrics) only; restored trials
            # contribute no spans or timelines.
            done.update(
                {t: (res, mets, None, None) for t, (res, mets) in restored.items()}
            )
            if metrics is not None and restored:
                metrics.inc("executor.trials_resumed", len(restored))
        writer = CheckpointWriter(
            checkpoint,
            config_digest=digest,
            base_seed=base_seed,
            spec_labels=labels,
            keep_outcomes=keep_outcomes,
            append=resume,
        )

    def record(trial: int, value: _TrialValue) -> None:
        done[trial] = value
        if writer is not None:
            writer.write(trial, value[0], value[1])
            if metrics is not None:
                metrics.inc("executor.checkpoints_written")
            emit(CheckpointWritten(trial=trial, path=str(writer.path), records=writer.records))

    pending = [i for i in range(num_trials) if i not in done]
    try:
        if pending:
            payloads = {
                i: (
                    config, base_seed, i, specs, keep_outcomes,
                    collect, collect_spans, timeline_dt,
                )
                for i in pending
            }
            supervised = n_jobs > 1 or trial_timeout is not None or fault_plan is not None
            if supervised:
                _, failed = run_supervised(
                    _run_one_trial,
                    payloads,
                    base_seed=base_seed,
                    n_jobs=n_jobs,
                    trial_timeout=trial_timeout,
                    retry=RetryPolicy(
                        max_retries=max_retries,
                        backoff_base=backoff_base,
                        backoff_cap=backoff_cap,
                    ),
                    fault_plan=fault_plan,
                    on_result=record,
                    on_event=emit,
                    metrics=metrics,
                    profile=parent_recorder,
                )
                failures = tuple(failed)
            else:
                for i in pending:
                    if parent_recorder is not None:
                        with parent_recorder.span("executor.trial"):
                            record(i, _run_one_trial(payloads[i]))
                    else:
                        record(i, _run_one_trial(payloads[i]))
    finally:
        if writer is not None:
            writer.close()

    if metrics is not None:
        for trial in sorted(done):
            metrics_dict = done[trial][1]
            if metrics_dict is not None:
                metrics.merge(MetricsRegistry.from_dict(metrics_dict))
    if profile is not None:
        if parent_recorder is not None and parent_recorder.records:
            profile.add_stream(parent_recorder)
        for trial in sorted(done):
            span_stream = done[trial][2]
            if span_stream is not None:
                profile.add_stream(span_stream)
    if timeline is not None:
        for trial in sorted(done):
            timeline_streams = done[trial][3]
            for stream in timeline_streams or ():
                timeline.add(stream)

    completed = tuple(sorted(done))
    results: dict[VariantSpec, tuple[TrialResult, ...]] = {
        spec: tuple(done[i][0][s_idx] for i in completed)
        for s_idx, spec in enumerate(specs)
    }
    if len(completed) == num_trials:
        return EnsembleResult(
            specs=specs, num_trials=num_trials, base_seed=base_seed, results=results
        )
    return PartialEnsembleResult(
        specs=specs,
        num_trials=num_trials,
        base_seed=base_seed,
        results=results,
        completed_trials=completed,
        failures=failures,
    )
