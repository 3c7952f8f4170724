"""The energy-budget sweep, with paired trials.

A sweep reruns one or more (heuristic, variant) specs while varying the
energy-budget multiplier, holding trial seeds fixed, so each sweep point
is directly comparable (same workload/cluster draws per trial index).
Used by ``repro sweep``, :func:`repro.api.budget_sweep` and
``examples/energy_budget_sweep.py``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.experiments.runner import EnsembleResult, VariantSpec, run_ensemble
from repro.obs.sinks import EventSink, MetricsRegistry
from repro.obs.spans import SpanProfile
from repro.obs.timeline import TimelineSet

__all__ = ["SweepPoint", "SweepResult", "budget_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One sweep value's ensemble."""

    value: Any
    ensemble: EnsembleResult

    def median_misses(self, spec: VariantSpec) -> float:
        """Median missed deadlines of one spec at this point."""
        return self.ensemble.median_misses(spec)


@dataclass(frozen=True)
class SweepResult:
    """All points of a sweep, in sweep order."""

    parameter: str
    specs: tuple[VariantSpec, ...]
    points: tuple[SweepPoint, ...]

    def medians(self, spec: VariantSpec) -> np.ndarray:
        """Median misses per sweep point for one spec."""
        return np.array([p.median_misses(spec) for p in self.points])

    def values(self) -> list[Any]:
        """The swept parameter values."""
        return [p.value for p in self.points]

    def table(self, num_tasks: int | None = None) -> str:
        """Fixed-width text table: one row per value, one column per spec."""
        header = f"{self.parameter:>12} " + " ".join(
            f"{s.label:>14}" for s in self.specs
        )
        lines = [header]
        for point in self.points:
            row = [f"{point.value!s:>12}"]
            for spec in self.specs:
                row.append(f"{point.median_misses(spec):14.1f}")
            lines.append(" ".join(row))
        if num_tasks is not None:
            lines.append(f"(median missed deadlines out of {num_tasks})")
        return "\n".join(lines)


def _point_checkpoint(
    checkpoint: str | pathlib.Path | None, index: int
) -> pathlib.Path | None:
    """Per-point shard path: sweep points have different config digests,
    so each point gets its own JSONL shard next to the requested one."""
    if checkpoint is None:
        return None
    path = pathlib.Path(checkpoint)
    suffix = path.suffix or ".jsonl"
    return path.with_name(f"{path.stem}.point{index}{suffix}")


def budget_sweep(
    multipliers: Sequence[float],
    specs: Sequence[VariantSpec],
    base_config: SimulationConfig,
    num_trials: int,
    base_seed: int = 0,
    *,
    n_jobs: int = 1,
    checkpoint: str | pathlib.Path | None = None,
    resume: bool = False,
    trial_timeout: float | None = None,
    max_retries: int = 2,
    metrics: MetricsRegistry | None = None,
    sinks: Sequence[EventSink] = (),
    profile: SpanProfile | None = None,
    timeline: TimelineSet | None = None,
) -> SweepResult:
    """Run ``specs`` at every energy-budget multiplier (the constraint's
    tightness), in the order given.

    Parameters
    ----------
    checkpoint / resume / trial_timeout / max_retries:
        Resilience options forwarded to
        :func:`~repro.experiments.runner.run_ensemble`; ``checkpoint``
        fans out to one shard per sweep point
        (``name.pointN.jsonl``), so an interrupted sweep resumes
        point by point.
    metrics / sinks / profile / timeline:
        Observability collectors forwarded to every point's ensemble;
        one registry / span profile / timeline set accumulates across
        the whole sweep (points are distinguishable by span stream
        labels and timeline labels).
    """
    multipliers = list(multipliers)
    if not multipliers:
        raise ValueError("need at least one sweep value")
    specs = tuple(specs)
    points: list[SweepPoint] = []
    for index, mult in enumerate(multipliers):
        ensemble = run_ensemble(
            specs,
            base_config.with_updates(energy={"budget_mult": mult}),
            num_trials,
            base_seed,
            n_jobs=n_jobs,
            checkpoint=_point_checkpoint(checkpoint, index),
            resume=resume,
            trial_timeout=trial_timeout,
            max_retries=max_retries,
            metrics=metrics,
            sinks=sinks,
            profile=profile,
            timeline=timeline,
        )
        points.append(SweepPoint(value=mult, ensemble=ensemble))
    return SweepResult(parameter="budget_mult", specs=specs, points=tuple(points))
