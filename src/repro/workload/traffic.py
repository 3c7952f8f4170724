"""Lazy open-loop traffic generators for continuous-service mode.

The batch workload materializes every arrival up front
(:func:`~repro.workload.arrivals.bursty_poisson_arrivals`); an always-on
service cannot.  This module generates arrival *streams* — unbounded
iterators of arrival times, and of :class:`~repro.workload.task.Task`
objects stamped from them — pulled one event at a time by the engine's
lazy event loop.

Time streams
------------
* :func:`poisson_times` — homogeneous Poisson at a fixed rate.
* :func:`piecewise_times` — nonhomogeneous Poisson with a
  piecewise-constant rate schedule, optionally cycled (diurnal).
* :func:`diurnal_times` — two-phase day/night convenience wrapper.
* :func:`mmpp_times` — Markov-modulated Poisson (random exponential
  dwells per modulation state; bursty on/off traffic).
* :func:`trace_times` — replay a recorded trace, validating monotonicity.
* :func:`merge_times` / :func:`splice_times` — combine streams while
  preserving monotone arrival order.

All generators draw from a caller-supplied :class:`numpy.random.Generator`
(derive one with :func:`repro.rng.stream`), one scalar draw per event, so
a stream's prefix is bitwise-reproducible for a fixed seed regardless of
how far it is consumed.  The nonhomogeneous generators integrate the
hazard of unit-exponential draws across segment boundaries, so a
single-segment schedule of infinite duration reproduces
:func:`poisson_times` bit for bit.

Task streams
------------
:class:`TaskFactory` stamps a time stream into tasks, drawing the type of
each task from its own sub-stream and assigning the paper's deadline
(Section VI: arrival + per-type mean execution time + load factor).
:func:`replay_tasks` wraps an existing materialized workload as a stream,
reducing the service loop to batch semantics.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.config import WorkloadConfig
from repro.registry import TrafficContext, register_traffic
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = [
    "TrafficContext",
    "poisson_times",
    "piecewise_times",
    "diurnal_times",
    "mmpp_times",
    "trace_times",
    "merge_times",
    "splice_times",
    "TaskFactory",
    "replay_tasks",
]


def poisson_times(
    rate: float, rng: np.random.Generator, *, start: float = 0.0
) -> Iterator[float]:
    """Unbounded homogeneous Poisson arrival times.

    The first arrival is one exponential gap after ``start`` (matching
    the batch generator, whose process starts at time zero).
    """
    if not (rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate}")
    t = float(start)
    while True:
        t += float(rng.standard_exponential()) / rate
        yield t


def _nhpp(
    segments: Iterator[tuple[float, float]], rng: np.random.Generator, start: float
) -> Iterator[float]:
    """Nonhomogeneous Poisson times over ``(segment_end, rate)`` pieces.

    Each unit-exponential draw is one unit of hazard, spent across
    segments at their rates; a segment of rate zero contributes nothing.
    The iterator ends when the segments do.
    """
    try:
        seg_end, rate = next(segments)
    except StopIteration:
        return
    t = float(start)
    while True:
        need = float(rng.standard_exponential())
        while True:
            if rate > 0.0:
                nt = t + need / rate
                if nt < seg_end:
                    t = nt
                    break
                need -= (seg_end - t) * rate
            elif math.isinf(seg_end):
                return  # zero rate forever: no further arrivals
            t = seg_end
            try:
                seg_end, rate = next(segments)
            except StopIteration:
                return
        yield t


def piecewise_times(
    schedule: Sequence[tuple[float, float]],
    rng: np.random.Generator,
    *,
    cycle: bool = False,
    start: float = 0.0,
) -> Iterator[float]:
    """Arrival times of a piecewise-constant-rate Poisson process.

    ``schedule`` is a sequence of ``(duration, rate)`` segments laid out
    from ``start``; with ``cycle=True`` it repeats forever (a diurnal
    profile).  Rates may be zero (a quiet segment); the final duration
    may be ``inf`` for a non-cycled open-ended tail.
    """
    sched = [(float(d), float(r)) for d, r in schedule]
    if not sched:
        raise ValueError("schedule must have at least one segment")
    for dur, rate in sched:
        if not (dur > 0.0):
            raise ValueError(f"segment durations must be positive, got {dur}")
        if rate < 0.0:
            raise ValueError(f"rates must be non-negative, got {rate}")
    if cycle:
        if any(math.isinf(d) for d, _ in sched):
            raise ValueError("a cycled schedule needs finite durations")
        if all(r == 0.0 for _, r in sched):
            raise ValueError("a cycled schedule needs at least one positive rate")

    def segments() -> Iterator[tuple[float, float]]:
        t0 = float(start)
        pieces = itertools.cycle(sched) if cycle else iter(sched)
        for dur, rate in pieces:
            t0 += dur
            yield t0, rate

    return _nhpp(segments(), rng, start)


def diurnal_times(
    mean_rate: float,
    rng: np.random.Generator,
    *,
    period: float,
    swing: float = 0.75,
    start: float = 0.0,
) -> Iterator[float]:
    """Two-phase day/night cycle around ``mean_rate``.

    Each period spends half its length at ``(1 + swing)`` times the mean
    rate and half at ``(1 - swing)`` times it, so the long-run mean rate
    is ``mean_rate`` for any ``swing`` in ``[0, 1)``.
    """
    if not (mean_rate > 0.0):
        raise ValueError(f"mean_rate must be positive, got {mean_rate}")
    if not (period > 0.0):
        raise ValueError(f"period must be positive, got {period}")
    if not (0.0 <= swing < 1.0):
        raise ValueError(f"swing must be in [0, 1), got {swing}")
    half = period / 2.0
    schedule = [(half, mean_rate * (1.0 + swing)), (half, mean_rate * (1.0 - swing))]
    return piecewise_times(schedule, rng, cycle=True, start=start)


def mmpp_times(
    rates: Sequence[float],
    dwell_means: Sequence[float],
    rng: np.random.Generator,
    *,
    start: float = 0.0,
) -> Iterator[float]:
    """Markov-modulated Poisson process cycling its modulation states.

    State ``s`` emits Poisson arrivals at ``rates[s]`` for an
    exponential dwell of mean ``dwell_means[s]``, then hands over to the
    next state (wrapping around) — for two states this is the classic
    on/off burst model.  Dwell draws and arrival draws interleave on the
    single ``rng``, so the whole process is one reproducible stream.
    """
    rate_vec = [float(r) for r in rates]
    dwell_vec = [float(d) for d in dwell_means]
    if len(rate_vec) != len(dwell_vec) or not rate_vec:
        raise ValueError("rates and dwell_means must be equal-length and non-empty")
    if any(r < 0.0 for r in rate_vec) or all(r == 0.0 for r in rate_vec):
        raise ValueError("rates must be non-negative with at least one positive")
    if any(not d > 0.0 for d in dwell_vec):
        raise ValueError("dwell means must be positive")

    def segments() -> Iterator[tuple[float, float]]:
        t0 = float(start)
        for state in itertools.cycle(range(len(rate_vec))):
            t0 += dwell_vec[state] * float(rng.standard_exponential())
            yield t0, rate_vec[state]

    return _nhpp(segments(), rng, start)


def trace_times(times: Iterable[float]) -> Iterator[float]:
    """Replay a recorded arrival-time trace, validating monotonicity."""
    last = -math.inf
    for raw in times:
        t = float(raw)
        if t < last:
            raise ValueError(f"trace arrival times must be non-decreasing: {t} < {last}")
        last = t
        yield t


def merge_times(*streams: Iterable[float]) -> Iterator[float]:
    """Merge monotone time streams into one monotone stream (lazy)."""
    return heapq.merge(*streams)


def splice_times(
    first: Iterable[float], second: Iterable[float], *, at: float
) -> Iterator[float]:
    """``first``'s arrivals before ``at``, then ``second``'s from ``at`` on.

    Models a regime change (e.g. a traffic model swapped mid-run).  Both
    inputs must be monotone; the output then is too.
    """
    for t in first:
        if t >= at:
            break
        yield t
    for t in second:
        if t >= at:
            yield t


@dataclass(frozen=True)
class TaskFactory:
    """Stamps arrival times into :class:`Task` streams.

    Types are drawn uniformly (as in the batch workload) from ``type_rng``
    one task at a time; deadlines follow the Section VI model — arrival
    plus the type's mean execution time plus the ``t_avg`` load factor —
    matching :func:`~repro.workload.deadlines.assign_deadlines` exactly.
    """

    cfg: WorkloadConfig
    mean_exec_per_type: np.ndarray
    t_avg: float

    @staticmethod
    def for_table(cfg: WorkloadConfig, table: ExecutionTimeTable) -> "TaskFactory":
        """Build from an execution-time table's per-type means."""
        return TaskFactory(
            cfg=cfg, mean_exec_per_type=table.mean_exec_per_type(), t_avg=table.t_avg()
        )

    def stream(
        self,
        times: Iterable[float],
        type_rng: np.random.Generator,
        *,
        start_id: int = 0,
    ) -> Iterator[Task]:
        """Lazily yield tasks with dense ids from ``start_id``."""
        load = self.cfg.load_factor_mult * self.t_avg
        num_types = self.cfg.num_task_types
        for task_id, t in enumerate(times, start=start_id):
            type_id = int(type_rng.integers(0, num_types))
            arrival = float(t)
            deadline = float(arrival + self.mean_exec_per_type[type_id] + load)
            yield Task(
                task_id=task_id, type_id=type_id, arrival=arrival, deadline=deadline
            )


def replay_tasks(tasks: Iterable[Task]) -> Iterator[Task]:
    """A finite stream replaying prebuilt tasks (batch-equivalent)."""
    return iter(tasks)


# ----------------------------------------------------------------------
# Traffic plugins: the service layer's arrival-stream construction
# ----------------------------------------------------------------------
#
# Each factory takes a :class:`repro.registry.TrafficContext` and returns
# the absolute arrival-time iterator :func:`repro.service.serve_system`
# drives the engine from.  Registering here (rather than in the service
# module) keeps stream construction next to the generators it composes;
# a third-party model registered under the same group is selectable as
# ``ServiceConfig(traffic="<name>")`` with no service-layer changes.


@register_traffic("poisson", summary="Open-loop Poisson arrivals at the mean rate")
def _poisson_stream(ctx: TrafficContext) -> Iterator[float]:
    return poisson_times(ctx.mean_rate, ctx.rng)


@register_traffic("diurnal", summary="Sinusoidal NHPP; period = 2 phase lengths")
def _diurnal_stream(ctx: TrafficContext) -> Iterator[float]:
    return diurnal_times(
        ctx.mean_rate, ctx.rng, period=2.0 * ctx.phase_length, swing=ctx.swing
    )


@register_traffic("mmpp", summary="Two-state MMPP at (1 ± swing) x mean rate")
def _mmpp_stream(ctx: TrafficContext) -> Iterator[float]:
    hi = ctx.mean_rate * (1.0 + ctx.swing)
    lo = ctx.mean_rate * (1.0 - ctx.swing)
    return mmpp_times([hi, lo], [ctx.phase_length, ctx.phase_length], ctx.rng)


@register_traffic("burst", summary="The paper's fast/slow/fast cadence, cycled")
def _burst_stream(ctx: TrafficContext) -> Iterator[float]:
    from repro.workload.arrivals import burst_schedule

    schedule = [
        (dur, rate * ctx.rate_mult)
        for dur, rate in burst_schedule(ctx.workload, ctx.rates)
    ]
    return piecewise_times(schedule, ctx.rng, cycle=True)


@register_traffic("replay", summary="The batch workload's own tasks (finite, scored)")
def _replay_stream(ctx: TrafficContext) -> Iterator[float]:
    # Replay streams *tasks*, not arrival times; serve_system handles it
    # before stream construction.  Registered so catalogs and scenario
    # validation see the full traffic namespace.
    raise ValueError("not a generative traffic model: 'replay'")
