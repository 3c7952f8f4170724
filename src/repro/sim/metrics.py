"""Optional time-series traces and windowed metrics of a running trial.

:class:`TraceCollector` is an :class:`~repro.sim.engine.EngineHooks`
subscriber: pass it in ``Engine(hooks=...)`` and it samples every
mapping decision; an engine with no subscribers keeps the hot path
allocation-free.  Traces feed the examples and the
diagnostic analysis in :mod:`repro.analysis`, not the headline results.

The collector stores *columnar* per-mapping samples for NumPy analysis.
For typed per-event records (JSONL traces, counters/histograms, run
manifests) use :mod:`repro.obs`, whose adapter subscribes through the
same ``hooks`` sequence.

Continuous-service mode cannot keep per-task state, so it aggregates
into fixed-length time windows instead: :class:`WindowStats` is the
per-window summary — a monoid under :meth:`WindowStats.merge`, so
concatenating adjacent windows is exactly the summary of the combined
span — and :class:`WindowAccumulator`, another ``EngineHooks`` subscriber,
folds engine events into a contiguous run of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.faults import SHED_MIN_PROB
from repro.sim.engine import Engine, EngineHooks
from repro.sim.results import ON_TIME_TOL
from repro.workload.task import Task

__all__ = [
    "TraceCollector",
    "WindowStats",
    "WindowAccumulator",
    "derived_window_metrics",
]


@dataclass
class TraceCollector(EngineHooks):
    """Accumulates one sample of system state per mapping decision.

    A decision is every pass through the engine's mapping step: an
    arrival mapped, discarded or vetoed by the ``min_prob`` shedding
    floor, and an outage's orphan re-mapped or lost for want of a
    surviving placement.  Orphans lost without a re-map attempt, killed
    tasks and admission sheds or deferrals are not decisions.

    Attributes
    ----------
    arrival_times:
        Time of each mapping event.
    queue_depths:
        Cluster-average queue depth at each mapping event.
    energy_estimates:
        The heuristic's remaining-energy estimate ``zeta(t_l)`` after
        each mapping event.
    chosen_pstates:
        P-state chosen at each successful mapping (-1 for discards).
    chosen_probs:
        ``rho(i, j, k, pi, t_l, z)`` of the chosen assignment (0.0 for
        discards).  Their running sum is the allocation's *predicted*
        number of on-time completions — the robustness measure whose
        predictive validity the paper's contribution (a) claims.
    feasible_counts:
        Number of feasible assignments left after filtering.
    """

    arrival_times: list[float] = field(default_factory=list)
    queue_depths: list[float] = field(default_factory=list)
    energy_estimates: list[float] = field(default_factory=list)
    chosen_pstates: list[int] = field(default_factory=list)
    chosen_probs: list[float] = field(default_factory=list)
    feasible_counts: list[int] = field(default_factory=list)

    def _record(self, engine: Engine, pstate: int = -1, prob: float = 0.0) -> None:
        """Store the engine's latest mapping decision (``-1``/``0.0``: none)."""
        self.arrival_times.append(engine.now)
        self.queue_depths.append(engine.decision_queue_depth)
        self.energy_estimates.append(engine.energy_estimate)
        self.chosen_pstates.append(pstate)
        self.chosen_probs.append(prob)
        self.feasible_counts.append(engine.decision_feasible)

    # -- EngineHooks ------------------------------------------------------

    def on_mapped(self, engine: Engine, task: Task, core_id: int, pstate: int) -> None:
        self._record(engine, pstate, engine.decision_rho)

    def on_discarded(self, engine: Engine, task: Task) -> None:
        self._record(engine)

    def on_shed(self, engine: Engine, task: Task, cause: str, deferred: bool) -> None:
        if cause == SHED_MIN_PROB and not deferred:
            self._record(engine)

    def on_orphaned(self, engine: Engine, task: Task, core_id: int, disposition: str) -> None:
        if disposition == "remapped":
            self._record(engine, engine.decision.pstate, engine.decision_rho)
        elif disposition == "lost" and engine.fault_policy.remap:
            self._record(engine)

    def predicted_on_time(self) -> float:
        """Expected on-time completions as predicted at mapping time.

        The sum over mapped tasks of their assignment's on-time
        probability — the scheduler-side robustness aggregate.  Compare
        with the trial's realized on-time count (before the energy
        cutoff) to validate the robustness model's predictions.
        """
        return float(sum(self.chosen_probs))

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Return all traces as NumPy arrays keyed by field name."""
        return {
            "arrival_times": np.array(self.arrival_times),
            "queue_depths": np.array(self.queue_depths),
            "energy_estimates": np.array(self.energy_estimates),
            "chosen_pstates": np.array(self.chosen_pstates, dtype=np.int64),
            "chosen_probs": np.array(self.chosen_probs),
            "feasible_counts": np.array(self.feasible_counts, dtype=np.int64),
        }

    def pstate_histogram(self, num_pstates: int) -> np.ndarray:
        """Counts of chosen P-states (discards excluded)."""
        chosen = np.array([p for p in self.chosen_pstates if p >= 0], dtype=np.int64)
        return np.bincount(chosen, minlength=num_pstates)


@dataclass(frozen=True)
class WindowStats:
    """Service metrics over one time window ``[start, end)``.

    Events are attributed to the window containing their event time
    (arrivals at arrival, completions at completion), making the type a
    monoid under :meth:`merge`: counts and window energy add, while the
    "state at window end" fields (``budget_remaining``, ``in_system_end``)
    take the later window's value.

    ``energy`` is the cluster energy consumed within the window;
    ``budget_remaining`` is the rolling allowance at the window's end
    (``nan`` when no rolling budget is configured).

    The fault-layer fields (``shed``, ``deferred``, ``orphaned``,
    ``remapped``, ``lost``) stay zero unless a fault schedule or
    shedding config is active: ``shed`` arrivals were dropped by the
    admission controller, ``deferred`` counts retry pushes (not
    terminal), ``orphaned`` tasks were displaced by an outage,
    ``remapped`` is the subset successfully re-placed, and ``lost``
    covers killed running tasks, orphans no surviving core could take
    and queued tasks dropped below the ``dispatch_prob`` floor.
    """

    start: float
    end: float
    mapped: int = 0
    discarded: int = 0
    completed: int = 0
    on_time: int = 0
    late: int = 0
    energy: float = 0.0
    budget_remaining: float = float("nan")
    in_system_end: int = 0
    shed: int = 0
    deferred: int = 0
    orphaned: int = 0
    remapped: int = 0
    lost: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"window end {self.end} precedes start {self.start}")
        for name in (
            "mapped",
            "discarded",
            "completed",
            "on_time",
            "late",
            "shed",
            "deferred",
            "orphaned",
            "remapped",
            "lost",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.completed != self.on_time + self.late:
            raise ValueError("completed must equal on_time + late")

    @property
    def arrivals(self) -> int:
        """Tasks whose admission was settled in the window.

        Every arrival ends mapped, discarded, or shed; a *deferred*
        arrival is still pending (it settles, and counts, in the window
        of its final disposition).
        """
        return self.mapped + self.discarded + self.shed

    @property
    def on_time_frac(self) -> float:
        """On-time fraction of this window's completions (``nan`` if none)."""
        return self.on_time / self.completed if self.completed else math.nan

    def merge(self, other: "WindowStats") -> "WindowStats":
        """Combine with the adjacent later window (``other.start == self.end``)."""
        if other.start != self.end:
            raise ValueError(
                f"windows must be contiguous: {self.end} != {other.start}"
            )
        return WindowStats(
            start=self.start,
            end=other.end,
            mapped=self.mapped + other.mapped,
            discarded=self.discarded + other.discarded,
            completed=self.completed + other.completed,
            on_time=self.on_time + other.on_time,
            late=self.late + other.late,
            energy=self.energy + other.energy,
            budget_remaining=other.budget_remaining,
            in_system_end=other.in_system_end,
            shed=self.shed + other.shed,
            deferred=self.deferred + other.deferred,
            orphaned=self.orphaned + other.orphaned,
            remapped=self.remapped + other.remapped,
            lost=self.lost + other.lost,
        )

    @staticmethod
    def merge_all(windows: Iterable["WindowStats"]) -> "WindowStats":
        """Fold a contiguous window run into one covering window."""
        it = iter(windows)
        try:
            total = next(it)
        except StopIteration:
            raise ValueError("merge_all needs at least one window") from None
        for w in it:
            total = total.merge(w)
        return total

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (``budget_remaining`` null when unset)."""
        budget = None if math.isnan(self.budget_remaining) else self.budget_remaining
        return {
            "start": self.start,
            "end": self.end,
            "arrivals": self.arrivals,
            "mapped": self.mapped,
            "discarded": self.discarded,
            "completed": self.completed,
            "on_time": self.on_time,
            "late": self.late,
            "energy": self.energy,
            "budget_remaining": budget,
            "in_system_end": self.in_system_end,
            "shed": self.shed,
            "deferred": self.deferred,
            "orphaned": self.orphaned,
            "remapped": self.remapped,
            "lost": self.lost,
        }


def derived_window_metrics(
    row: Mapping[str, Any], *, budget_rate: float | None = None
) -> dict[str, float]:
    """Operational metrics derived from one window row.

    ``row`` is a :meth:`WindowStats.to_dict` mapping (or a parsed
    ``repro.window/...`` JSONL row — the two share a schema).  The result
    is the flat metric namespace the telemetry layer, the SLO rule
    engine, steady-state analysis and ``repro monitor`` all evaluate
    against: raw counts pass through as floats, plus

    * ``duration`` — window length in simulated seconds;
    * ``arrival_rate`` / ``throughput`` — arrivals and completions per
      second;
    * ``on_time_prob`` — on-time fraction of completions (``nan`` when
      the window completed nothing);
    * ``queue_depth`` — tasks in system at window end;
    * ``power`` — mean consumed watts over the window;
    * ``budget_remaining`` — rolling allowance at window end (``nan``
      when no rolling budget is configured);
    * ``burn_rate`` — consumed energy over accrued allowance for the
      window (needs ``budget_rate`` in joules/second; ``nan`` otherwise).
      1.0 burns exactly what accrues; sustained > 1.0 drains the pool.
    """
    start = float(row.get("start", 0.0))
    end = float(row.get("end", start))
    duration = end - start
    completed = float(row.get("completed", 0))
    on_time = float(row.get("on_time", 0))
    energy = float(row.get("energy", 0.0))
    budget = row.get("budget_remaining")
    metrics: dict[str, float] = {
        "start": start,
        "end": end,
        "duration": duration,
        "on_time_prob": on_time / completed if completed else math.nan,
        "queue_depth": float(row.get("in_system_end", 0)),
        "budget_remaining": math.nan if budget is None else float(budget),
    }
    for key in (
        "arrivals",
        "mapped",
        "discarded",
        "completed",
        "on_time",
        "late",
        "energy",
        "shed",
        "deferred",
        "orphaned",
        "remapped",
        "lost",
    ):
        metrics[key] = float(row.get(key, 0))
    if duration > 0.0:
        metrics["arrival_rate"] = metrics["arrivals"] / duration
        metrics["throughput"] = completed / duration
        metrics["power"] = energy / duration
    else:
        metrics["arrival_rate"] = metrics["throughput"] = metrics["power"] = math.nan
    if budget_rate is not None and budget_rate > 0.0 and duration > 0.0:
        metrics["burn_rate"] = energy / (budget_rate * duration)
    else:
        metrics["burn_rate"] = math.nan
    return metrics


class WindowAccumulator(EngineHooks):
    """Folds engine events into contiguous :class:`WindowStats` windows.

    An :class:`~repro.sim.engine.EngineHooks` subscriber: pass it in
    ``Engine(hooks=...)``.  Events land in the window containing the
    engine's ``now`` (a completion's ``t_now``), and each window records
    the engine's ``in_system`` after its last event.

    Windows are ``[k*window, (k+1)*window)`` from time 0; a window
    closes when the first event at or past its end arrives (there is no
    wall clock — simulated time only advances with events), and
    :meth:`flush` closes the trailing partial window at the run's end
    time.  Memory is O(1) plus the closed-window list the caller drains.

    ``energy_at`` maps a simulation time to cumulative consumed energy
    (e.g. ``StreamingEnergyMeter.consumed_at``); window energies are
    consecutive differences, so they telescope — merging every window
    reproduces the whole run's consumption exactly.  ``budget`` is an
    optional :class:`~repro.sim.state.RollingEnergyBudget` sampled at
    each boundary.  ``on_close`` is called with each window as it
    closes (the service layer feeds live telemetry through it); it
    observes a finished value and must not mutate accumulator state.
    """

    def __init__(
        self,
        window: float,
        *,
        energy_at: Callable[[float], float] | None = None,
        budget: Any | None = None,
        on_close: Callable[[WindowStats], None] | None = None,
    ) -> None:
        if not (window > 0.0):
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self.closed: list[WindowStats] = []
        self._on_close = on_close
        self._start = 0.0
        self._end = self.window
        self._energy_at = energy_at
        self._budget = budget
        self._energy_base = energy_at(0.0) if energy_at is not None else 0.0
        self._mapped = 0
        self._discarded = 0
        self._completed = 0
        self._on_time = 0
        self._late = 0
        self._in_system = 0
        self._shed = 0
        self._deferred = 0
        self._orphaned = 0
        self._remapped = 0
        self._lost = 0

    # -- engine callbacks -------------------------------------------------

    def on_mapped(self, engine: Engine, task: Task, core_id: int, pstate: int) -> None:
        self._roll(engine.now)
        self._mapped += 1
        self._in_system = engine.in_system

    def on_discarded(self, engine: Engine, task: Task) -> None:
        self._roll(engine.now)
        self._discarded += 1
        self._in_system = engine.in_system

    def on_completion(self, engine: Engine, core_id: int, task: Task, t_now: float) -> None:
        self._roll(t_now)
        self._completed += 1
        if t_now > task.deadline + ON_TIME_TOL:
            self._late += 1
        else:
            self._on_time += 1
        self._in_system = engine.in_system

    def on_shed(self, engine: Engine, task: Task, cause: str, deferred: bool) -> None:
        """An arrival was deferred (retry pending) or shed (dropped)."""
        self._roll(engine.now)
        if deferred:
            self._deferred += 1
        else:
            self._shed += 1
        self._in_system = engine.in_system

    def on_orphaned(self, engine: Engine, task: Task, core_id: int, disposition: str) -> None:
        """A mapped task left its core: ``remapped``, ``lost``, ``killed`` or ``dropped``.

        ``remapped``/``lost`` tasks were displaced by an outage (and
        count as orphaned); ``killed`` running tasks were terminated
        outright under the ``"lost"`` policy, and ``dropped`` queued
        tasks fell below the dispatch floor — both count only as lost.
        """
        self._roll(engine.now)
        if disposition == "remapped":
            self._orphaned += 1
            self._remapped += 1
        elif disposition == "lost":
            self._orphaned += 1
            self._lost += 1
        elif disposition in ("killed", "dropped"):
            self._lost += 1
        else:
            raise ValueError(f"unknown orphan disposition {disposition!r}")
        self._in_system = engine.in_system

    # -- window management ----------------------------------------------

    def _roll(self, t: float) -> None:
        while t >= self._end:
            self._close(self._end)

    def _close(self, end: float) -> None:
        energy = 0.0
        if self._energy_at is not None:
            level = self._energy_at(end)
            energy = level - self._energy_base
            self._energy_base = level
        remaining = (
            self._budget.peek(end) if self._budget is not None else float("nan")
        )
        stats = WindowStats(
            start=self._start,
            end=end,
            mapped=self._mapped,
            discarded=self._discarded,
            completed=self._completed,
            on_time=self._on_time,
            late=self._late,
            energy=energy,
            budget_remaining=remaining,
            in_system_end=self._in_system,
            shed=self._shed,
            deferred=self._deferred,
            orphaned=self._orphaned,
            remapped=self._remapped,
            lost=self._lost,
        )
        self.closed.append(stats)
        if self._on_close is not None:
            self._on_close(stats)
        self._mapped = self._discarded = 0
        self._completed = self._on_time = self._late = 0
        self._shed = self._deferred = 0
        self._orphaned = self._remapped = self._lost = 0
        self._start = end
        self._end = end + self.window

    def flush(self, end_time: float) -> list[WindowStats]:
        """Close the trailing partial window at ``end_time``; return all.

        The final window spans ``[start, end_time]`` (shorter than
        ``window`` unless the last event fell exactly on a boundary).
        """
        if end_time > self._start or not self.closed:
            self._close(max(end_time, self._start))
        return self.closed
