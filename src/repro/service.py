"""repro.service — continuous-service mode: the engine as an always-on system.

The batch pipeline answers "how did this 1000-task burst go?"; the
service layer answers "how is the system doing *right now*?".  It drives
the engine from a lazy traffic stream (:mod:`repro.workload.traffic`),
aggregates results into fixed-length time windows
(:class:`~repro.sim.metrics.WindowStats`) instead of per-task outcomes,
meters energy with O(num_cores) state
(:class:`~repro.cluster.energy.StreamingEnergyMeter`), and replaces the
trial-wide energy budget with a token-bucket allowance
(:class:`~repro.sim.state.RollingEnergyBudget`).  Memory stays bounded
no matter how long the run.

Two regimes:

* **Generative traffic** (``poisson``/``diurnal``/``mmpp``/``burst``) —
  an open-loop arrival stream derived from the system's equilibrium
  rate, bounded by ``horizon`` and/or ``task_limit``.  Per-task state is
  off; results are the window summaries.
* **Replay** (``traffic="replay"``) — the batch workload's own tasks
  stream through the service loop.  This reduces exactly to batch
  semantics: the returned :attr:`ServiceResult.trial_result` is bitwise
  identical to a batch ``Engine(...).run()`` (the parity test pins it),
  with window summaries observed alongside.

Determinism: arrival times, task types and execution luck draw from
``rng.stream(seed, "service", ...)`` sub-streams, so a service run is as
reproducible as a batch trial.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from repro import rng as rng_mod
from repro.cluster.energy import EnergyLedger, StreamingEnergyMeter
from repro.experiments.runner import VariantSpec, policy_for
from repro.faults import FaultPolicy, FaultSchedule, SheddingConfig
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import TimelineRecorder
from repro.registry import TRAFFIC_PLUGINS, TrafficContext
from repro.sim.engine import Engine
from repro.sim.metrics import WindowAccumulator, WindowStats
from repro.sim.results import TrialResult
from repro.sim.state import RollingEnergyBudget
from repro.sim.system import TrialSystem
from repro.workload.task import Task
from repro.workload.traffic import TaskFactory, replay_tasks

__all__ = [
    "TRAFFIC_MODELS",
    "WINDOW_FORMAT",
    "WINDOW_SCHEMA_VERSION",
    "TRAILER_FORMAT",
    "ServiceConfig",
    "ServiceResult",
    "serve_system",
    "window_rows",
    "write_windows_jsonl",
]

#: The builtin ``ServiceConfig.traffic`` names.  Validation goes through
#: :data:`repro.registry.TRAFFIC_PLUGINS`, so models registered later
#: (third-party entry points, ``@register_traffic``) are accepted too.
TRAFFIC_MODELS = ("poisson", "diurnal", "mmpp", "burst", "replay")

#: Format tag of one JSONL window-summary row.
WINDOW_FORMAT = "repro.window/1"

#: Schema version stamped on every window row.  History: 1 — the PR 6
#: columns (arrivals/mapped/discarded/completed/on_time/late/energy/...);
#: 2 — adds the fault columns (shed/deferred/orphaned/remapped/lost)
#: and this field itself.  Scrapers should accept any version >= the
#: one they were written against.
WINDOW_SCHEMA_VERSION = 2

#: Format tag of the trailer row marking a truncated (interrupted) run.
TRAILER_FORMAT = "repro.window_trailer/1"


@dataclass(frozen=True)
class ServiceConfig:
    """How to run the engine as a continuous service.

    Rate-like values are expressed relative to the system's *equilibrium*
    arrival rate (one task per core per ``t_avg``), so one config scales
    across cluster sizes.  ``None`` fields resolve against the trial
    system at run time (see :func:`serve_system`).

    Attributes
    ----------
    traffic:
        One of :data:`TRAFFIC_MODELS`.  ``"replay"`` streams the batch
        workload's own tasks (finite, scored, batch-identical); the rest
        generate open-loop arrivals and need a ``horizon`` and/or
        ``task_limit`` bound.
    rate_mult:
        Mean arrival rate as a multiple of the equilibrium rate.
    swing:
        Peak-to-mean swing of ``diurnal``/``mmpp`` traffic in ``[0, 1)``:
        phases run at ``(1 ± swing)`` times the mean rate.
    phase_length:
        Mean length of one traffic phase (half a diurnal period, an MMPP
        dwell).  Default: five windows.
    window:
        Metric window length in simulated seconds.  Default: the span of
        50 equilibrium arrivals.
    horizon:
        Stop admitting arrivals after this simulated time (committed
        work still drains).
    task_limit:
        Stop admitting arrivals after this many tasks.
    budget_rate_mult:
        Energy-allowance accrual as a multiple of the offered load's
        average cost (``mean_rate * t_avg * p_avg`` joules/second) —
        1.0 grants exactly enough for the average task mix.
    budget_cap_windows:
        Allowance pool cap, in windows' worth of accrual.
    budget_cap:
        Absolute pool cap in joules; overrides ``budget_cap_windows``
        (useful to hold the budget fixed while varying the window).
    planning_tasks:
        The energy filter's fair-share divisor (batch mode uses "tasks
        left in the trial", meaningless for a stream).  Default: the
        expected arrivals in one window.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` of in-simulation
        outages/slowdowns injected into the run.
    fault_policy:
        :class:`~repro.faults.FaultPolicy` for work caught by outages
        (``None`` uses the engine default: running lost, orphans
        re-mapped).
    shedding:
        Optional :class:`~repro.faults.SheddingConfig` enabling the
        admission controller (overload protection).
    """

    traffic: str = "poisson"
    rate_mult: float = 1.0
    swing: float = 0.75
    phase_length: float | None = None
    window: float | None = None
    horizon: float | None = None
    task_limit: int | None = None
    budget_rate_mult: float = 1.0
    budget_cap_windows: float = 4.0
    budget_cap: float | None = None
    planning_tasks: int | None = None
    faults: FaultSchedule | None = None
    fault_policy: FaultPolicy | None = None
    shedding: SheddingConfig | None = None

    def __post_init__(self) -> None:
        if self.traffic not in TRAFFIC_PLUGINS:
            raise ValueError(
                f"unknown traffic model {self.traffic!r}; "
                f"known: {', '.join(TRAFFIC_PLUGINS.names())}"
            )
        # Canonicalize case so "Replay" and "replay" name the same regime.
        object.__setattr__(self, "traffic", TRAFFIC_PLUGINS.canonical(self.traffic))
        if not (self.rate_mult > 0.0):
            raise ValueError(f"rate_mult must be positive, got {self.rate_mult}")
        if not (0.0 <= self.swing < 1.0):
            raise ValueError(f"swing must be in [0, 1), got {self.swing}")
        for name in ("phase_length", "window", "horizon"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.task_limit is not None and self.task_limit < 1:
            raise ValueError(f"task_limit must be positive, got {self.task_limit}")
        if not (self.budget_rate_mult > 0.0):
            raise ValueError("budget_rate_mult must be positive")
        if not (self.budget_cap_windows > 0.0):
            raise ValueError("budget_cap_windows must be positive")
        if self.budget_cap is not None and not (self.budget_cap > 0.0):
            raise ValueError("budget_cap must be positive")
        if self.planning_tasks is not None and self.planning_tasks < 1:
            raise ValueError("planning_tasks must be positive")
        if self.traffic != "replay" and self.horizon is None and self.task_limit is None:
            raise ValueError(
                "generative traffic is unbounded: set horizon and/or task_limit"
            )


@dataclass(frozen=True)
class ServiceResult:
    """What a service run produced.

    ``windows`` are contiguous :class:`WindowStats`; ``totals`` is their
    monoid fold (the whole run as one window).  ``trial_result`` is the
    batch-identical scored result in replay mode, ``None`` otherwise.
    ``truncated`` marks a run stopped early (graceful shutdown): the
    stream was cut but committed work drained and the final partial
    window was flushed.  ``fault_totals`` snapshots the engine's
    :class:`~repro.faults.FaultStats` when a fault schedule or shedding
    config was active, ``None`` otherwise.
    """

    label: str
    seed: int
    traffic: str
    window: float
    windows: tuple[WindowStats, ...]
    makespan: float
    total_energy: float = 0.0
    budget_drawn: float = 0.0
    budget_deficit: float = 0.0
    trial_result: TrialResult | None = None
    truncated: bool = False
    fault_totals: dict[str, int] | None = None
    budget_rate: float | None = None

    @property
    def totals(self) -> WindowStats:
        """All windows merged into one covering window."""
        return WindowStats.merge_all(self.windows)

    @property
    def arrivals(self) -> int:
        """Tasks admitted over the run."""
        return self.totals.arrivals

    def steady_state(
        self,
        metrics: tuple[str, ...] | None = None,
        *,
        level: float = 0.95,
    ) -> dict[str, Any]:
        """Steady-state summaries of this run's per-window metrics.

        MSER-5 warm-up truncation plus batch-means confidence intervals
        (see :mod:`repro.analysis.steady_state`) keyed by metric name.
        ``budget_rate`` recorded at run time enables the ``burn_rate``
        metric.
        """
        from repro.analysis.steady_state import DEFAULT_METRICS, analyze_windows

        rows = [stats.to_dict() for stats in self.windows]
        return analyze_windows(
            rows,
            metrics if metrics is not None else DEFAULT_METRICS,
            budget_rate=self.budget_rate,
            level=level,
        )


class _LuckSource:
    """Per-task execution luck for unbounded streams, by block.

    Batch trials pre-draw one uniform per task (``system.exec_luck``);
    a stream draws them in blocks keyed by ``task_id // block`` from
    dedicated rng sub-streams, so a task's luck depends only on its id —
    the pairing discipline survives unbounded runs.  Blocks regenerate
    deterministically on demand, so the small LRU of live blocks can
    evict freely and memory stays bounded.
    """

    BLOCK = 512
    _MAX_LIVE = 32

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._blocks: dict[int, Any] = {}

    def __call__(self, task_id: int) -> float:
        block, offset = divmod(task_id, self.BLOCK)
        values = self._blocks.get(block)
        if values is None:
            values = rng_mod.stream(self._seed, "service", "luck", block).random(
                self.BLOCK
            )
            if len(self._blocks) >= self._MAX_LIVE:
                self._blocks.pop(min(self._blocks))
            self._blocks[block] = values
        return float(values[offset])


def _bound(tasks: Iterator[Task], service: ServiceConfig) -> Iterator[Task]:
    """Apply the configured task-limit / horizon bounds to a task stream."""
    if service.task_limit is not None:
        tasks = itertools.islice(tasks, service.task_limit)
    if service.horizon is not None:
        horizon = service.horizon
        tasks = itertools.takewhile(lambda task: task.arrival <= horizon, tasks)
    return tasks


def _stoppable(
    tasks: Iterator[Task], stop: Callable[[], bool], state: dict[str, bool]
) -> Iterator[Task]:
    """Cut the stream when ``stop()`` turns true; note it in ``state``.

    The check runs between arrivals, so a triggered stop never abandons
    a task already admitted — committed work drains normally and the
    run merely stops taking new arrivals (graceful shutdown).
    """
    for task in tasks:
        if stop():
            state["truncated"] = True
            return
        yield task


def _arrival_stream(
    system: TrialSystem, service: ServiceConfig, mean_rate: float, phase_length: float
) -> Iterator[float]:
    """The resolved arrival-time stream of a generative traffic model.

    Construction is delegated to the traffic plugin registered under
    ``service.traffic`` (builtins in :mod:`repro.workload.traffic`);
    every plugin receives the same seeded context, so a model's stream
    is identical however the config was built.
    """
    ctx = TrafficContext(
        rng=rng_mod.stream(system.config.seed, "service", "arrivals"),
        mean_rate=mean_rate,
        phase_length=phase_length,
        swing=service.swing,
        rate_mult=service.rate_mult,
        workload=system.config.workload,
        rates=system.workload.rates,
    )
    return TRAFFIC_PLUGINS.create(service.traffic, ctx)


def serve_system(
    system: TrialSystem,
    spec: VariantSpec,
    service: ServiceConfig,
    *,
    timeline: TimelineRecorder | None = None,
    stop: Callable[[], bool] | None = None,
    telemetry: Telemetry | None = None,
) -> ServiceResult:
    """Run one spec as a continuous service against a built trial system.

    Replay mode scores a :class:`TrialResult` exactly as the batch path
    would; generative modes run unbounded-safe (windowed accounting,
    streaming energy meter, rolling budget, no per-task state).

    ``stop`` is the graceful-shutdown probe: checked between arrivals,
    and once it returns true the stream is cut, committed work drains,
    the trailing partial window is flushed, and the result is marked
    :attr:`ServiceResult.truncated` (the CLI wires SIGINT/SIGTERM to
    it).

    The window accumulator, then ``telemetry`` (a live
    :class:`~repro.obs.telemetry.Telemetry` hub, fed per event and per
    window close), then ``timeline`` subscribe to the engine in that
    order; a ``None`` is not subscribed.  The hub only reads, so results
    are bitwise identical with and without it.
    """
    eq_rate = system.workload.rates.eq
    mean_rate = service.rate_mult * eq_rate
    window = service.window if service.window is not None else 50.0 / eq_rate
    phase_length = (
        service.phase_length if service.phase_length is not None else 5.0 * window
    )
    seed = system.config.seed
    idle_mode = system.config.energy.idle_power_mode
    replay = service.traffic == "replay"
    # What differs between the regimes: replay keeps the batch ledger,
    # budget, planning horizon and luck so it can be scored; generative
    # traffic streams with bounded memory against a rolling allowance.
    if replay:
        ledger: EnergyLedger | StreamingEnergyMeter = EnergyLedger(system.cluster, idle_mode)
        energy_at = ledger.cumulative_energy_at
        budget = accrual = planning = luck = None
        tasks = replay_tasks(system.workload.tasks)
    else:
        ledger = StreamingEnergyMeter(system.cluster, idle_mode)
        energy_at = ledger.consumed_at
        accrual = service.budget_rate_mult * mean_rate * system.t_avg * system.p_avg
        cap = (
            service.budget_cap
            if service.budget_cap is not None
            else service.budget_cap_windows * window * accrual
        )
        budget = RollingEnergyBudget(rate=accrual, cap=cap)
        planning = (
            service.planning_tasks
            if service.planning_tasks is not None
            else max(1, round(mean_rate * window))
        )
        luck = _LuckSource(seed)
        factory = TaskFactory.for_table(system.config.workload, system.table)
        tasks = factory.stream(
            _arrival_stream(system, service, mean_rate, phase_length),
            rng_mod.stream(seed, "service", "types"),
        )
    on_close = None
    if telemetry is not None:
        telemetry.configure(window=window, budget_rate=accrual)
        on_close = telemetry.on_window
    acc = WindowAccumulator(window, energy_at=energy_at, budget=budget, on_close=on_close)
    heuristic, chain = policy_for(system, spec)
    engine = Engine(
        system,
        heuristic,
        chain,
        hooks=tuple(h for h in (acc, telemetry, timeline) if h is not None),
        ledger=ledger,
        rolling_budget=budget,
        tasks_left=planning,
        luck=luck,
        faults=service.faults,
        fault_policy=service.fault_policy,
        shedding=service.shedding,
    )
    stop_state = {"truncated": False}
    tasks = _bound(tasks, service)
    if stop is not None:
        tasks = _stoppable(tasks, stop, stop_state)
    makespan = engine.serve(tasks)
    # Only a replay that offered the whole workload is batch-equivalent:
    # a bounded or truncated stream must not claim the batch score.  The
    # parity test pins the scored result bitwise against a batch run.
    unbounded = service.task_limit is None and service.horizon is None
    trial = (
        engine.score(makespan)
        if replay and unbounded and not stop_state["truncated"]
        else None
    )
    fault_layer = service.faults is not None or service.shedding is not None
    return ServiceResult(
        label=spec.label,
        seed=seed,
        traffic=service.traffic,
        window=window,
        windows=tuple(acc.flush(makespan)),
        makespan=makespan,
        total_energy=ledger.total_energy(),
        budget_drawn=budget.drawn if budget is not None else 0.0,
        budget_deficit=budget.deficit if budget is not None else 0.0,
        trial_result=trial,
        truncated=stop_state["truncated"],
        fault_totals=engine.fault_stats.to_dict() if fault_layer else None,
        budget_rate=accrual,
    )


def window_rows(result: ServiceResult) -> Iterator[dict[str, Any]]:
    """Self-describing JSONL rows, one per window."""
    for index, stats in enumerate(result.windows):
        row: dict[str, Any] = {
            "format": WINDOW_FORMAT,
            "schema_version": WINDOW_SCHEMA_VERSION,
            "index": index,
            "label": result.label,
            "seed": result.seed,
            "traffic": result.traffic,
        }
        row.update(stats.to_dict())
        yield row


def write_windows_jsonl(result: ServiceResult, out: str | Path | IO[str]) -> int:
    """Write one JSON line per window; returns the window-row count.

    A truncated run (graceful shutdown) appends one trailer row tagged
    :data:`TRAILER_FORMAT` after the windows, so downstream consumers
    can tell a cleanly-stopped partial run from a complete one.
    Untruncated output is byte-identical to the pre-trailer format.
    """
    rows = list(window_rows(result))
    if result.truncated:
        rows.append(
            {
                "format": TRAILER_FORMAT,
                "truncated": True,
                "windows": len(rows),
                "makespan": result.makespan,
            }
        )
    if hasattr(out, "write"):
        for row in rows:
            out.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows) - (1 if result.truncated else 0)
