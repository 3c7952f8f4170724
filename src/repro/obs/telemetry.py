"""Live service telemetry: streaming instruments, SLO rules, health.

The service layer's window JSONL answers "what happened"; this module
answers "how is the running service doing *right now*" with bounded
state:

* **Instruments** — :class:`Counter` and :class:`Gauge` primitives, a
  simulated-time :class:`EwmaRate` (exponentially-decayed events/sec, a
  load-average-style estimator) and :class:`Ewma` mean, and the
  :class:`P2Quantile` streaming quantile estimator (Jain & Chlamtac
  1985): five markers per quantile, O(1) memory and time per
  observation, no sample buffer.
* **The hub** — :class:`Telemetry` is an
  :class:`~repro.sim.engine.EngineHooks` subscriber: it feeds its
  instruments from the engine's map / discard / shed / complete
  callbacks (arrival and completion rates, completion latency, on-time
  indicator, queue depth) and from window closes (per-window energy,
  gauges), keeps a bounded
  per-window history, refreshes a live steady-state estimate
  (MSER-5 warm-up + batch-means CI via
  :mod:`repro.analysis.steady_state`), and evaluates SLO rules.
* **SLO rules** — :class:`AlertRule` thresholds over the derived
  window-metric namespace (:func:`repro.sim.metrics.derived_window_metrics`;
  ``burn_rate`` gives budget burn-rate alerting), held for N consecutive
  windows; transitions append typed :class:`~repro.obs.events.AlertFired`
  / :class:`~repro.obs.events.AlertResolved` events to
  :attr:`Telemetry.alerts` and roll up into :meth:`Telemetry.health`.

Telemetry is strictly opt-in and results-neutral: it only reads engine
state, and a service run without a hub (``telemetry=None``) does not
subscribe one.

Thread-safety: the simulation thread is the only writer.  Snapshot
renders (:meth:`Telemetry.render_prometheus`, :meth:`Telemetry.health`)
take an internal lock that window closes also hold, so a concurrent
scrape (:class:`repro.obs.export.TelemetryServer`) sees whole-window
consistency; sub-window instrument reads are racy by design and only
ever one event stale.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.obs.events import AlertFired, AlertResolved, Event
from repro.sim.engine import Engine, EngineHooks
from repro.sim.results import ON_TIME_TOL
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hints only)
    from repro.analysis.steady_state import SteadyStateSummary
    from repro.sim.metrics import WindowStats

__all__ = [
    "Counter",
    "Gauge",
    "Ewma",
    "EwmaRate",
    "P2Quantile",
    "QuantileSet",
    "AlertRule",
    "RuleState",
    "parse_rule",
    "Telemetry",
    "DEFAULT_QUANTILES",
    "STEADY_METRICS",
    "HISTORY_CAP",
]

#: Quantiles each :class:`QuantileSet` tracks by default.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

#: Per-window metrics the hub keeps live steady-state estimates for.
STEADY_METRICS: tuple[str, ...] = ("on_time_prob", "throughput", "power")

#: Per-window metric rows the hub retains (the steady-state estimate and
#: ``repro monitor``'s source).  The cap bounds memory on unbounded runs;
#: warm-up detection needs the front of the series, so runs longer than
#: the cap freeze the warm-up estimate rather than silently sliding the
#: origin.
HISTORY_CAP = 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A last-value instrument (``nan`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)


class Ewma:
    """Exponentially-weighted mean over *simulated* time.

    ``tau`` is the decay time constant in simulated seconds: an
    observation's weight halves every ``tau * ln 2`` seconds.  Unevenly
    spaced observations are handled exactly (per-gap decay factor), so
    the estimator is well-defined for event-driven feeds.
    """

    __slots__ = ("tau", "_value", "_t")

    def __init__(self, tau: float) -> None:
        if not (tau > 0.0):
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self._value = math.nan
        self._t: float | None = None

    def observe(self, t: float, x: float) -> None:
        if self._t is None:
            self._value = float(x)
        else:
            # Out-of-order timestamps decay nothing rather than explode.
            dt = max(t - self._t, 0.0)
            alpha = 1.0 - math.exp(-dt / self.tau)
            self._value += alpha * (float(x) - self._value)
        self._t = t

    @property
    def value(self) -> float:
        return self._value


class EwmaRate:
    """Exponentially-decayed event rate (events/sec of simulated time).

    Each event is an impulse of weight ``n/tau`` added to a value that
    decays as ``exp(-dt/tau)``; in equilibrium under rate ``r`` the
    estimator converges to ``r``.  Reading through :meth:`rate` decays
    up to the asked-for time, so a quiet stream reads as fading load.
    """

    __slots__ = ("tau", "_value", "_t")

    def __init__(self, tau: float) -> None:
        if not (tau > 0.0):
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self._value = 0.0
        self._t: float | None = None

    def observe(self, t: float, n: float = 1.0) -> None:
        if self._t is not None:
            self._value *= math.exp(-max(t - self._t, 0.0) / self.tau)
        self._value += n / self.tau
        self._t = t

    def rate(self, t: float | None = None) -> float:
        """The decayed rate, optionally advanced to time ``t``."""
        if self._t is None:
            return 0.0
        if t is None or t <= self._t:
            return self._value
        return self._value * math.exp(-(t - self._t) / self.tau)


class P2Quantile:
    """Streaming quantile via the P² algorithm (Jain & Chlamtac 1985).

    Five markers track the running ``q``-quantile without storing the
    stream: marker heights move by a piecewise-parabolic prediction
    (falling back to linear when the parabola would disorder them).
    Until five observations arrive the buffer is exact — :attr:`value`
    then matches ``numpy.quantile(..., method="linear")`` bit for bit;
    afterwards it is an O(1)-state approximation whose error vanishes on
    smooth distributions as the stream grows.
    """

    __slots__ = ("q", "count", "_heights", "_pos", "_desired", "_rate")

    def __init__(self, q: float) -> None:
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = float(q)
        self.count = 0
        self._heights: list[float] = []
        # Marker positions (1-based, per the paper), desired positions,
        # and the per-observation desired-position increments.
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rate = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, x: float) -> None:
        x = float(x)
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(x)
            h.sort()
            return
        pos = self._pos
        # Locate the cell and clamp the extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rate[i]
        # Adjust the three interior markers toward their desired spots.
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate (``nan`` before any sample)."""
        h = self._heights
        if not h:
            return math.nan
        if self.count <= 5:
            # Exact linear-interpolated quantile of the sorted buffer,
            # using NumPy's stabilized lerp so the result matches
            # ``np.quantile(..., method="linear")`` bit for bit.
            rank = self.q * (len(h) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(h) - 1)
            t = rank - lo
            diff = h[hi] - h[lo]
            return h[hi] - diff * (1.0 - t) if t >= 0.5 else h[lo] + diff * t
        return h[2]


class QuantileSet:
    """:class:`P2Quantile` markers at :data:`DEFAULT_QUANTILES` over one
    sample stream."""

    __slots__ = ("estimators", "count", "_min", "_max", "total")

    def __init__(self) -> None:
        self.estimators = {q: P2Quantile(q) for q in DEFAULT_QUANTILES}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, x: float) -> None:
        x = float(x)
        self.count += 1
        self.total += x
        self._min = min(self._min, x)
        self._max = max(self._max, x)
        for est in self.estimators.values():
            est.observe(x)

    def values(self) -> dict[float, float]:
        """Current ``{q: estimate}`` mapping."""
        return {q: est.value for q, est in self.estimators.items()}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def min(self) -> float:
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan


# ----------------------------------------------------------------------
# SLO rules
# ----------------------------------------------------------------------

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
}


@dataclass(frozen=True)
class AlertRule:
    """One SLO rule: *metric op threshold*, held ``for_windows`` windows.

    ``metric`` names a key of the derived window-metric namespace
    (:func:`repro.sim.metrics.derived_window_metrics`): e.g.
    ``on_time_prob``, ``queue_depth``, ``budget_remaining``, ``shed``,
    or ``burn_rate`` for energy burn-rate alerting.  The rule *breaches*
    on a window where the comparison holds and *fires* after
    ``for_windows`` consecutive breaches; one non-breaching window
    resolves it.  ``nan`` metric values never breach (no data is not an
    outage).
    """

    metric: str
    op: str
    threshold: float
    for_windows: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r}; known: {sorted(_OPS)}")
        if self.for_windows < 1:
            raise ValueError(f"for_windows must be >= 1, got {self.for_windows}")
        if not self.name:
            object.__setattr__(self, "name", self.spec)

    @property
    def spec(self) -> str:
        """Canonical ``metric<threshold:for`` spelling of the rule."""
        text = f"{self.metric}{self.op}{self.threshold:g}"
        return f"{text}:{self.for_windows}" if self.for_windows > 1 else text

    def breached(self, metrics: Mapping[str, float]) -> bool:
        value = metrics.get(self.metric, math.nan)
        if math.isnan(value):
            return False
        return _OPS[self.op](value, self.threshold)


def parse_rule(spec: str) -> AlertRule:
    """Parse ``"on_time_prob<0.9:3"`` into an :class:`AlertRule`.

    Grammar: ``<metric><op><threshold>[:<for_windows>]`` with ``op`` one
    of ``<``, ``<=``, ``>``, ``>=``.  The optional ``:N`` suffix requires
    N consecutive breaching windows before the rule fires (default 1).
    """
    body, _, held = spec.partition(":")
    for op in ("<=", ">=", "<", ">"):
        metric, sep, value = body.partition(op)
        if sep:
            break
    else:
        raise ValueError(f"no comparison operator in SLO rule {spec!r}")
    if not metric or not value:
        raise ValueError(f"malformed SLO rule {spec!r} (want metric<threshold[:N])")
    try:
        threshold = float(value)
    except ValueError:
        raise ValueError(f"bad threshold {value!r} in SLO rule {spec!r}") from None
    try:
        for_windows = int(held) if held else 1
    except ValueError:
        raise ValueError(f"bad window count {held!r} in SLO rule {spec!r}") from None
    return AlertRule(
        metric=metric.strip(), op=op, threshold=threshold, for_windows=for_windows
    )


@dataclass
class RuleState:
    """Mutable evaluation state of one rule."""

    rule: AlertRule
    streak: int = 0
    firing: bool = False
    fired_count: int = 0
    breached_windows: int = 0
    last_value: float = math.nan

    def update(self, metrics: Mapping[str, float]) -> str | None:
        """Fold one window's metrics into the streak.

        Returns the transition the window caused: ``"fired"``,
        ``"resolved"`` or ``None``.  The live hub emits alert events
        from it; :func:`repro.obs.monitor.evaluate_rules` replays it.
        """
        rule = self.rule
        self.last_value = metrics.get(rule.metric, math.nan)
        if not rule.breached(metrics):
            self.streak = 0
            if self.firing:
                self.firing = False
                return "resolved"
            return None
        self.streak += 1
        self.breached_windows += 1
        if not self.firing and self.streak >= rule.for_windows:
            self.firing = True
            self.fired_count += 1
            return "fired"
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule.spec,
            "metric": self.rule.metric,
            "firing": self.firing,
            "streak": self.streak,
            "fired_count": self.fired_count,
            "breached_windows": self.breached_windows,
            "last_value": None if math.isnan(self.last_value) else self.last_value,
        }


# ----------------------------------------------------------------------
# The hub
# ----------------------------------------------------------------------


class Telemetry(EngineHooks):
    """Streaming instrument hub for one service run.

    Subscribe it in ``Engine(hooks=...)`` and wire :meth:`on_window` as
    the window accumulator's ``on_close``; :func:`repro.service.serve_system`
    does both.  Every settled arrival — mapped, discarded or shed —
    feeds the arrival rate; a deferral is not settled and does not.

    ``rules`` are SLO :class:`AlertRule` instances (or rule spec
    strings, parsed with :func:`parse_rule`) evaluated at every window
    close; their transitions collect in :attr:`alerts`.  Completion
    latency, queue depth and per-window energy track
    :data:`DEFAULT_QUANTILES`; the first :data:`HISTORY_CAP` window rows
    feed steady-state estimates of :data:`STEADY_METRICS`.  The
    rate/mean EWMAs decay over three windows (:meth:`configure`), or
    60 simulated seconds when the window is never configured.
    """

    def __init__(self, rules: Iterable[AlertRule | str] = ()) -> None:
        self.latency = QuantileSet()
        self.queue_depth = QuantileSet()
        self.window_energy = QuantileSet()
        self.counters: dict[str, Counter] = {
            name: Counter()
            for name in (
                "tasks_mapped",
                "tasks_completed",
                "tasks_on_time",
                "tasks_late",
                "tasks_discarded",
                "tasks_shed",
                "tasks_deferred",
                "windows",
            )
        }
        self.gauges: dict[str, Gauge] = {
            name: Gauge()
            for name in (
                "in_system",
                "budget_remaining",
                "window_on_time_prob",
                "window_energy_joules",
                "burn_rate",
            )
        }
        self._tau: float | None = None
        self._arrival_rate: EwmaRate | None = None
        self._completion_rate: EwmaRate | None = None
        self._on_time_ewma: Ewma | None = None
        self.history: list[dict[str, float]] = []
        self.history_dropped = 0
        self.rules = tuple(
            parse_rule(r) if isinstance(r, str) else r for r in rules
        )
        self.rule_states = tuple(RuleState(rule) for rule in self.rules)
        self.alerts: list[Event] = []
        self.budget_rate: float | None = None
        self.window: float | None = None
        self._steady: dict[str, "SteadyStateSummary"] = {}
        self._lock = threading.Lock()
        self._now = 0.0
        #: Objects with an ``export()`` method (e.g. a ``FileExporter``)
        #: re-run after every window close, outside the hub lock.
        self.exporters: list[Any] = []

    # -- wiring ---------------------------------------------------------

    def configure(
        self, *, window: float | None = None, budget_rate: float | None = None
    ) -> None:
        """Late-bind run parameters the constructor cannot know.

        The service layer calls this before the run starts: ``window``
        sets the EWMA time constant (three windows), and
        ``budget_rate`` (allowance joules/second) enables the
        ``burn_rate`` metric.
        """
        if window is not None:
            self.window = float(window)
            self._tau = 3.0 * float(window)
        if budget_rate is not None:
            self.budget_rate = float(budget_rate)

    def _rates(self) -> tuple[EwmaRate, EwmaRate, Ewma]:
        if self._arrival_rate is None:
            tau = self._tau if self._tau is not None else 60.0
            self._arrival_rate = EwmaRate(tau)
            self._completion_rate = EwmaRate(tau)
            self._on_time_ewma = Ewma(tau)
        assert self._completion_rate is not None and self._on_time_ewma is not None
        return self._arrival_rate, self._completion_rate, self._on_time_ewma

    # -- engine callbacks -----------------------------------------------

    def on_mapped(self, engine: Engine, task: Task, core_id: int, pstate: int) -> None:
        self._now = t = engine.now
        self.counters["tasks_mapped"].inc()
        self.queue_depth.observe(engine.avg_queue_depth)
        self._rates()[0].observe(t)

    def on_completion(self, engine: Engine, core_id: int, task: Task, t_now: float) -> None:
        self._now = t_now
        on_time = t_now <= task.deadline + ON_TIME_TOL
        self.counters["tasks_completed"].inc()
        self.counters["tasks_on_time" if on_time else "tasks_late"].inc()
        self.latency.observe(t_now - task.arrival)
        _, completion, ewma = self._rates()
        completion.observe(t_now)
        ewma.observe(t_now, 1.0 if on_time else 0.0)

    def on_discarded(self, engine: Engine, task: Task) -> None:
        self._now = t = engine.now
        self.counters["tasks_discarded"].inc()
        self._rates()[0].observe(t)

    def on_shed(self, engine: Engine, task: Task, cause: str, deferred: bool) -> None:
        self._now = t = engine.now
        if deferred:
            self.counters["tasks_deferred"].inc()
        else:
            self.counters["tasks_shed"].inc()
            self._rates()[0].observe(t)

    def on_window(self, stats: "WindowStats") -> None:
        """A metric window closed: fold it in and re-evaluate health."""
        from repro.sim.metrics import derived_window_metrics

        metrics = derived_window_metrics(stats.to_dict(), budget_rate=self.budget_rate)
        with self._lock:
            self.counters["windows"].inc()
            self.window_energy.observe(metrics["energy"])
            self.gauges["in_system"].set(metrics["queue_depth"])
            self.gauges["budget_remaining"].set(metrics["budget_remaining"])
            self.gauges["window_on_time_prob"].set(metrics["on_time_prob"])
            self.gauges["window_energy_joules"].set(metrics["energy"])
            self.gauges["burn_rate"].set(metrics["burn_rate"])
            if len(self.history) < HISTORY_CAP:
                self.history.append(metrics)
            else:
                self.history_dropped += 1
            self._evaluate_rules(metrics)
            self._refresh_steady_state()
        # Exporters re-render via snapshot(), which takes the lock.
        for exporter in self.exporters:
            exporter.export()

    # -- SLO evaluation -------------------------------------------------

    def _evaluate_rules(self, metrics: Mapping[str, float]) -> None:
        window_index = self.counters["windows"].value - 1
        t = float(metrics.get("end", self._now))
        for state in self.rule_states:
            rule = state.rule
            transition = state.update(metrics)
            if transition == "fired":
                self.alerts.append(
                    AlertFired(
                        t=t,
                        rule=rule.spec,
                        metric=rule.metric,
                        value=state.last_value,
                        window_index=window_index,
                        streak=state.streak,
                    )
                )
            elif transition == "resolved":
                self.alerts.append(
                    AlertResolved(
                        t=t,
                        rule=rule.spec,
                        metric=rule.metric,
                        window_index=window_index,
                    )
                )

    def _refresh_steady_state(self) -> None:
        from repro.analysis.steady_state import analyze_series

        if len(self.history) < 2:
            return
        for metric in STEADY_METRICS:
            series = [row.get(metric, math.nan) for row in self.history]
            self._steady[metric] = analyze_series(series, metric=metric)

    # -- read side ------------------------------------------------------

    @property
    def firing(self) -> tuple[RuleState, ...]:
        """Rule states currently in breach-and-fired condition."""
        return tuple(s for s in self.rule_states if s.firing)

    def health(self) -> dict[str, Any]:
        """Roll-up health document: per-rule states plus one verdict."""
        with self._lock:
            states = [s.to_dict() for s in self.rule_states]
            return {
                "healthy": not any(s.firing for s in self.rule_states),
                "windows": self.counters["windows"].value,
                "rules": states,
                "alerts": len(self.alerts),
            }

    def steady_state(self) -> dict[str, "SteadyStateSummary"]:
        """Latest per-metric steady-state summaries (empty early on)."""
        with self._lock:
            return dict(self._steady)

    @staticmethod
    def _stream(qs: QuantileSet) -> dict[str, Any]:
        return {
            "quantiles": qs.values(),
            "count": qs.count,
            "sum": qs.total,
            "min": qs.min,
            "max": qs.max,
        }

    def snapshot(self) -> dict[str, Any]:
        """A consistent point-in-time copy of every published value."""
        from repro.analysis.steady_state import analyze_series

        with self._lock:
            # A scrape taken before the first steady-state refresh must
            # still carry the full family set (warm-up 0, NaN means):
            # scrapers and scripts/telemetry_check.py rely on a stable
            # set of families regardless of when they sample.
            steady = self._steady or {
                m: analyze_series([], metric=m) for m in STEADY_METRICS
            }
            return {
                "counters": {k: c.value for k, c in self.counters.items()},
                "gauges": {k: g.value for k, g in self.gauges.items()},
                "latency": self._stream(self.latency),
                "queue_depth": self._stream(self.queue_depth),
                "window_energy": self._stream(self.window_energy),
                "arrival_rate": self._rates()[0].rate(self._now),
                "completion_rate": self._rates()[1].rate(self._now),
                "on_time_ewma": self._rates()[2].value,
                "steady_state": {
                    k: s.to_dict() for k, s in steady.items()
                },
                "health": {
                    "healthy": not any(s.firing for s in self.rule_states),
                    "rules": [s.to_dict() for s in self.rule_states],
                },
                "history_dropped": self.history_dropped,
            }

    def render_prometheus(self) -> str:
        """Prometheus text-exposition (0.0.4) rendering of the snapshot."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self.snapshot())
