"""Traced mode: per-layer counters and times, taken from outside the program.

:func:`install` wraps the public functions and methods the workloads
reach (``build_trial_system``, ``CandidateBuilder.build``,
``CoreState.ready_pmf``, every filter chain's ``apply``, every
heuristic's ``select``, the energy accountants' ``record``, the service
window accumulator, ``run_supervised``) and hands every ``Engine`` a
tracer through its public ``tracer=`` parameter.  Nothing under
``src/`` changes.

The wrappers count into a process-local :class:`LayerProbe`.  Worker
processes of the ensemble executor are forked with the probe installed,
and their counts travel back through the program's own seam: at the end
of every ``observe_trial`` the probe's counts are flushed into the
trial's ``MetricsRegistry``, which ``run_ensemble(metrics=)`` merges in
the parent.  Times are stored as integer nanoseconds because registry
counters are integers.  :func:`layer_metrics` turns a merged registry
into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

from repro.cluster.energy import EnergyLedger, StreamingEnergyMeter
from repro.experiments import executor as executor_mod
from repro.filters.chain import FilterChain
from repro.heuristics.base import Heuristic
from repro.obs import hooks as hooks_mod
from repro.obs.sinks import GRID_EDGES, Histogram, MetricsRegistry
from repro.sim import system as system_mod
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.metrics import WindowAccumulator
from repro.sim.state import CoreState

_ns = time.perf_counter_ns

#: Upper bucket edges (ns) of the candidate-build latency histogram:
#: 2% apart from 1 us to 1 s, so a percentile read from it is within 1%.
LATENCY_EDGES_NS: tuple[float, ...] = tuple(
    float(x) for x in np.unique(np.round(1e3 * 1.02 ** np.arange(700)))
)
_LATENCY_HIST = "bench.mapper.build_latency_ns"

#: WindowAccumulator methods whose time is the service layer's accounting.
_ACCOUNTING = ("on_mapped", "on_discarded", "on_completion", "on_shed", "on_orphaned", "flush")


class LayerProbe:
    """Counters filled by the wrappers (nanoseconds for times)."""

    def __init__(self) -> None:
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.build_latency_ns: list[int] = []
        #: Inside an ``engine.arrival`` span: layer time then counts
        #: toward ``arrival.inner_ns`` as well as its own layer.
        self.in_arrival = False
        #: The most recently constructed engine (for its cache stats).
        self.last_engine: Engine | None = None

    def reset(self) -> None:
        self.counts.clear()
        self.build_latency_ns.clear()
        self.last_engine = None

    def flush_into(self, registry: MetricsRegistry) -> None:
        """Add the counts so far to ``registry`` (prefixed ``bench.``) and reset."""
        for name, value in self.counts.items():
            registry.inc(f"bench.{name}", value)
        if self.build_latency_ns:
            samples = np.asarray(self.build_latency_ns, dtype=np.float64)
            buckets = np.searchsorted(LATENCY_EDGES_NS, samples, side="left")
            counts = np.bincount(buckets, minlength=len(LATENCY_EDGES_NS) + 1)
            hist = Histogram(
                LATENCY_EDGES_NS,
                counts=[int(c) for c in counts],
                count=int(samples.size),
                total=float(samples.sum()),
                min=float(samples.min()),
                max=float(samples.max()),
            )
            mine = registry.histograms.get(_LATENCY_HIST)
            if mine is None:
                registry.histograms[_LATENCY_HIST] = hist
            else:
                mine.merge(hist)
        self.reset()


class StochCounter:
    """``set_op_observer`` callback with the program's own metric names."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def __call__(self, op: str, grid_size: int) -> None:
        self.registry.inc(f"stoch.ops.{op}")
        self.registry.observe(f"stoch.grid.{op}", float(grid_size), GRID_EDGES)


class _EngineSpan:
    __slots__ = ("probe", "name", "inner", "t0")

    def __init__(self, probe: LayerProbe, name: str, inner: Any) -> None:
        self.probe = probe
        self.name = name
        self.inner = inner

    def __enter__(self) -> "_EngineSpan":
        if self.inner is not None:
            self.inner.__enter__()
        if self.name == "engine.arrival":
            self.probe.in_arrival = True
        self.t0 = _ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        dur = _ns() - self.t0
        counts = self.probe.counts
        counts[f"{self.name}.calls"] += 1
        counts[f"{self.name}_ns"] += dur
        self.probe.in_arrival = False
        if self.inner is not None:
            self.inner.__exit__(*exc)
        return False


class _EngineTracer:
    """A ``Tracer`` that times engine spans and forwards them to ``inner``."""

    __slots__ = ("probe", "inner")

    def __init__(self, probe: LayerProbe, inner: Any) -> None:
        self.probe = probe
        self.inner = inner

    def span(self, name: str) -> _EngineSpan:
        inner = self.inner.span(name) if self.inner is not None else None
        return _EngineSpan(self.probe, name, inner)


def _timed(probe: LayerProbe, fn: Callable, calls: str, ns: str, *, inner: bool = False) -> Callable:
    """Wrap ``fn`` to count calls and add its wall time in ns."""
    counts = probe.counts

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        t0 = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _ns() - t0
            counts[calls] += 1
            counts[ns] += dur
            if inner and probe.in_arrival:
                counts["arrival.inner_ns"] += dur

    return wrapper


def _subclasses_defining(base: type, method: str) -> list[type]:
    """``base`` and its loaded subclasses whose own dict defines ``method``."""
    seen: list[type] = []
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return [cls for cls in seen if method in cls.__dict__]


def install(probe: LayerProbe) -> Callable[[], None]:
    """Install every wrapper; return the function that removes them."""
    undo: list[Callable[[], None]] = []
    counts = probe.counts

    def patch(owner: Any, name: str, value: Any) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        undo.append(lambda: setattr(owner, name, old))

    def patch_function(module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere repro imported it by name."""
        original = getattr(module, name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro":
                continue
            if mod.__dict__.get(name) is original:
                patch(mod, name, replacement)

    # sim.system
    patch_function(
        system_mod,
        "build_trial_system",
        lambda fn: _timed(probe, fn, "system.builds", "system.build_ns"),
    )

    # sim.state: ready-pmf time, needed to take it out of the mapper's own time.
    patch(
        CoreState,
        "ready_pmf",
        _timed(probe, CoreState.ready_pmf, "state.ready_pmf_calls", "state.ready_pmf_ns"),
    )

    # sim.mapper
    build = CandidateBuilder.build

    def timed_build(self: CandidateBuilder, task: Any, t_now: float) -> Any:
        ready_before = counts["state.ready_pmf_ns"]
        t0 = _ns()
        out = build(self, task, t_now)
        dur = _ns() - t0
        counts["mapper.build_calls"] += 1
        counts["mapper.build_self_ns"] += dur - (counts["state.ready_pmf_ns"] - ready_before)
        probe.build_latency_ns.append(dur)
        if probe.in_arrival:
            counts["arrival.inner_ns"] += dur
        return out

    patch(CandidateBuilder, "build", timed_build)

    # filters: every chain class with its own apply (the plain chain and
    # the span-recording chain the observed path substitutes).
    for cls in _subclasses_defining(FilterChain, "apply"):
        apply = cls.__dict__["apply"]

        def timed_apply(self: Any, cands: Any, ctx: Any, _apply: Callable = apply) -> None:
            before = int(np.count_nonzero(cands.mask))
            t0 = _ns()
            _apply(self, cands, ctx)
            dur = _ns() - t0
            after = cands.num_feasible
            counts["filters.apply_calls"] += 1
            counts["filters.apply_ns"] += dur
            counts["filters.before"] += before
            counts["filters.after"] += after
            if after == 0:
                counts["filters.emptied"] += 1
            if probe.in_arrival:
                counts["arrival.inner_ns"] += dur

        patch(cls, "apply", timed_apply)

    # heuristics: the concrete policies (the timing decorator delegates to them).
    for cls in _subclasses_defining(Heuristic, "select"):
        if cls is hooks_mod.TimedHeuristic or getattr(cls.select, "__isabstractmethod__", False):
            continue
        patch(
            cls,
            "select",
            _timed(probe, cls.__dict__["select"], "heuristics.select_calls", "heuristics.select_ns", inner=True),
        )

    # cluster.energy
    for cls in (EnergyLedger, StreamingEnergyMeter):
        patch(cls, "record", _timed(probe, cls.__dict__["record"], "energy.records", "energy.record_ns"))

    # service: window accounting
    for name in _ACCOUNTING:
        patch(
            WindowAccumulator,
            name,
            _timed(probe, WindowAccumulator.__dict__[name], "service.accounting_calls", "service.accounting_ns"),
        )

    # sim.engine: spans through the public tracer= parameter.
    engine_init = Engine.__init__

    def traced_init(self: Engine, *args: Any, **kwargs: Any) -> None:
        kwargs["tracer"] = _EngineTracer(probe, kwargs.get("tracer"))
        engine_init(self, *args, **kwargs)
        probe.last_engine = self

    patch(Engine, "__init__", traced_init)

    # Worker-side counts ride home in each trial's metrics registry.
    def make_observe(fn: Callable) -> Callable:
        def observe_trial(*args: Any, **kwargs: Any) -> Any:
            try:
                return fn(*args, **kwargs)
            finally:
                registry = kwargs.get("metrics")
                if registry is not None:
                    probe.flush_into(registry)

        return observe_trial

    patch_function(hooks_mod, "observe_trial", make_observe)

    # experiments.executor (parent side): busy time from its own spans.
    def make_supervised(fn: Callable) -> Callable:
        def run_supervised(*args: Any, **kwargs: Any) -> Any:
            t0 = _ns()
            done, failed = fn(*args, **kwargs)
            wall = _ns() - t0
            registry = kwargs.get("metrics")
            recorder = kwargs.get("profile")
            if registry is not None:
                busy = 0.0
                if recorder is not None:
                    busy = sum(r.dur for r in recorder.records if r.name == "executor.trial")
                registry.inc("bench.executor.calls")
                registry.inc("bench.executor.trials", len(done))
                registry.inc("bench.executor.busy_ns", int(busy * 1e9))
                registry.inc("bench.executor.capacity_ns", kwargs.get("n_jobs", 1) * wall)
            return done, failed

        return run_supervised

    patch_function(executor_mod, "run_supervised", make_supervised)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# ----------------------------------------------------------------------
# Registry -> per-layer metrics
# ----------------------------------------------------------------------

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("system.builds", "count"),
    ("system.build_s", "s"),
    ("system.build_share", "ratio"),
    ("mapper.build_calls", "count"),
    ("mapper.build_self_s", "s"),
    ("mapper.build_p50_us", "us"),
    ("mapper.build_p99_us", "us"),
    ("mapper.build_samples", "count"),
    ("state.ready_pmf_calls", "count"),
    ("state.ready_pmf_s", "s"),
    ("stoch.convolve_ops", "count"),
    ("stoch.convolve_bins", "count"),
    ("stoch.truncate_ops", "count"),
    ("stoch.prob_sum_ops", "count"),
    ("stoch.convolve_per_build", "ratio"),
    ("perf.cache_hits", "count"),
    ("perf.cache_misses", "count"),
    ("perf.cache_hit_rate", "ratio"),
    ("perf.cache_evictions", "count"),
    ("filters.apply_calls", "count"),
    ("filters.apply_s", "s"),
    ("filters.survivor_ratio", "ratio"),
    ("filters.emptied_frac", "ratio"),
    ("heuristics.select_calls", "count"),
    ("heuristics.select_s", "s"),
    ("engine.completion_calls", "count"),
    ("engine.completion_s", "s"),
    ("engine.arrival_other_s", "s"),
    ("engine.score_s", "s"),
    ("energy.records", "count"),
    ("energy.record_s", "s"),
    ("service.window_closes", "count"),
    ("service.accounting_s", "s"),
    ("faults.outages", "count"),
    ("faults.orphaned", "count"),
    ("faults.remap_ratio", "ratio"),
    ("faults.lost", "count"),
    ("faults.shed", "count"),
    ("faults.deferred", "count"),
    ("executor.trials", "count"),
    ("executor.retries", "count"),
    ("executor.worker_busy_s", "s"),
    ("executor.parallel_efficiency", "ratio"),
    ("obs.trace_overhead_pct", "%"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_us(hist: Histogram | None, q: float) -> float:
    """Percentile ``q`` of the latency histogram, as a bucket's geometric middle."""
    if hist is None or hist.count == 0:
        return 0.0
    cum = np.cumsum(hist.counts)
    i = int(np.searchsorted(cum, q * hist.count, side="left"))
    edges = hist.edges
    hi = edges[min(i, len(edges) - 1)]
    lo = edges[i - 1] if 0 < i <= len(edges) else hi
    return float(np.sqrt(lo * hi)) / 1e3


def layer_metrics(
    registry: MetricsRegistry,
    *,
    unit_build_s: float,
    unit_cpu_s: float,
    trace_overhead_pct: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its merged registry."""
    c = registry.counter
    s = lambda name: c(f"bench.{name}") / 1e9  # noqa: E731 - ns counter -> seconds
    hits, misses = c("perf.cache.hits"), c("perf.cache.misses")
    grid = registry.histograms.get("stoch.grid.convolve")
    latency = registry.histograms.get(_LATENCY_HIST)
    arrival_other = c("bench.engine.arrival_ns") - c("bench.arrival.inner_ns")
    orphaned = c("bench.faults.orphaned")
    return {
        "system.builds": c("bench.system.builds"),
        "system.build_s": s("system.build_ns"),
        "system.build_share": _ratio(unit_build_s, unit_cpu_s),
        "mapper.build_calls": c("bench.mapper.build_calls"),
        "mapper.build_self_s": s("mapper.build_self_ns"),
        "mapper.build_p50_us": _percentile_us(latency, 0.50),
        "mapper.build_p99_us": _percentile_us(latency, 0.99),
        "mapper.build_samples": latency.count if latency is not None else 0,
        "state.ready_pmf_calls": c("bench.state.ready_pmf_calls"),
        "state.ready_pmf_s": s("state.ready_pmf_ns"),
        "stoch.convolve_ops": c("stoch.ops.convolve"),
        "stoch.convolve_bins": int(grid.total) if grid is not None else 0,
        "stoch.truncate_ops": c("stoch.ops.truncate_below"),
        "stoch.prob_sum_ops": c("stoch.ops.prob_sum_at_most"),
        "stoch.convolve_per_build": _ratio(c("stoch.ops.convolve"), c("bench.mapper.build_calls")),
        "perf.cache_hits": hits,
        "perf.cache_misses": misses,
        "perf.cache_hit_rate": _ratio(hits, hits + misses),
        "perf.cache_evictions": c("perf.cache.evictions"),
        "filters.apply_calls": c("bench.filters.apply_calls"),
        "filters.apply_s": s("filters.apply_ns"),
        "filters.survivor_ratio": _ratio(c("bench.filters.after"), c("bench.filters.before")),
        "filters.emptied_frac": _ratio(c("bench.filters.emptied"), c("bench.filters.apply_calls")),
        "heuristics.select_calls": c("bench.heuristics.select_calls"),
        "heuristics.select_s": s("heuristics.select_ns"),
        "engine.completion_calls": c("bench.engine.completion.calls"),
        "engine.completion_s": s("engine.completion_ns"),
        "engine.arrival_other_s": arrival_other / 1e9,
        "engine.score_s": s("engine.score_ns"),
        "energy.records": c("bench.energy.records"),
        "energy.record_s": s("energy.record_ns"),
        "service.window_closes": c("bench.service.window_closes"),
        "service.accounting_s": s("service.accounting_ns"),
        "faults.outages": c("bench.faults.outages"),
        "faults.orphaned": orphaned,
        "faults.remap_ratio": _ratio(c("bench.faults.remapped"), orphaned),
        "faults.lost": c("bench.faults.lost"),
        "faults.shed": c("bench.faults.shed"),
        "faults.deferred": c("bench.faults.deferred"),
        "executor.trials": c("bench.executor.trials"),
        "executor.retries": c("executor.trials_retried"),
        "executor.worker_busy_s": s("executor.busy_ns"),
        "executor.parallel_efficiency": _ratio(
            c("bench.executor.busy_ns"), c("bench.executor.capacity_ns")
        ),
        "obs.trace_overhead_pct": trace_overhead_pct,
    }
