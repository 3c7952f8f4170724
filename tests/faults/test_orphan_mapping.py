"""Orphans and arrivals share the mapping step but not the arrival gates.

A task displaced by an outage is re-mapped through the same candidate /
filter / select / commit step as a fresh arrival.  Only arrivals pass
the admission controller (deferral and queue-depth shedding) and the
``min_prob`` floor; an orphan was admitted once already, so it is
re-placed whatever its chosen on-time probability, and it is never
deferred.  These tests pin that split on one run that trips all three
gates: a queue-depth deferral, a floor shed, and an outage whose
orphans can only be re-placed below the floor.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro.faults import (
    SHED_MIN_PROB,
    AdmissionController,
    FaultEvent,
    FaultPolicy,
    FaultSchedule,
    SheddingConfig,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine, EngineHooks
from tests.conftest import tiny_config

OUTAGE_AT = 600.0
FLOOR = 0.7
SHEDDING = dict(min_prob=FLOOR, queue_depth=1.2, defer=50.0, max_defers=1)


class _SpyHeuristic:
    """Delegates to LL and records every decision's chosen on-time probability."""

    def __init__(self) -> None:
        self.inner = build_heuristic("LL")
        self.name = self.inner.name
        self.picks: list[tuple[int, float, float | None]] = []

    def select(self, cands, ctx):
        index = self.inner.select(cands, ctx)
        prob = None if index is None else float(cands.prob_on_time[index])
        self.picks.append((ctx.task.task_id, ctx.t_now, prob))
        return index


class _SpyAdmission(AdmissionController):
    """The threshold controller, recording when each gate is consulted."""

    __slots__ = ("engine", "admits", "floor_checks")

    def __init__(self, config: SheddingConfig) -> None:
        super().__init__(config)
        self.engine: Engine | None = None
        self.admits: list[tuple[int, float, str]] = []
        self.floor_checks: list[float] = []

    def admit(self, task_id, queue_depth, budget_frac):
        verdict = super().admit(task_id, queue_depth, budget_frac)
        self.admits.append((task_id, self.engine.now, verdict[0]))
        return verdict

    def below_prob_floor(self, prob):
        self.floor_checks.append(self.engine.now)
        return super().below_prob_floor(prob)


class _Recorder(EngineHooks):
    def __init__(self) -> None:
        self.orphaned: dict[int, str] = {}
        self.shed: list[tuple[int, str, bool, float]] = []

    def on_orphaned(self, engine, task, core_id, disposition):
        self.orphaned[task.task_id] = disposition

    def on_shed(self, engine, task, cause, deferred):
        self.shed.append((task.task_id, cause, deferred, engine.now))


@pytest.fixture(scope="module")
def run():
    # Tight deadlines and a sharp burst: queues build, some arrivals can
    # only be placed below the floor, and the outage's orphans have
    # little slack left.
    config = tiny_config(seed=123).with_updates(
        workload={"load_factor_mult": 0.2, "fast_ratio": 10.0}
    )
    system = build_trial_system(config)
    heuristic = _SpyHeuristic()
    hooks = _Recorder()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "AdmissionController", _SpyAdmission)
        engine = Engine(
            system,
            heuristic,
            build_filter_chain("none", system.config.filters),
            hooks=(hooks,),
            faults=FaultSchedule((FaultEvent("node_outage", 0, OUTAGE_AT, 3000.0),)),
            fault_policy=FaultPolicy(running="resume", remap=True),
            shedding=SheddingConfig(**SHEDDING),
        )
    admission = engine._shedder
    assert isinstance(admission, _SpyAdmission)
    admission.engine = engine
    engine.run()
    return engine, heuristic, hooks, admission


def test_arrival_below_floor_is_shed(run):
    engine, heuristic, hooks, _ = run
    floor_shed = [(tid, t) for tid, cause, _, t in hooks.shed if cause == SHED_MIN_PROB]
    assert floor_shed
    chosen = {(tid, t): prob for tid, t, prob in heuristic.picks}
    for key in floor_shed:
        assert chosen[key] < FLOOR
    # Every arrival decision under the floor was shed, none committed.
    below = [
        (tid, t)
        for tid, t, prob in heuristic.picks
        if t != OUTAGE_AT and prob is not None and prob < FLOOR
    ]
    assert sorted(below) == sorted(floor_shed)
    assert engine.fault_stats.shed >= len(floor_shed)


def test_orphan_below_floor_is_remapped(run):
    engine, heuristic, hooks, _ = run
    assert engine.fault_stats.outages == 1
    orphan_picks = {
        tid: prob
        for tid, t, prob in heuristic.picks
        if t == OUTAGE_AT and tid in hooks.orphaned
    }
    remapped_below = [
        tid
        for tid, prob in orphan_picks.items()
        if prob is not None and prob < FLOOR and hooks.orphaned[tid] == "remapped"
    ]
    assert remapped_below
    # No shed of any kind at the outage: orphans skip both arrival gates.
    assert not [s for s in hooks.shed if s[3] == OUTAGE_AT]
    assert engine.fault_stats.remapped == sum(
        1 for d in hooks.orphaned.values() if d == "remapped"
    )


def test_orphans_never_pass_admission(run):
    engine, _, hooks, admission = run
    orphan_ids = set(hooks.orphaned)
    assert orphan_ids
    assert not [a for a in admission.admits if a[1] == OUTAGE_AT]
    assert OUTAGE_AT not in admission.floor_checks
    # Deferrals are counted from arrivals only, one per "defer" verdict.
    defers = [a for a in admission.admits if a[2] == "defer"]
    assert defers
    assert engine.fault_stats.deferred == len(defers)
    assert engine.fault_stats.deferred == sum(1 for s in hooks.shed if s[2])
