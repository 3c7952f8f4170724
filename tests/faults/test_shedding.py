"""Admission-controller behavior: defer, shed, the min-prob floor, and
the dispatch floor that drops hopeless queued tasks."""

from __future__ import annotations

import pytest

from repro import api, build_trial_system
from repro.faults import (
    SHED_BUDGET,
    SHED_QUEUE_DEPTH,
    AdmissionController,
    FaultEvent,
    FaultPolicy,
    FaultSchedule,
    SheddingConfig,
)
from repro.filters.chain import build_filter_chain
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.registry import build_heuristic
from repro.obs.manifest import trial_digest
from repro.service import ServiceConfig, serve_system
from repro.sim.engine import Engine, EngineHooks
from repro.validation import validate_trial
from tests.conftest import small_config, tiny_config


@pytest.fixture(scope="module")
def scenario() -> api.Scenario:
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=123))


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


class TestSheddingConfig:
    def test_all_none_is_disabled(self):
        assert not SheddingConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(queue_depth=-1.0),
            dict(budget_frac=1.5),
            dict(min_prob=-0.1),
            dict(queue_depth=1.0, defer=0.0),
            dict(queue_depth=1.0, max_defers=-1),
            dict(dispatch_prob=1.5),
            dict(dispatch_prob=-0.1),
        ],
    )
    def test_invalid_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SheddingConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(defer=5.0),
            dict(defer=5.0, min_prob=0.1),
            dict(defer=5.0, dispatch_prob=0.2),
        ],
    )
    def test_defer_needs_a_deferring_threshold(self, kwargs):
        # Only queue-depth and budget trips defer: a defer next to
        # neither would load and then never apply.
        with pytest.raises(ValueError, match="defer needs"):
            SheddingConfig(**kwargs)
        with pytest.raises(ValueError, match="defer needs"):
            api.Scenario.from_dict({"shedding": kwargs})
        SheddingConfig(**kwargs, queue_depth=1.0)
        SheddingConfig(**kwargs, budget_frac=0.1)

    def test_any_threshold_enables(self):
        assert SheddingConfig(queue_depth=2.0).enabled
        assert SheddingConfig(budget_frac=0.1).enabled
        assert SheddingConfig(min_prob=0.5).enabled
        assert SheddingConfig(dispatch_prob=0.5).enabled


class TestAdmissionController:
    def test_admits_below_thresholds(self):
        ctl = AdmissionController(SheddingConfig(queue_depth=2.0, budget_frac=0.25))
        assert ctl.admit(0, 1.5, 0.5) == ("admit", "")

    def test_sheds_on_queue_depth_without_defer(self):
        ctl = AdmissionController(SheddingConfig(queue_depth=2.0))
        assert ctl.admit(0, 2.5, None) == ("shed", SHED_QUEUE_DEPTH)

    def test_sheds_on_budget_level(self):
        ctl = AdmissionController(SheddingConfig(budget_frac=0.25))
        assert ctl.admit(0, 0.0, 0.1) == ("shed", SHED_BUDGET)
        # Unknown budget level (no rolling budget): check is skipped.
        assert ctl.admit(1, 0.0, None) == ("admit", "")

    def test_defers_then_sheds_after_max(self):
        ctl = AdmissionController(
            SheddingConfig(queue_depth=1.0, defer=10.0, max_defers=2)
        )
        assert ctl.admit(7, 5.0, None) == ("defer", SHED_QUEUE_DEPTH)
        assert ctl.admit(7, 5.0, None) == ("defer", SHED_QUEUE_DEPTH)
        assert ctl.admit(7, 5.0, None) == ("shed", SHED_QUEUE_DEPTH)

    def test_admission_settles_defer_tracking(self):
        ctl = AdmissionController(
            SheddingConfig(queue_depth=1.0, defer=10.0, max_defers=1)
        )
        assert ctl.admit(3, 5.0, None)[0] == "defer"
        assert ctl.admit(3, 0.0, None)[0] == "admit"
        # Admission forgets the task; a fresh overload gets a fresh defer.
        assert ctl.admit(3, 5.0, None)[0] == "defer"

    def test_min_prob_floor(self):
        ctl = AdmissionController(SheddingConfig(min_prob=0.4))
        assert ctl.below_prob_floor(0.39)
        assert not ctl.below_prob_floor(0.4)
        disabled = AdmissionController(SheddingConfig(queue_depth=1.0))
        assert not disabled.below_prob_floor(0.0)


class TestEngineShedding:
    """Shedding observed through continuous service under overload."""

    OUTAGE = FaultSchedule((FaultEvent("node_outage", 0, 500.0, 2500.0),))
    BASE = dict(traffic="poisson", rate_mult=2.5, task_limit=200)

    def _serve(self, scenario, system, shedding=None):
        return serve_system(
            system,
            scenario.spec,
            ServiceConfig(
                **self.BASE,
                faults=self.OUTAGE,
                fault_policy=FaultPolicy(running="resume", remap=True),
                shedding=shedding,
            ),
        )

    def test_queue_depth_shedding_protects_admitted_work(self, scenario, system):
        # The acceptance demo's shedding half: under 2.5x overload plus a
        # node outage, admitting everything makes a chunk of completions
        # late; the queue-depth shedder keeps admitted work on time.
        unprotected = self._serve(scenario, system)
        protected = self._serve(scenario, system, SheddingConfig(queue_depth=1.0))
        assert unprotected.totals.late > 0
        assert protected.totals.late == 0
        assert protected.fault_totals["shed"] > 0
        # Shed arrivals are accounted, not lost: the window identity holds.
        totals = protected.totals
        assert totals.arrivals == self.BASE["task_limit"]
        assert totals.arrivals == totals.mapped + totals.discarded + totals.shed

    def test_deferral_retries_instead_of_dropping(self, scenario, system):
        deferred = self._serve(
            scenario,
            system,
            SheddingConfig(queue_depth=1.0, defer=120.0, max_defers=10),
        )
        assert deferred.fault_totals["deferred"] > 0
        # A deferred arrival is not terminal: every arrival still ends
        # mapped, discarded, or shed for good.
        totals = deferred.totals
        assert totals.arrivals == totals.mapped + totals.discarded + totals.shed

    def test_min_prob_floor_sheds_hopeless_tasks(self, scenario, system):
        protected = self._serve(scenario, system, SheddingConfig(min_prob=0.95))
        assert protected.fault_totals["shed"] > 0

    def test_shedding_is_deterministic(self, scenario, system):
        first = self._serve(scenario, system, SheddingConfig(queue_depth=1.0))
        second = self._serve(scenario, system, SheddingConfig(queue_depth=1.0))
        assert [w.to_dict() for w in first.windows] == [
            w.to_dict() for w in second.windows
        ]
        assert first.fault_totals == second.fault_totals


class _Drops(EngineHooks):
    """Records the ids the dispatch floor drops and the ids that complete."""

    def __init__(self) -> None:
        self.dropped: list[int] = []
        self.completed: set[int] = set()

    def on_completion(self, engine, core_id, task, t_now) -> None:
        self.completed.add(task.task_id)

    def on_orphaned(self, engine, task, core_id, disposition) -> None:
        assert disposition == "dropped"
        self.dropped.append(task.task_id)


class TestDispatchFloor:
    """``dispatch_prob``: a freed core drops queued tasks below the floor."""

    @pytest.fixture(scope="class")
    def congested(self):
        # Two nodes under bursts at 10x the equilibrium rate: queues build
        # up and queued tasks fall below the floor before they start.
        system = build_trial_system(
            small_config(seed=17).with_updates(
                cluster={"num_nodes": 2}, workload={"fast_ratio": 10.0}
            )
        )
        baseline = Engine(
            system, MinimumExpectedCompletionTime(), build_filter_chain("none")
        ).run()
        drops = _Drops()
        engine = Engine(
            system,
            MinimumExpectedCompletionTime(),
            build_filter_chain("none"),
            hooks=(drops,),
            shedding=SheddingConfig(dispatch_prob=0.25),
        )
        return system, baseline, engine, engine.run(), drops

    def test_dropped_tasks_never_complete(self, congested):
        _, _, _, result, drops = congested
        assert drops.dropped, "the congested system dropped nothing"
        assert len(set(drops.dropped)) == len(drops.dropped)
        assert not set(drops.dropped) & drops.completed
        completed_ids = {o.task_id for o in result.outcomes if not o.discarded}
        assert not set(drops.dropped) & completed_ids

    def test_drops_become_discards(self, congested):
        _, baseline, engine, result, drops = congested
        assert engine.fault_stats.lost == len(drops.dropped)
        # MECT/none discards nothing on its own: every drop is a discard.
        assert result.discarded - baseline.discarded == engine.fault_stats.lost

    def test_accounting_still_consistent(self, congested):
        _, _, engine, result, _ = congested
        assert engine.in_system == 0
        assert result.missed == result.discarded + result.late + result.energy_cutoff

    def test_floor_does_not_raise_misses(self, congested):
        _, baseline, _, result, drops = congested
        # Dropping sub-25% tasks frees their core time for the rest.
        assert result.missed <= baseline.missed

    def test_floored_run_validates(self, congested):
        system, _, engine, result, _ = congested
        validate_trial(system, result, engine)

    def test_floor_alone_runs_no_admission(self, system, monkeypatch):
        # A config whose only threshold is the dispatch floor builds no
        # admission controller: no arrival is screened, and the trial is
        # the one the screened engine ran.
        calls = []
        admit = AdmissionController.admit

        def counting(ctl, *args):
            calls.append(args)
            return admit(ctl, *args)

        monkeypatch.setattr(AdmissionController, "admit", counting)
        engine = Engine(
            system,
            build_heuristic("LL"),
            build_filter_chain("en+rob"),
            shedding=SheddingConfig(dispatch_prob=0.25),
        )
        result = engine.run()
        assert len(result.outcomes) == 60
        assert calls == []
        assert trial_digest(result) == (
            "0ce67bf188b2fdbce3be53dd350de6278043c854cebb094661ff7a5f78aad5c4"
        )

    def test_zero_floor_is_inert(self, system):
        # A floor of 0 never drops (no probability is below it), and an
        # unset floor is no check at all: both replay the plain run.
        def digest(shedding):
            engine = Engine(
                system,
                MinimumExpectedCompletionTime(),
                build_filter_chain("none"),
                shedding=shedding,
            )
            return trial_digest(engine.run())

        plain = digest(SheddingConfig(queue_depth=1.5))
        assert digest(SheddingConfig(queue_depth=1.5, dispatch_prob=None)) == plain
        assert digest(SheddingConfig(queue_depth=1.5, dispatch_prob=0.0)) == plain

    def test_serve_keeps_window_identities(self, scenario, system):
        def serve(shedding):
            return serve_system(
                system,
                scenario.spec,
                ServiceConfig(
                    **TestEngineShedding.BASE,
                    faults=TestEngineShedding.OUTAGE,
                    shedding=shedding,
                ),
            )

        unfloored = serve(SheddingConfig(queue_depth=2.0))
        floored = serve(SheddingConfig(queue_depth=2.0, dispatch_prob=0.5))
        assert floored.fault_totals["lost"] > unfloored.fault_totals["lost"]
        in_system = 0
        for w in floored.windows:
            assert w.arrivals == w.mapped + w.discarded + w.shed
            assert w.completed == w.on_time + w.late
            in_system += w.mapped - w.completed - w.lost
            assert w.in_system_end == in_system
        totals = floored.totals
        assert totals.arrivals == TestEngineShedding.BASE["task_limit"]
        assert totals.arrivals == totals.mapped + totals.discarded + totals.shed
        assert totals.mapped == totals.completed + totals.lost
        assert totals.in_system_end == 0
        assert floored.fault_totals["lost"] == totals.lost
