"""Batch-equivalence parity: replay service mode reduces to run_trial.

The lazy event loop keeps exactly one pending arrival in the heap
instead of materializing the whole workload up front; for a finite
replay this must be a pure refactor — same trajectory, same scored
result, bit for bit.  These tests pin that equivalence through the
public api facade and through the digesting layer.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import api
from repro import rng as rng_mod
from repro.obs.manifest import trial_digest
from repro.service import ServiceConfig, serve_system
from repro.sim.engine import Engine
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def scenario() -> api.Scenario:
    return api.Scenario("LL", "en+rob", config=tiny_config(seed=123))


@pytest.fixture(scope="module")
def system(scenario):
    return scenario.build_system()


class TestReplayParity:
    @pytest.mark.parametrize(
        "heuristic,filters",
        [("LL", "en+rob"), ("MECT", "none"), ("SQ", "en"), ("Random", "rob")],
    )
    def test_replay_equals_batch_bitwise(self, system, heuristic, filters):
        scenario = api.Scenario(heuristic, filters, config=tiny_config(seed=123))
        batch = api.run_trial(scenario, system=system, keep_outcomes=True)
        svc = api.run_service(scenario, system=system)
        # Dataclass equality covers every field including per-task
        # outcomes; the digest doubles as the manifest-level check.
        assert svc.trial_result == batch
        assert trial_digest(svc.trial_result) == trial_digest(batch)

    def test_default_service_config_is_replay(self, scenario, system):
        svc = api.run_service(scenario, system=system)
        assert svc.traffic == "replay"
        assert svc.trial_result is not None

    def test_windows_are_contiguous_and_cover_the_run(self, scenario, system):
        svc = api.run_service(scenario, system=system)
        windows = svc.windows
        assert windows[0].start == 0.0
        assert windows[-1].end >= svc.makespan
        for left, right in zip(windows, windows[1:]):
            assert right.start == left.end

    def test_window_totals_match_the_scored_result(self, scenario, system):
        batch = api.run_trial(scenario, system=system)
        svc = api.run_service(scenario, system=system)
        totals = svc.totals
        assert totals.arrivals == batch.num_tasks
        assert totals.discarded == batch.discarded
        assert totals.completed == batch.num_tasks - batch.discarded
        # Replay windows and the ledger agree on consumed energy.
        assert svc.total_energy == pytest.approx(batch.total_energy, rel=1e-9)
        assert totals.energy == pytest.approx(batch.total_energy, rel=1e-9)

    def test_truncated_replay_is_unscored_and_bounded(self, scenario, system):
        svc = api.run_service(
            replace(scenario, service=ServiceConfig(traffic="replay", task_limit=20)),
            system=system,
        )
        assert svc.trial_result is None
        assert svc.arrivals == 20

    def test_horizon_bounds_admissions(self, scenario, system):
        full = api.run_service(scenario, system=system)
        cut = full.makespan / 3.0
        svc = api.run_service(
            replace(scenario, service=ServiceConfig(traffic="replay", horizon=cut)),
            system=system,
        )
        expected = sum(1 for t in system.workload.tasks if t.arrival <= cut)
        assert svc.arrivals == expected


class TestLowLevelParity:
    def test_serve_system_matches_engine_run_trial(self, system):
        spec = api.VariantSpec("LL", "en+rob")
        heuristic = api.build_heuristic(
            "LL", rng_mod.stream(system.config.seed, "heuristic", spec.label)
        )
        chain = api.build_filter_chain("en+rob", system.config.filters)
        batch = Engine(system, heuristic, chain).run()
        svc = serve_system(system, spec, ServiceConfig(traffic="replay"))
        assert svc.trial_result == batch
