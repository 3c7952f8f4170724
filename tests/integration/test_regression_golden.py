"""Golden regression values.

These pin exact outputs for fixed seeds so *any* behavioral change to the
pipeline (cluster generation, CVB draw, pmf discretization, mapping
logic, energy accounting) is caught immediately.  If a change is
intentional, regenerate the constants with the printed actuals — every
assertion message carries them.

Scope is deliberately small (one tiny system, four policies) to stay
fast; shape-level correctness lives in test_end_to_end.py.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.validation import validate_trial
from tests.conftest import tiny_config
from repro import build_trial_system


@pytest.fixture(scope="module")
def system():
    return build_trial_system(tiny_config(seed=123))


class TestEnvironmentGolden:
    def test_cluster_draw(self, system):
        assert system.cluster.num_cores == 14
        assert system.cluster.num_nodes == 3

    def test_t_avg(self, system):
        assert system.t_avg == pytest.approx(1031.7930, rel=1e-4)

    def test_p_avg(self, system):
        assert system.p_avg == pytest.approx(76.2899, rel=1e-4)

    def test_budget(self, system):
        assert system.budget == pytest.approx(4722922.4, rel=1e-4)

    def test_first_arrivals(self, system):
        tasks = system.workload.tasks
        assert tasks[0].arrival == pytest.approx(11.3764, rel=1e-3)
        assert tasks[0].type_id == 4


def _run(system, heuristic: str, variant: str) -> int:
    result = api.run_trial(
        api.Scenario(heuristic, variant), system=system, keep_outcomes=True
    )
    validate_trial(system, result)
    return result.missed


class TestPolicyGolden:
    """Exact missed-deadline counts for seed 123 (60 tasks, 3 nodes)."""

    def test_mect_none(self, system):
        assert _run(system, "MECT", "none") == 20

    def test_mect_en_rob(self, system):
        assert _run(system, "MECT", "en+rob") == 8

    def test_sq_none(self, system):
        assert _run(system, "SQ", "none") == 20

    def test_ll_en_rob(self, system):
        assert _run(system, "LL", "en+rob") == 6

    def test_random_none(self, system):
        assert _run(system, "Random", "none") == 29
