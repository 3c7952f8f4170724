"""Tests for the energy-budget sweep (repro.experiments.sweep)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import VariantSpec
from repro.experiments.sweep import _point_checkpoint, budget_sweep
from tests.conftest import tiny_config

SPECS = (VariantSpec("MECT", "none"),)


class TestRunSweep:
    """The sweep loop: point order, paired seeds, and its input check."""

    def test_points_in_order(self):
        sweep = budget_sweep([0.5, 2.0], SPECS, tiny_config(), num_trials=2)
        assert sweep.values() == [0.5, 2.0]
        assert sweep.parameter == "budget_mult"
        assert len(sweep.points) == 2

    def test_paired_seeds_across_points(self):
        sweep = budget_sweep([0.5, 2.0], SPECS, tiny_config(), num_trials=2)
        seeds_a = [r.seed for r in sweep.points[0].ensemble.results[SPECS[0]]]
        seeds_b = [r.seed for r in sweep.points[1].ensemble.results[SPECS[0]]]
        assert seeds_a == seeds_b

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            budget_sweep([], SPECS, tiny_config(), 1)

    def test_table_renders(self):
        sweep = budget_sweep([0.5, 2.0], SPECS, tiny_config(), num_trials=2)
        text = sweep.table(num_tasks=60)
        assert "budget_mult" in text
        assert "MECT/none" in text
        assert "out of 60" in text


class TestBudgetSweep:
    def test_tighter_budget_more_misses(self):
        sweep = budget_sweep([0.2, 5.0], SPECS, tiny_config(), num_trials=3)
        medians = sweep.medians(SPECS[0])
        assert medians[0] >= medians[1]

    def test_medians_vector(self):
        sweep = budget_sweep([0.5, 1.0, 2.0], SPECS, tiny_config(), num_trials=2)
        assert sweep.medians(SPECS[0]).shape == (3,)
        assert np.all(sweep.medians(SPECS[0]) >= 0)


class TestSweepCheckpoints:
    def test_point_shard_naming(self):
        assert _point_checkpoint(None, 0) is None
        shard = _point_checkpoint("out/sweep.jsonl", 2)
        assert shard.name == "sweep.point2.jsonl"
        assert _point_checkpoint("out/sweep", 0).name == "sweep.point0.jsonl"

    def test_each_point_gets_its_own_shard(self, tmp_path):
        shard = tmp_path / "budget.jsonl"
        budget_sweep(
            [0.5, 2.0], SPECS, tiny_config(), num_trials=2, checkpoint=shard
        )
        assert (tmp_path / "budget.point0.jsonl").exists()
        assert (tmp_path / "budget.point1.jsonl").exists()
        assert not shard.exists()

    def test_resume_reproduces_the_sweep(self, tmp_path):
        shard = tmp_path / "budget.jsonl"
        first = budget_sweep(
            [0.5, 2.0], SPECS, tiny_config(), num_trials=2, checkpoint=shard
        )
        again = budget_sweep(
            [0.5, 2.0],
            SPECS,
            tiny_config(),
            num_trials=2,
            checkpoint=shard,
            resume=True,
        )
        assert np.array_equal(first.medians(SPECS[0]), again.medians(SPECS[0]))
