"""Tests for arrival-pattern generators (repro.extensions.arrival_patterns)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.extensions.arrival_patterns import (
    constant_arrivals,
    multi_burst_arrivals,
    sinusoidal_arrivals,
    workload_with_arrivals,
)


class TestConstantArrivals:
    def test_count_and_monotone(self, rng):
        times = constant_arrivals(200, 0.1, rng)
        assert times.shape == (200,)
        assert np.all(np.diff(times) >= 0)

    def test_rate_matches(self):
        rng = np.random.default_rng(0)
        times = constant_arrivals(20_000, 0.05, rng)
        mean_gap = float(np.diff(np.concatenate([[0.0], times])).mean())
        assert mean_gap == pytest.approx(20.0, rel=0.03)

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            constant_arrivals(10, 0.0, rng)


class TestSinusoidalArrivals:
    def test_count_and_monotone(self, rng):
        times = sinusoidal_arrivals(300, 0.1, 0.5, 500.0, rng)
        assert times.shape == (300,)
        assert np.all(np.diff(times) >= 0)

    def test_zero_amplitude_is_homogeneous(self):
        rng = np.random.default_rng(1)
        times = sinusoidal_arrivals(10_000, 0.1, 0.0, 100.0, rng)
        mean_gap = float(np.diff(np.concatenate([[0.0], times])).mean())
        assert mean_gap == pytest.approx(10.0, rel=0.05)

    def test_rate_oscillates(self):
        rng = np.random.default_rng(2)
        period = 1000.0
        times = sinusoidal_arrivals(30_000, 0.2, 0.9, period, rng)
        phase = (times % period) / period
        # More arrivals in the rate peak (first half) than the trough.
        first_half = float(np.mean(phase < 0.5))
        assert first_half > 0.6

    def test_rejects_bad_amplitude(self, rng):
        with pytest.raises(ValueError):
            sinusoidal_arrivals(10, 0.1, 1.0, 100.0, rng)


class TestMultiBurstArrivals:
    def test_count_and_monotone(self, rng):
        times = multi_burst_arrivals(500, 4, 0.4, 0.2, 0.02, rng)
        assert times.shape == (500,)
        assert np.all(np.diff(times) >= 0)

    def test_two_bursts_reduces_to_paper_shape(self, rng):
        times = multi_burst_arrivals(1000, 2, 0.4, 1 / 8, 1 / 48, rng)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert gaps[:200].mean() < gaps[250:550].mean()

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            multi_burst_arrivals(100, 2, 1.5, 0.2, 0.02, rng)

    def test_rejects_misordered_rates(self, rng):
        with pytest.raises(ValueError):
            multi_burst_arrivals(100, 2, 0.4, 0.02, 0.2, rng)


class TestWorkloadWithArrivals:
    def test_builds_valid_workload(self, tiny_system, rng):
        cfg = tiny_system.config.workload
        arrivals = constant_arrivals(cfg.num_tasks, 0.05, rng)
        wl = workload_with_arrivals(cfg, tiny_system.table, seed=4, arrivals=arrivals)
        assert wl.num_tasks == cfg.num_tasks
        assert np.allclose([t.arrival for t in wl.tasks], arrivals)

    def test_deadlines_follow_baseline_model(self, tiny_system, rng):
        cfg = tiny_system.config.workload
        arrivals = constant_arrivals(cfg.num_tasks, 0.05, rng)
        wl = workload_with_arrivals(cfg, tiny_system.table, seed=4, arrivals=arrivals)
        t_avg = tiny_system.table.t_avg()
        for task in wl.tasks[:5]:
            expected = (
                task.arrival + tiny_system.table.mean_exec_of_type(task.type_id) + t_avg
            )
            assert task.deadline == pytest.approx(expected)

    def test_same_seed_same_types(self, tiny_system, rng):
        # Task types derive from the seed, not the arrival vector, so a
        # custom pattern is comparable against the baseline workload.
        cfg = tiny_system.config.workload
        arrivals = constant_arrivals(cfg.num_tasks, 0.05, rng)
        wl = workload_with_arrivals(
            cfg, tiny_system.table, seed=tiny_system.config.seed, arrivals=arrivals
        )
        assert [t.type_id for t in wl.tasks] == [
            t.type_id for t in tiny_system.workload.tasks
        ]

    def test_rejects_wrong_length(self, tiny_system, rng):
        cfg = tiny_system.config.workload
        with pytest.raises(ValueError):
            workload_with_arrivals(
                cfg, tiny_system.table, seed=4, arrivals=np.array([1.0, 2.0])
            )

    def test_rejects_unsorted(self, tiny_system):
        cfg = tiny_system.config.workload
        arrivals = np.linspace(100, 0, cfg.num_tasks)
        with pytest.raises(ValueError):
            workload_with_arrivals(cfg, tiny_system.table, seed=4, arrivals=arrivals)

    def test_runs_through_engine(self, tiny_system, rng):
        from dataclasses import replace

        from repro.filters.chain import build_filter_chain
        from repro.heuristics.shortest_queue import ShortestQueue
        from repro.sim.engine import Engine

        cfg = tiny_system.config.workload
        arrivals = constant_arrivals(cfg.num_tasks, 0.05, rng)
        wl = workload_with_arrivals(cfg, tiny_system.table, seed=4, arrivals=arrivals)
        system = replace(tiny_system, workload=wl)
        result = Engine(system, ShortestQueue(), build_filter_chain("en")).run()
        assert result.num_tasks == cfg.num_tasks
