"""Tests for the execution-time pmf table (repro.workload.pmf_table)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.generator import generate_cluster
from repro.config import ClusterConfig, GridConfig, SimulationConfig
from repro.sim.system import build_trial_system
from repro.stoch.distributions import discretized_gamma
from repro.workload.etc_matrix import ETCMatrix
from repro.workload.pmf_table import ExecutionTimeTable


@pytest.fixture(scope="module")
def table():
    cluster = generate_cluster(ClusterConfig(num_nodes=3), np.random.default_rng(0))
    etc = ETCMatrix(
        np.random.default_rng(1).uniform(400.0, 1100.0, size=(6, cluster.num_nodes))
    )
    return ExecutionTimeTable(etc, cluster, GridConfig(dt=10.0), exec_cv=0.2)


class TestConstruction:
    def test_rejects_width_mismatch(self):
        cluster = generate_cluster(ClusterConfig(num_nodes=3), np.random.default_rng(0))
        etc = ETCMatrix(np.ones((4, 2)))
        with pytest.raises(ValueError):
            ExecutionTimeTable(etc, cluster, GridConfig(), exec_cv=0.2)

    def test_rejects_bad_cv(self):
        cluster = generate_cluster(ClusterConfig(num_nodes=2), np.random.default_rng(0))
        etc = ETCMatrix(np.ones((2, 2)) * 100)
        with pytest.raises(ValueError):
            ExecutionTimeTable(etc, cluster, GridConfig(), exec_cv=0.0)


class TestBatchConstruction:
    """The one vectorized build equals a per-cell discretization, bit for bit."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda table: table, id="unit-table"),
            pytest.param(
                lambda _: build_trial_system(SimulationConfig(seed=7)).table,
                id="paper-scale-table",
            ),
        ],
    )
    def test_every_cell_matches_discretized_gamma(self, table, make):
        table = make(table)
        grid = table.grid
        mult = table.cluster.exec_multiplier_table()
        T, N, P = table.eet.shape
        for t in range(T):
            for n in range(N):
                for pi in range(P):
                    ref = discretized_gamma(
                        float(table.etc.means[t, n] * mult[n, pi]),
                        table.exec_cv,
                        grid.dt,
                        tail_sigmas=grid.tail_sigmas,
                    )
                    got = table.pmf(t, n, pi)
                    assert got.start == ref.start and got.dt == ref.dt, (t, n, pi)
                    assert np.array_equal(got.probs, ref.probs), (t, n, pi)
                    assert table.eet[t, n, pi] == ref.mean(), (t, n, pi)


class TestPMFs:
    def test_pmf_mean_matches_scaled_etc(self, table):
        etc = table.etc
        mult = table.cluster.exec_multiplier_table()
        for t in (0, 3):
            for n in range(table.cluster.num_nodes):
                for pi in (0, table.cluster.num_pstates - 1):
                    pmf = table.pmf(t, n, pi)
                    expected = etc.means[t, n] * mult[n, pi]
                    assert pmf.mean() == pytest.approx(expected, rel=0.02)

    def test_deeper_pstates_are_slower(self, table):
        for n in range(table.cluster.num_nodes):
            means = [table.pmf(0, n, pi).mean() for pi in range(table.cluster.num_pstates)]
            assert all(a < b for a, b in zip(means, means[1:]))

    def test_pmf_spread_matches_cv(self, table):
        pmf = table.pmf(1, 0, 0)
        assert pmf.std() / pmf.mean() == pytest.approx(0.2, rel=0.1)

    def test_all_pmfs_share_grid(self, table):
        dts = {
            table.pmf(t, n, pi).dt
            for t in range(2)
            for n in range(table.cluster.num_nodes)
            for pi in range(table.cluster.num_pstates)
        }
        assert dts == {10.0}


class TestExpectationTables:
    def test_eet_matches_pmf_means(self, table):
        for n in range(table.cluster.num_nodes):
            for pi in range(table.cluster.num_pstates):
                assert table.eet[2, n, pi] == pytest.approx(table.pmf(2, n, pi).mean())

    def test_eec_formula(self, table):
        # Section V-A: EEC = EET * mu(i, pi) / epsilon(i).
        power = table.cluster.power_table()
        eff = table.cluster.efficiency_vector()
        n, pi = 1, 2
        expected = table.eet[0, n, pi] * power[n, pi] / eff[n]
        assert table.eec[0, n, pi] == pytest.approx(expected)

    def test_eec_tradeoff_exists(self, table):
        # P0 is usually costlier than the deepest state (the whole point
        # of DVFS): more power but less time, power quadratic in voltage.
        eec = table.eec
        cheaper = np.mean(eec[:, :, -1] < eec[:, :, 0])
        assert cheaper > 0.8

    def test_tables_readonly(self, table):
        with pytest.raises(ValueError):
            table.eet[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            table.eec[0, 0, 0] = 1.0


class TestAggregates:
    def test_t_avg_is_mean_of_eet(self, table):
        assert table.t_avg() == pytest.approx(float(table.eet.mean()))

    def test_mean_exec_of_type(self, table):
        assert table.mean_exec_of_type(3) == pytest.approx(float(table.eet[3].mean()))

    def test_mean_exec_per_type_vector(self, table):
        vec = table.mean_exec_per_type()
        assert vec.shape == (table.etc.num_task_types,)
        assert vec[3] == pytest.approx(table.mean_exec_of_type(3))

    def test_t_avg_exceeds_base_mean(self, table):
        # Deeper P-states only slow tasks down, so averaging over
        # P-states inflates t_avg above the P0-only mean.
        assert table.t_avg() > table.etc.overall_mean()


class TestPaddedMatrices:
    def test_padding_preserves_mass(self, table):
        pad = table.padded(0, 1)
        assert np.allclose(pad.probs.sum(axis=1), 1.0)

    def test_rows_match_pmfs(self, table):
        pad = table.padded(2, 0)
        for pi in range(table.cluster.num_pstates):
            pmf = table.pmf(2, 0, pi)
            n = len(pmf)
            assert np.allclose(pad.probs[pi, :n], pmf.probs)
            assert np.allclose(pad.times[pi, :n], pmf.times)
            assert np.all(pad.probs[pi, n:] == 0.0)

    def test_matrices_readonly(self, table):
        pad = table.padded(0, 0)
        with pytest.raises(ValueError):
            pad.probs[0, 0] = 1.0
