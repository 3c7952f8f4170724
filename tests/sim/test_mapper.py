"""Tests for candidate-set construction (repro.sim.mapper.CandidateBuilder)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.robustness.completion import prob_on_time
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask


def build(task, cores, table, t_now):
    """One arrival's candidate set from the engine's builder over ``cores``."""
    return CandidateBuilder(cores, table).build(task, t_now)


@pytest.fixture()
def cores(tiny_system):
    cluster = tiny_system.cluster
    dt = tiny_system.config.grid.dt
    return [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]


class TestBuildCandidates:
    def test_shape_and_ordering(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = build(task, cores, tiny_system.table, t_now=task.arrival)
        C = tiny_system.cluster.num_cores
        P = tiny_system.cluster.num_pstates
        assert len(cands) == C * P
        assert np.array_equal(cands.core_ids, np.repeat(np.arange(C), P))
        assert np.array_equal(cands.pstates, np.tile(np.arange(P), C))
        assert cands.mask.all()

    def test_eet_eec_from_tables(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = build(task, cores, tiny_system.table, t_now=task.arrival)
        node0 = cores[0].node_index
        assert cands.eet[0] == pytest.approx(tiny_system.table.eet[task.type_id, node0, 0])
        assert cands.eec[1] == pytest.approx(tiny_system.table.eec[task.type_id, node0, 1])

    def test_ect_on_idle_cores_is_arrival_plus_eet(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        cands = build(task, cores, tiny_system.table, t_now=t)
        assert np.allclose(cands.ect, t + cands.eet)

    def test_queue_len_reflects_occupancy(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[0].node_index, 0)
        cores[0].set_running(
            RunningTask(task, 0, pmf, start_time=t, completion_time=t + 100)
        )
        cores[0].enqueue(QueuedTask(task, 0, pmf))
        cands = build(task, cores, tiny_system.table, t_now=t)
        P = tiny_system.cluster.num_pstates
        assert np.all(cands.queue_len[:P] == 2)
        assert np.all(cands.queue_len[P:] == 0)

    def test_prob_matches_scalar_reference(self, tiny_system, cores):
        task = tiny_system.workload.tasks[3]
        t = task.arrival
        cands = build(task, cores, tiny_system.table, t_now=t)
        P = tiny_system.cluster.num_pstates
        for cid in (0, len(cores) - 1):
            ready = cores[cid].ready_pmf(t)
            for pi in range(P):
                expected = prob_on_time(
                    ready,
                    tiny_system.table.pmf(task.type_id, cores[cid].node_index, pi),
                    task.deadline,
                )
                assert cands.prob_on_time[cid * P + pi] == pytest.approx(expected, abs=1e-12)

    def test_probabilities_are_probabilities(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = build(task, cores, tiny_system.table, t_now=task.arrival)
        assert np.all(cands.prob_on_time >= 0.0)
        assert np.all(cands.prob_on_time <= 1.0 + 1e-12)

    def test_deeper_pstate_never_more_robust_on_same_core(self, tiny_system, cores):
        # Slower execution cannot raise the on-time probability.
        task = tiny_system.workload.tasks[0]
        cands = build(task, cores, tiny_system.table, t_now=task.arrival)
        P = tiny_system.cluster.num_pstates
        probs = cands.prob_on_time.reshape(-1, P)
        assert np.all(np.diff(probs, axis=1) <= 1e-6)

    def test_busy_core_less_robust_than_idle_twin(self, tiny_system, cores):
        # Two cores of the same node: loading one lowers its probability.
        cluster = tiny_system.cluster
        twins = None
        node_idx = cluster.core_node_index
        for cid in range(1, cluster.num_cores):
            if node_idx[cid] == node_idx[cid - 1]:
                twins = (cid - 1, cid)
                break
        if twins is None:
            pytest.skip("generated cluster has no same-node core pair")
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[twins[0]].node_index, 0)
        cores[twins[0]].set_running(
            RunningTask(task, 0, pmf, start_time=t, completion_time=t + 1)
        )
        cands = build(task, cores, tiny_system.table, t_now=t)
        P = cluster.num_pstates
        busy = cands.prob_on_time[twins[0] * P]
        idle = cands.prob_on_time[twins[1] * P]
        assert busy <= idle + 1e-9
