"""Microbenchmarks: end-to-end engine throughput.

Measures full-trial wall time and per-mapping-event cost of the
vectorized candidate builder — the quantities that determine how far the
study scales (the paper capped its cluster at 8 nodes "to limit our
simulation execution times").
"""

from __future__ import annotations

from dataclasses import replace

from repro import SimulationConfig, build_trial_system
from repro.filters.chain import build_filter_chain
from repro.heuristics.lightest_load import LightestLoad
from repro.sim.engine import run_trial
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState

from _common import bench_seed


def small_system():
    config = SimulationConfig(seed=bench_seed())
    config = replace(config, workload=config.workload.with_num_tasks(150))
    return build_trial_system(config)


def test_full_trial_ll_filtered(benchmark):
    system = small_system()

    def run():
        return run_trial(system, LightestLoad(), build_filter_chain("en+rob"))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.num_tasks == 150
    benchmark.extra_info["missed"] = result.missed


def test_candidate_builder_cold_event(benchmark):
    system = small_system()
    cluster = system.cluster
    dt = system.config.grid.dt
    cores = [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]
    task = system.workload.tasks[0]

    def cold_build():
        # A fresh builder pays for the task type's tables on first use.
        return CandidateBuilder(cores, system.table).build(task, task.arrival)

    cands = benchmark(cold_build)
    assert len(cands) == cluster.num_cores * cluster.num_pstates


def test_system_build(benchmark):
    config = SimulationConfig(seed=1)
    config = replace(config, workload=config.workload.with_num_tasks(100))
    system = benchmark.pedantic(build_trial_system, args=(config,), rounds=3, iterations=1)
    assert system.num_tasks == 100


def test_candidate_builder_event(benchmark):
    system = small_system()
    cluster = system.cluster
    dt = system.config.grid.dt
    cores = [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]
    builder = CandidateBuilder(cores, system.table)
    task = system.workload.tasks[0]

    cands = benchmark(builder.build, task, task.arrival)
    assert len(cands) == cluster.num_cores * cluster.num_pstates
