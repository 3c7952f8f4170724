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
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask

from _common import bench_seed


def small_system():
    config = SimulationConfig(seed=bench_seed())
    config = replace(config, workload=config.workload.with_num_tasks(150))
    return build_trial_system(config)


def test_full_trial_ll_filtered(benchmark):
    system = small_system()

    def run():
        return Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.num_tasks == 150
    benchmark.extra_info["missed"] = result.missed


def busy_cores(system, queue=(0, 2)):
    """Every core running a task; core ``c`` queues ``queue[c % len(queue)]`` more.

    The first task's pmf on each core's node starts at its arrival, so an
    arrival read right after it sees non-degenerate ready pmfs.
    """
    cluster = system.cluster
    dt = system.config.grid.dt
    probe = system.workload.tasks[0]
    t0 = probe.arrival
    cores = []
    for cid in range(cluster.num_cores):
        core = CoreState(cid, int(cluster.core_node_index[cid]), dt)
        pstate = cid % cluster.num_pstates
        pmf = system.table.pmf(probe.type_id, core.node_index, pstate)
        core.set_running(RunningTask(probe, pstate, pmf, start_time=t0, completion_time=t0))
        for _ in range(queue[cid % len(queue)]):
            core.enqueue(QueuedTask(probe, pstate, pmf))
        cores.append(core)
    return cores


def test_candidate_builder_cold_event(benchmark):
    system = small_system()
    cluster = system.cluster
    cores = busy_cores(system)
    task = system.workload.tasks[1]

    def cold_build():
        # A fresh builder pays for the task type's tables on first use;
        # reading rho computes every core's rho row.
        cands = CandidateBuilder(cores, system.table).build(task, task.arrival)
        return cands, cands.prob_on_time

    cands, rho = benchmark(cold_build)
    assert len(cands) == cluster.num_cores * cluster.num_pstates
    assert ((rho >= 0.0) & (rho <= 1.0)).all()


def test_system_build(benchmark):
    config = SimulationConfig(seed=1)
    config = replace(config, workload=config.workload.with_num_tasks(100))
    system = benchmark.pedantic(build_trial_system, args=(config,), rounds=3, iterations=1)
    assert system.num_tasks == 100


def test_candidate_builder_event(benchmark):
    system = small_system()
    cluster = system.cluster
    cores = busy_cores(system)
    builder = CandidateBuilder(cores, system.table)
    task = system.workload.tasks[1]

    def build():
        # build() fills queue lengths, EET and EEC only; rho is computed
        # on read, so the timed call reads it.
        cands = builder.build(task, task.arrival)
        return cands, cands.prob_on_time

    cands, rho = benchmark(build)
    assert len(cands) == cluster.num_cores * cluster.num_pstates
    assert ((rho >= 0.0) & (rho <= 1.0)).all()


def test_ready_refresh_time_advance(benchmark):
    """The common ready-pmf refresh: time moved, nothing else did.

    Every core runs a task with one or two more queued, and its ready
    pmf is resident as of the running task's start.  The timed call is
    an arrival later in time, past the first impulse of most running
    tasks, that reads every rho row: each of those cores re-truncates
    its running task and re-convolves it with the (unchanged) queue.
    """
    system = small_system()
    probe, task = system.workload.tasks[:2]
    t0 = probe.arrival
    first = sorted(
        t0 + system.table.pmf(probe.type_id, core.node_index, core.running.pstate).start
        for core in busy_cores(system, queue=(1, 2))
    )
    t1 = first[len(first) // 2] + 1.0  # past the first impulse of half the cores

    def setup():
        cores = busy_cores(system, queue=(1, 2))
        builder = CandidateBuilder(cores, system.table)
        builder.build(task, t0).prob_on_time  # every row resident at t0
        return (builder,), {}

    def arrival(builder):
        return builder.build(task, t1).prob_on_time

    rho = benchmark.pedantic(arrival, setup=setup, rounds=20)
    assert rho.shape == (system.cluster.num_cores * system.cluster.num_pstates,)
    assert ((rho >= 0.0) & (rho <= 1.0)).all()
