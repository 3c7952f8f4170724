"""Property-based engine invariants over random tiny configurations.

Hypothesis drives the whole stack (cluster generation, CVB, arrivals,
engine) through random seeds and small shape parameters, asserting the
structural invariants that must hold for *every* trial regardless of
policy:

* accounting closes (every task exactly one outcome; decomposition sums);
* causality (no task starts before its arrival; FIFO cores never overlap);
* actual durations lie within the sampled pmf's support;
* the ledger's consumed energy is non-negative and reproducible.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, build_trial_system
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro import rng as rng_mod
from repro.sim.engine import Engine


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_tasks = draw(st.integers(min_value=5, max_value=30))
    num_nodes = draw(st.integers(min_value=1, max_value=3))
    heuristic = draw(st.sampled_from(["SQ", "MECT", "LL", "Random"]))
    variant = draw(st.sampled_from(["none", "en", "rob", "en+rob"]))
    head = min(num_tasks // 3, 5)
    config = SimulationConfig(seed=seed).with_updates(
        workload={
            "num_tasks": num_tasks,
            "num_task_types": 4,
            "burst_head": head,
            "burst_tail": head,
        },
        cluster={"num_nodes": num_nodes, "max_processors": 2, "max_cores": 2},
    )
    return config, heuristic, variant


@given(engine_cases())
@settings(max_examples=15, deadline=None)
def test_engine_invariants(case):
    config, heuristic_name, variant = case
    system = build_trial_system(config)
    heuristic = build_heuristic(
        heuristic_name, rng_mod.stream(config.seed, "prop", heuristic_name)
    )
    result = Engine(system, heuristic, build_filter_chain(variant)).run()

    # Accounting closes.
    assert len(result.outcomes) == system.num_tasks
    assert result.missed == result.discarded + result.late + result.energy_cutoff
    assert result.missed + result.completed_within == system.num_tasks

    # Causality and per-core exclusivity.
    by_core: dict[int, list] = {}
    for outcome in result.outcomes:
        if outcome.discarded:
            assert outcome.core_id == -1
            continue
        assert outcome.start >= outcome.arrival - 1e-9
        assert outcome.completion > outcome.start
        by_core.setdefault(outcome.core_id, []).append(outcome)
    for outcomes in by_core.values():
        ordered = sorted(outcomes, key=lambda o: o.start)
        for a, b in zip(ordered, ordered[1:]):
            assert b.start >= a.completion - 1e-9

    # Durations live on the assigned pmf's support.
    cluster = system.cluster
    for outcome in result.outcomes:
        if outcome.discarded:
            continue
        node = int(cluster.core_node_index[outcome.core_id])
        pmf = system.table.pmf(outcome.type_id, node, outcome.pstate)
        duration = outcome.completion - outcome.start
        assert pmf.start - 1e-9 <= duration <= pmf.stop + 1e-9

    # Energy sanity and makespan coverage.
    assert result.total_energy >= 0.0
    assert result.makespan >= max(t.arrival for t in system.workload.tasks) - 1e-9


@given(engine_cases())
@settings(max_examples=8, deadline=None)
def test_engine_determinism(case):
    config, heuristic_name, variant = case
    system = build_trial_system(config)

    def once():
        heuristic = build_heuristic(
            heuristic_name, rng_mod.stream(config.seed, "det", heuristic_name)
        )
        return Engine(system, heuristic, build_filter_chain(variant)).run()

    assert once() == once()
