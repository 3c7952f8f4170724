"""Results-neutrality of the performance layer.

The acceptance contract of :mod:`repro.perf`: the kernel cache on or
off produces bitwise-identical trial results — same scalar fields, same
per-task outcomes, same manifest digests — across all four heuristics
and with the filters on or off, and the engine's one candidate builder
reproduces the per-core reference loop (``tests/reference_mapper.py``)
bit for bit at every arrival, including under outages.  Speed is
allowed to vary; results are not.

The ``backend`` knob is the one deliberate exception: the numpy
backend (the default) stays bitwise, while compiled backends are held
to the kernel contract — discrete fields exact, floats within 1e-12.
Canonical digests are always defined by the numpy path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_trial_system
from repro.experiments.runner import TrialPlan, VariantSpec
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule
from repro.heuristics.registry import build_heuristic
from repro.obs.manifest import trial_digest
from repro.perf.kernel_cache import PerfConfig
from repro.perf.kernels import available_backends
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask
from tests.conftest import micro_config
from tests.reference_mapper import build_candidate_set

HEURISTICS = ("SQ", "MECT", "LL", "Random")
VARIANTS = ("none", "en+rob")
COMPILED_BACKENDS = tuple(n for n in available_backends() if n != "numpy")


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_perf_knobs_are_results_neutral(system, heuristic, variant):
    spec = VariantSpec(heuristic, variant)

    def run(perf):
        return TrialPlan(
            system=system, spec=spec, keep_outcomes=True, perf=perf
        ).run()

    reference = run(PerfConfig.disabled())
    for perf in (
        PerfConfig(),  # kernel cache on
        PerfConfig(backend="numpy"),  # backend knob explicit, still bitwise
    ):
        result = run(perf)
        assert result == reference  # full dataclass equality incl. outcomes
        assert trial_digest(result) == trial_digest(reference)


@pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend available")
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_compiled_backend_parity(system, heuristic, variant, backend, assert_trial_close):
    """Compiled backends reproduce every trial within the kernel contract."""
    spec = VariantSpec(heuristic, variant)

    def run(perf):
        return TrialPlan(system=system, spec=spec, keep_outcomes=True, perf=perf).run()

    reference = run(PerfConfig.disabled())
    compiled = run(PerfConfig(backend=backend))
    assert_trial_close(compiled, reference)


def _fresh_cores(system):
    cluster = system.cluster
    dt = system.config.grid.dt
    return [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]


class TestBuilderMatchesReference:
    """CandidateBuilder's batched arrays equal the per-core loop's, bitwise."""

    ARRAYS = ("core_ids", "pstates", "queue_len", "eet", "eec", "ect", "prob_on_time")

    def _assert_equal(self, got, ref):
        for name in self.ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(got.mask, ref.mask)

    def test_idle_cluster(self, system):
        cores = _fresh_cores(system)
        builder = CandidateBuilder(cores, system.table)
        for task in system.workload.tasks[:5]:
            got = builder.build(task, task.arrival)
            ref = build_candidate_set(task, cores, system.table, task.arrival)
            self._assert_equal(got, ref)

    def test_with_running_and_queued_work(self, system):
        cores = _fresh_cores(system)
        builder = CandidateBuilder(cores, system.table)
        probe = system.workload.tasks[0]
        t0 = probe.arrival
        pmf = system.table.pmf(probe.type_id, cores[0].node_index, 0)
        cores[0].set_running(
            RunningTask(probe, 0, pmf, start_time=t0, completion_time=t0 + 200.0)
        )
        cores[0].enqueue(QueuedTask(probe, 0, pmf))
        last = cores[-1]
        pmf_last = system.table.pmf(probe.type_id, last.node_index, 1)
        last.set_running(
            RunningTask(probe, 1, pmf_last, start_time=t0, completion_time=t0 + 500.0)
        )
        for task in system.workload.tasks[1:6]:
            got = builder.build(task, task.arrival)
            ref = build_candidate_set(task, cores, system.table, task.arrival)
            self._assert_equal(got, ref)

    def test_every_mapping_of_a_faulted_run(self, system):
        """Per mapping step of a run with an outage: the engine's masked
        candidates equal the oracle's arrays with the down node masked out.

        Covers arrivals and re-mapped orphans on live engine state
        (interrupted and drained cores included); the expected
        availability mask comes from the schedule, not from the engine.
        """
        tasks = system.workload.tasks
        start = tasks[len(tasks) // 3].arrival
        stop = tasks[2 * len(tasks) // 3].arrival
        down_node = 0
        core_node = system.cluster.core_node_index
        table = system.table

        class OracleCheck:
            """Filter-chain stand-in that checks the candidates it receives."""

            label = "none"

            def __init__(self) -> None:
                self.engine: Engine | None = None
                self.checked = 0
                self.during_outage = 0

            def apply(self, cands, ctx):
                ref = build_candidate_set(ctx.task, self.engine.cores, table, ctx.t_now)
                for name in TestBuilderMatchesReference.ARRAYS:
                    assert np.array_equal(getattr(cands, name), getattr(ref, name)), name
                expected = ref.mask.copy()
                if start <= ctx.t_now < stop:
                    expected &= core_node[ref.core_ids] != down_node
                    self.during_outage += 1
                assert np.array_equal(cands.mask, expected)
                self.checked += 1

        check = OracleCheck()
        engine = Engine(
            system,
            build_heuristic("LL"),
            check,
            faults=FaultSchedule((FaultEvent("node_outage", down_node, start, stop - start),)),
            fault_policy=FaultPolicy(running="resume", remap=True),
        )
        check.engine = engine
        engine.run()
        assert engine.fault_stats.outages == 1
        assert engine.fault_stats.remapped > 0
        assert check.during_outage > 0
        assert check.checked == len(tasks) + engine.fault_stats.orphaned

    @pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend available")
    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_compiled_score_rows_within_tolerance(self, system, backend):
        """Decision inputs from the compiled batch kernel: discrete
        arrays bitwise, probability rows within the ≤1e-12 contract.

        This is the load-bearing half of backend parity — the candidate
        arrays are what every heuristic argmin and filter threshold
        reads, so pinning them here localizes any trial-level
        trajectory divergence to exact-tie reordering.
        """
        from repro.perf.kernels import resolve_backend

        cores = _fresh_cores(system)
        probe = system.workload.tasks[0]
        t0 = probe.arrival
        pmf = system.table.pmf(probe.type_id, cores[0].node_index, 0)
        cores[0].set_running(
            RunningTask(probe, 0, pmf, start_time=t0, completion_time=t0 + 200.0)
        )
        cores[0].enqueue(QueuedTask(probe, 0, pmf))
        compiled = CandidateBuilder(
            cores, system.table, backend=resolve_backend(backend)
        )
        reference = CandidateBuilder(cores, system.table)
        for task in system.workload.tasks[1:6]:
            got = compiled.build(task, task.arrival)
            ref = reference.build(task, task.arrival)
            for name in ("core_ids", "pstates", "queue_len"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            for name in ("eet", "eec", "ect", "prob_on_time"):
                np.testing.assert_allclose(
                    getattr(got, name),
                    getattr(ref, name),
                    rtol=1e-12,
                    atol=1e-15,
                    err_msg=name,
                )
            assert np.array_equal(got.mask, ref.mask)
