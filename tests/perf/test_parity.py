"""Results-neutrality of the performance layer.

The acceptance contract of :mod:`repro.perf`: the kernel cache, an
engine's private one or a trial's shared one, produces trial results
bitwise identical to the never-hit ``NeverHitCache`` reference — same
scalar fields, same per-task outcomes, same manifest digests — across
all four heuristics and with the filters on or off, and the engine's
one candidate builder reproduces the per-core reference loop
(``tests/reference_mapper.py``) bit for bit at every arrival, including
under outages.  Speed is allowed to vary; results are not.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_trial_system
from repro.experiments.runner import VariantSpec, policy_for
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule
from repro.heuristics.registry import build_heuristic
from repro.obs.manifest import trial_digest
from repro.perf import KernelCache
from repro.sim import mapper
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask
from tests.conftest import NeverHitCache, micro_config
from tests.reference_mapper import build_candidate_set, padded

HEURISTICS = ("SQ", "MECT", "LL", "Random")
VARIANTS = ("none", "en+rob")


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_perf_knobs_are_results_neutral(system, heuristic, variant, monkeypatch):
    spec = VariantSpec(heuristic, variant)

    def run(kernel_cache=None):
        return Engine(system, *policy_for(system, spec), kernel_cache=kernel_cache).run()

    def check(result):
        assert result == reference  # full dataclass equality incl. outcomes
        assert trial_digest(result) == trial_digest(reference)

    reference = run(NeverHitCache())  # every truncation computed fresh
    check(run())  # the default: a private kernel cache
    check(run(KernelCache()))  # a cache the caller passes in
    # The retired kernel-backend variable selects nothing: numpy is the
    # only kernel path, so a deployment that still sets it is unaffected.
    monkeypatch.setenv("REPRO_PERF_BACKEND", "cext")
    check(run())


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

    def test_builders_over_one_core_list_share_its_rows(self, system):
        """Every builder over a core list reads one arena, so a mutation
        seen through one is seen through all; a core list that would take
        a core from another list's arena is refused."""
        table = system.table
        tasks = system.workload.tasks
        cores = _fresh_cores(system)
        builders = [CandidateBuilder(cores, table), CandidateBuilder(list(cores), table)]
        t0 = tasks[0].arrival
        for i, core in enumerate(cores[::3]):
            _busy(core, table, tasks[i], i % system.cluster.num_pstates, t0)
        for step, task in enumerate(tasks[1:5]):
            if step == 2:
                pmf = table.pmf(task.type_id, cores[0].node_index, 0)
                cores[0].enqueue(QueuedTask(task, 0, pmf))
            for builder in builders:
                self._assert_equal(
                    builder.build(task, task.arrival),
                    build_candidate_set(task, cores, table, task.arrival),
                )
        with pytest.raises(ValueError, match="another core list"):
            CandidateBuilder([cores[0]] + _fresh_cores(system)[1:], table)

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


class TestDemandDrivenReads:
    """Partial column reads equal the reference's entries bit for bit.

    At every mapping step of a run, fresh candidate sets over the live
    cores get a random mask; the feasible-only ECT and rho reads (in
    both orders) and a ``rho_at`` on a core nothing has read yet must
    equal the per-core reference on the cores they cover, and the full
    columns read afterwards must equal it everywhere.
    """

    def test_every_mapping_of_a_run(self, system):
        table = system.table
        rng = np.random.default_rng(2)

        class SubsetCheck:
            """Filter-chain stand-in that reads fresh sets partially."""

            label = "none"

            def __init__(self) -> None:
                self.engine: Engine | None = None
                self.checked = 0
                self.partial_busy = 0

            def apply(self, cands, ctx):
                cores = self.engine.cores
                ref = build_candidate_set(ctx.task, cores, table, ctx.t_now)
                builder = CandidateBuilder(cores, table)
                for rho_first in (True, False):
                    got = builder.build(ctx.task, ctx.t_now)
                    got.mask = rng.random(len(got)) < 0.3
                    read = np.unique(got.core_ids[got.mask])
                    covered = np.isin(got.core_ids, read)
                    reads = [
                        (got.feasible_rho, ref.prob_on_time),
                        (got.feasible_ect, ref.ect),
                    ]
                    for fn, expected in reads if rho_first else reads[::-1]:
                        assert fn()[covered].tobytes() == expected[covered].tobytes()
                    unread = np.flatnonzero(~covered)
                    if unread.size:
                        i = int(rng.choice(unread))
                        assert got.rho_at(i) == ref.prob_on_time[i]
                        if cores[int(got.core_ids[i])].running is not None:
                            self.partial_busy += 1
                    for name in ("prob_on_time", "ect") if rho_first else ("ect", "prob_on_time"):
                        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
                self.checked += 1

        check = SubsetCheck()
        engine = Engine(system, build_heuristic("LL"), check)
        check.engine = engine
        engine.run()
        assert check.checked == len(system.workload.tasks)
        assert check.partial_busy > 0  # rho_at reached busy cores nothing else had read


def _busy(core, table, task, pstate, start):
    """Put ``task`` (its pmf on ``core`` at ``pstate``) running from ``start``."""
    pmf = table.pmf(task.type_id, core.node_index, pstate)
    core.set_running(RunningTask(task, pstate, pmf, start_time=start, completion_time=start))


class TestRhoExactness:
    """The rho rows' one-floor-per-pair index is the reference's, bitwise.

    The builder evaluates the reference's index expression once per
    (core, P-state) and steps it down one bin per impulse; pairs whose
    first-impulse value lies within a rounding margin of an integer
    recompute every impulse.  Random cluster states with deadlines placed
    on those index boundaries, and an arrival where stepping really does
    disagree with the per-impulse expression, must still reproduce
    ``build_candidate_set`` bit for bit.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_states_and_boundary_deadlines(self, system, data):
        table = system.table
        tasks = system.workload.tasks
        dt = table.grid.dt
        P = system.cluster.num_pstates
        cores = _fresh_cores(system)
        t_now = data.draw(st.floats(0.0, 4000.0), label="t_now")
        pick = st.integers(0, len(tasks) - 1)
        for core in cores:
            if data.draw(st.booleans(), label="busy"):
                task = tasks[data.draw(pick)]
                back = data.draw(st.integers(0, 60)) * dt
                if not data.draw(st.booleans(), label="on grid"):
                    back += data.draw(st.floats(0.01, 0.99)) * dt
                _busy(core, table, task, data.draw(st.integers(0, P - 1)), t_now - back)
                for _ in range(data.draw(st.integers(0, 2), label="queued")):
                    queued = tasks[data.draw(pick)]
                    pstate = data.draw(st.integers(0, P - 1))
                    pmf = table.pmf(queued.type_id, core.node_index, pstate)
                    core.enqueue(QueuedTask(queued, pstate, pmf))
        task = tasks[data.draw(pick, label="arrival")]
        if data.draw(st.booleans(), label="boundary deadline"):
            # Deadline on an index boundary of one (core, P-state) pair:
            # y0 = k (+ the reference's 1e-9 nudge), then a few ulps off.
            core = cores[data.draw(st.integers(0, len(cores) - 1))]
            ready = core.ready_pmf(t_now)
            time_0 = padded(table, task.type_id, core.node_index).times[
                data.draw(st.integers(0, P - 1)), 0
            ]
            deadline = time_0 + ready.start + data.draw(st.integers(-3, 80)) * dt
            deadline -= data.draw(st.sampled_from([0.0, 1e-9 * dt]))
            deadline = float(
                deadline + data.draw(st.integers(-4, 4)) * np.spacing(deadline)
            )
        else:
            deadline = t_now + data.draw(st.floats(-200.0, 3000.0), label="slack")
        # The builder reads the deadline only; arrival 0 keeps any
        # non-negative deadline valid.
        task = replace(task, arrival=0.0, deadline=max(deadline, 0.0))

        ref = build_candidate_set(task, cores, table, t_now).prob_on_time
        builder = CandidateBuilder(cores, table)
        assert builder.build(task, t_now).prob_on_time.tobytes() == ref.tobytes()
        masked = builder.build(task, t_now)
        masked.mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(ref), max_size=len(ref)))
        )
        covered = np.isin(masked.core_ids, masked.core_ids[masked.mask])
        assert masked.feasible_rho()[covered].tobytes() == ref[covered].tobytes()

    def test_fallback_covers_a_real_index_disagreement(self, system, monkeypatch):
        table = system.table
        dt = table.grid.dt
        cores = _fresh_cores(system)
        probe = system.workload.tasks[0]
        t_now = probe.arrival
        for i, core in enumerate(cores):
            # Off-grid starts, so the ready pmfs do not share the times' grid.
            _busy(core, table, probe, i % system.cluster.num_pstates, t_now - 0.37 * dt * i)
        arrival = system.workload.tasks[1]
        pad = padded(table, arrival.type_id, cores[0].node_index)
        ready = cores[0].ready_pmf(t_now)

        cdf = ready.cdf
        width = pad.times.shape[1]

        def gather(ks):
            ks = np.clip(ks, -1, cdf.size - 1).astype(np.int64)
            return np.where(ks >= 0, cdf[np.maximum(ks, 0)], 0.0)

        def disagrees(deadline):
            """Whether stepping floor(y0) down one bin per impulse reads a
            different CDF value than the per-impulse index somewhere."""
            y = (deadline - pad.times - ready.start) / dt + 1e-9
            steps = np.floor(y[:, :1]) - np.arange(width)
            return bool(((gather(np.floor(y)) != gather(steps)) & (pad.probs > 0)).any())

        def rho(task):
            return CandidateBuilder(cores, table).build(task, t_now).prob_on_time

        found = None
        for k in range(0, cdf.size + width, 7):
            # y0 = k, minus the reference's 1e-9 nudge, then ulps off.
            base = float(pad.times[0, 0] + ready.start + k * dt - 1e-9 * dt)
            for ulps in range(-64, 65):
                deadline = base + ulps * float(np.spacing(base))
                if not disagrees(deadline):
                    continue
                task = replace(arrival, deadline=deadline)
                ref = build_candidate_set(task, cores, table, t_now).prob_on_time
                with monkeypatch.context() as patched:
                    patched.setattr(mapper, "_INDEX_MARGIN_FLOOR", 0.0)
                    patched.setattr(mapper, "_INDEX_MARGIN_REL", 0.0)
                    if rho(task).tobytes() != ref.tobytes():
                        found = (task, ref)
                        break
            if found:
                break
        assert found is not None, "no arrival where stepping the index disagrees"
        task, ref = found
        # Without a margin the stepped index gives a different rho; with
        # it the pair recomputes per impulse and matches bitwise.
        assert rho(task).tobytes() == ref.tobytes()
