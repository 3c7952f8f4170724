"""Property test: CoreState's cached queue convolution is exact.

Every queue mutation (``enqueue``, ``pop_next``) invalidates the
cached queue convolution, and the next read folds the whole queue once
with ``convolve_many``.  The property pinned here:
under *any* interleaving of those mutations, ``ready_pmf`` is bitwise
equal to the from-scratch recomputation —
``truncate_below(shift(running, start), t)`` convolved with
``convolve_many`` over the current queue — so the cache can never
drift from the reference fold.
"""
from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.state import CoreState, QueuedTask, RunningTask
from repro.stoch.distributions import discretized_gamma
from repro.stoch.ops import convolve, convolve_many, shift, truncate_below
from repro.workload.task import Task

DT = 25.0
T_NOW = 130.0

#: Execution-pmf means spanning short and long supports, so random
#: enqueue orders fold queues of mixed pmf lengths.
MEANS = (120.0, 300.0, 700.0, 1500.0)


def _task(task_id: int) -> Task:
    return Task(task_id=task_id, type_id=0, arrival=0.0, deadline=1e9)


def _queued(task_id: int, mean: float) -> QueuedTask:
    return QueuedTask(
        task=_task(task_id), pstate=0, exec_pmf=discretized_gamma(mean, 0.4, DT)
    )


#: An op is ("enqueue", mean) | ("pop",).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(MEANS)),
        st.tuples(st.just("pop")),
    ),
    min_size=1,
    max_size=12,
)


def _reference_ready(state: CoreState) -> object:
    running = state.running
    assert running is not None
    running_c = truncate_below(shift(running.exec_pmf, running.start_time), T_NOW)
    if not state.queue:
        return running_c
    qconv = convolve_many([e.exec_pmf for e in state.queue])
    return convolve(running_c, qconv)


@given(ops)
def test_ready_pmf_matches_from_scratch_fold(op_list):
    state = CoreState(core_id=0, node_index=0, dt=DT)
    state.set_running(
        RunningTask(
            task=_task(0),
            pstate=0,
            exec_pmf=discretized_gamma(400.0, 0.4, DT),
            start_time=50.0,
            completion_time=450.0,
        )
    )
    next_id = 1
    for op in op_list:
        if op[0] == "enqueue":
            state.enqueue(_queued(next_id, op[1]))
            next_id += 1
        else:
            state.pop_next()
        got = state.ready_pmf(T_NOW)
        ref = _reference_ready(state)
        assert got.start == ref.start
        assert got.dt == ref.dt
        assert got.probs.tobytes() == ref.probs.tobytes()
