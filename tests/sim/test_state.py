"""Tests for per-core runtime state (repro.sim.state)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robustness.completion import running_completion_pmf
from repro.sim.state import CoreState, QueuedTask, ReadyRows, RunningTask
from repro.stoch.ops import convolve
from repro.stoch.pmf import PMF
from repro.workload.task import Task
from tests.reference_mapper import reference_ready_pmf


def ex(start: float = 10.0) -> PMF:
    return PMF(start, 1.0, [0.25, 0.5, 0.25])


def task(i: int = 0) -> Task:
    return Task(i, 0, 0.0, 1000.0)


def running(start_time: float = 0.0) -> RunningTask:
    return RunningTask(
        task=task(0),
        pstate=1,
        exec_pmf=ex(),
        start_time=start_time,
        completion_time=start_time + 11.0,
    )


def queued(i: int) -> QueuedTask:
    return QueuedTask(task=task(i), pstate=2, exec_pmf=ex())


class TestOccupancy:
    def test_idle_initially(self):
        core = CoreState(0, 0, dt=1.0)
        assert core.is_idle
        assert core.assigned_count == 0

    def test_counts_running_and_queue(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running())
        core.enqueue(queued(1))
        core.enqueue(queued(2))
        assert core.assigned_count == 3
        assert not core.is_idle


class TestMutationRules:
    def test_enqueue_on_idle_rejected(self):
        core = CoreState(0, 0, dt=1.0)
        with pytest.raises(RuntimeError):
            core.enqueue(queued(1))

    def test_double_running_rejected(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running())
        with pytest.raises(RuntimeError):
            core.set_running(running())

    def test_clear_idle_rejected(self):
        core = CoreState(0, 0, dt=1.0)
        with pytest.raises(RuntimeError):
            core.clear_running()

    def test_fifo_pop_order(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running())
        core.enqueue(queued(1))
        core.enqueue(queued(2))
        assert core.pop_next().task.task_id == 1
        assert core.pop_next().task.task_id == 2
        assert core.pop_next() is None


class TestReadyPMF:
    def test_idle_ready_now(self):
        core = CoreState(0, 0, dt=1.0)
        out = core.ready_pmf(33.0)
        assert len(out) == 1 and out.mean() == pytest.approx(33.0)

    def test_running_only_matches_reference(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=5.0))
        out = core.ready_pmf(t_now=6.0)
        expected = running_completion_pmf(ex(), 5.0, 6.0)
        assert out == expected

    def test_running_plus_queue_matches_reference(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        core.enqueue(queued(1))
        core.enqueue(queued(2))
        out = core.ready_pmf(t_now=0.0)
        expected = convolve(
            convolve(running_completion_pmf(ex(), 0.0, 0.0), ex()), ex()
        )
        assert out == expected

    def test_cache_returns_same_object_when_valid(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        a = core.ready_pmf(1.0)
        b = core.ready_pmf(2.0)  # still before first impulse at 10
        assert a is b

    def test_cache_invalidated_by_time_advance_past_impulses(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        a = core.ready_pmf(1.0)
        b = core.ready_pmf(10.5)  # truncates the impulse at 10
        assert a is not b
        assert b == running_completion_pmf(ex(), 0.0, 10.5)

    def test_cache_invalidated_by_enqueue(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        a = core.ready_pmf(1.0)
        core.enqueue(queued(1))
        b = core.ready_pmf(1.0)
        assert a is not b
        assert b.mean() == pytest.approx(a.mean() + ex().mean())

    def test_cache_consistency_after_pop(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        core.enqueue(queued(1))
        core.enqueue(queued(2))
        _ = core.ready_pmf(1.0)
        core.pop_next()
        out = core.ready_pmf(1.0)
        expected = convolve(running_completion_pmf(ex(), 0.0, 1.0), ex())
        assert out == expected

    def test_ready_never_in_past(self):
        core = CoreState(0, 0, dt=1.0)
        core.set_running(running(start_time=0.0))
        out = core.ready_pmf(t_now=500.0)  # far past all impulses
        assert out.start >= 500.0 - 1e-9


# ----------------------------------------------------------------------
# The ready-pmf refresh, bitwise
# ----------------------------------------------------------------------


class _SmallSlots(ReadyRows):
    """Resident rows whose slots start tiny, so refreshes move them."""

    SLOT = 2


def _pmf(probs, start: float = 1.0) -> PMF:
    return PMF(start, 1.0, np.asarray(probs, dtype=float))


def _assert_refresh_exact(core: CoreState, rows: ReadyRows, t_now: float) -> PMF:
    """``core.ready_pmf(t_now)`` equals robustness.completion's from-scratch
    composition bit for bit, and the core's resident row (slot 0 of
    ``rows``) holds its CDF."""
    got = core.ready_pmf(t_now)
    ref = reference_ready_pmf(core, t_now)
    assert got.start == ref.start
    assert np.array_equal(got.probs, ref.probs)
    assert np.array_equal(got.cdf, ref.cdf)
    m, top, pad = int(rows.size[0]), int(rows.anchor[0]) + 1, rows.pad
    assert m == got.probs.size
    assert np.array_equal(rows.data[top - m : top][::-1], got.cdf)
    assert (rows.data[top - m - pad : top - m] == got.cdf[-1]).all()
    assert not rows.data[top : top + pad].any()
    if core.running is None:
        assert np.isnan(rows.start[0])
    else:
        assert rows.start[0] == got.start
    return got


def _bound_core(rows_cls=ReadyRows, pad: int = 8) -> tuple[CoreState, ReadyRows]:
    core = CoreState(0, 0, dt=1.0)
    return core, rows_cls([core], pad)


def _run(core: CoreState, exec_pmf: PMF, start: float) -> None:
    core.set_running(RunningTask(task(0), 0, exec_pmf, start_time=start, completion_time=start))


def _queue(core: CoreState, exec_pmf: PMF, i: int = 1) -> None:
    core.enqueue(QueuedTask(task=task(i), pstate=0, exec_pmf=exec_pmf))


class TestRefreshCases:
    """Each branch of the refresh against the from-scratch composition."""

    def test_equal_length_operands_keep_numpy_operand_order(self):
        # np.convolve swaps its operands only when the second is strictly
        # longer; for these equal-length pmfs the swapped order rounds
        # differently, so a refresh that swapped on ties would fail.
        running = _pmf([0.11, 0.23, 0.31, 0.35])
        queued = _pmf([0.07, 0.29, 0.41, 0.23])
        a, v = running.probs, queued.probs
        assert not np.array_equal(np.convolve(a, v), np.convolve(v, a))
        core, rows = _bound_core()
        _run(core, running, 0.0)
        _queue(core, queued)
        got = _assert_refresh_exact(core, rows, 0.5)  # t_now <= start: no cut
        assert got.probs.size == 7
        # After a cut of two bins the tail (length 2) meets a 2-bin queue.
        core2, rows2 = _bound_core()
        _run(core2, _pmf([0.3, 0.1, 0.17, 0.43]), 0.0)
        _queue(core2, _pmf([0.37, 0.63]))
        _assert_refresh_exact(core2, rows2, 2.5)

    def test_one_bin_tail(self):
        core, rows = _bound_core()
        _run(core, _pmf([0.2, 0.3, 0.5]), 0.0)
        _queue(core, _pmf([0.4, 0.6]))
        got = _assert_refresh_exact(core, rows, 2.5)  # only the bin at 3 survives
        assert got.start == 3.0 + 1.0

    def test_overdue_running_task_completes_now(self):
        core, rows = _bound_core()
        _run(core, _pmf([0.2, 0.3, 0.5]), 0.0)
        _queue(core, _pmf([0.4, 0.6]))
        got = _assert_refresh_exact(core, rows, 7.25)  # k >= n: a delta at t_now
        assert got.start == 7.25 + 1.0

    def test_no_truncation_before_the_first_impulse(self):
        core, rows = _bound_core()
        _run(core, _pmf([0.2, 0.3, 0.5], start=4.0), 1.0)
        _queue(core, _pmf([0.4, 0.6]))
        got = _assert_refresh_exact(core, rows, 3.0)
        assert got.start == 5.0 + 1.0

    def test_trims_both_ends(self):
        running = _pmf([1e-7, 0.5, 0.5 - 2e-7, 1e-7])
        queued = _pmf([1e-7, 0.6, 0.4 - 2e-7, 1e-7])
        core, rows = _bound_core()
        _run(core, running, 0.0)
        _queue(core, queued)
        got = _assert_refresh_exact(core, rows, 0.0)
        assert got.probs.size == 5  # 7 raw bins, one trimmed at each end
        assert got.start == 1.0 + 1.0 + 1.0

    def test_result_longer_than_the_slot_moves_it(self):
        core, rows = _bound_core(_SmallSlots)
        _run(core, _pmf([0.25, 0.25, 0.5]), 0.0)
        _assert_refresh_exact(core, rows, 0.0)
        before = int(rows.anchor[0])
        _queue(core, _pmf([0.1, 0.2, 0.3, 0.4]))
        _assert_refresh_exact(core, rows, 0.0)
        assert int(rows.anchor[0]) != before
        _queue(core, _pmf([0.5, 0.1, 0.1, 0.1, 0.2]), 2)
        _assert_refresh_exact(core, rows, 0.5)

    def test_idle_row(self):
        core, rows = _bound_core()
        _assert_refresh_exact(core, rows, 3.0)
        _run(core, _pmf([0.5, 0.5]), 3.0)
        _assert_refresh_exact(core, rows, 3.0)
        core.clear_running()
        _assert_refresh_exact(core, rows, 9.0)


def test_resident_rows_die_with_their_cores():
    """No reference cycle between cores and their arena: a finished
    trial's rows are freed by reference counting, not left for a full
    garbage collection (an ensemble worker runs many trials)."""
    gc.disable()
    try:
        cores = [CoreState(i, 0, dt=1.0) for i in range(3)]
        rows = ReadyRows.bind(cores, 4)
        assert ReadyRows.bind(cores, 4) is rows
        arena = weakref.ref(rows.data)
        del rows, cores
        assert arena() is None
    finally:
        gc.enable()


#: Execution pmfs: 1-6 bins, some with near-zero end bins (trimming),
#: first impulse on or off the unit grid.
_exec_pmfs = st.builds(
    _pmf,
    st.lists(
        st.one_of(st.floats(0.01, 1.0), st.just(1e-9)), min_size=1, max_size=6
    ).filter(lambda ps: max(ps) > 1e-3),
    st.sampled_from([0.0, 1.0, 2.5]),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), _exec_pmfs),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 2.0, 5.5])),
        st.tuples(st.just("complete")),
        st.tuples(st.just("pop")),
        st.tuples(st.just("drain")),
        st.tuples(st.just("interrupt")),
    ),
    min_size=1,
    max_size=25,
)


def _apply(core: CoreState, op: tuple, t: float, task_id: int) -> None:
    """One op of ``_ops`` other than a time advance, on ``core`` at ``t``."""
    kind = op[0]
    if kind == "enqueue":
        if core.running is None:
            _run(core, op[1], t)
        else:
            _queue(core, op[1], task_id)
    elif kind == "complete" and core.running is not None:
        # The engine's completion: the next queued task starts now.
        core.clear_running()
        nxt = core.pop_next()
        if nxt is not None:
            _run(core, nxt.exec_pmf, t)
    elif kind == "pop" and core.running is not None:
        core.pop_next()
    elif kind == "drain":
        core.drain_queue()
    elif kind == "interrupt" and core.running is not None:
        # An outage: the running task and the queue leave the core.
        core.interrupt()
        core.drain_queue()


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
def test_refresh_is_bitwise_the_composition(ops):
    """Any interleaving of mutations and time advances: every refresh
    equals ``robustness.completion``'s composition in probs, CDF and
    start, and the resident row holds it (slots start small, so rows
    move as ready pmfs grow)."""
    core, rows = _bound_core(_SmallSlots)
    t = 0.0
    for i, op in enumerate(ops):
        if op[0] == "advance":
            t += op[1]
        else:
            _apply(core, op, t, i + 1)
        _assert_refresh_exact(core, rows, t)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_bound_and_unbound_cores_refresh_alike(ops):
    """A core bound to a ``ReadyRows`` arena and its unbound twin run one
    op sequence: both refresh at the same reads (one validity bound,
    the row's horizon, decides for both) and give bitwise-equal ready
    pmfs."""
    bound, rows = _bound_core(_SmallSlots)
    twin = CoreState(1, 0, dt=1.0)
    t = 0.0
    last = (None, None)
    for i, op in enumerate(ops):
        if op[0] == "advance":
            t += op[1]
        else:
            _apply(bound, op, t, i + 1)
            _apply(twin, op, t, i + 1)
        stale = rows.horizon[0] < t - 1e-9
        assert (twin._horizon < t - 1e-9) == stale
        a, b = bound.ready_pmf(t), twin.ready_pmf(t)
        assert a.start == b.start
        assert np.array_equal(a.probs, b.probs)
        assert rows.horizon[0] == bound._horizon == twin._horizon
        if bound.running is not None and not stale:
            # No refresh on either core: each returns its cached pmf.
            assert a is last[0] and b is last[1]
        last = (a, b)
