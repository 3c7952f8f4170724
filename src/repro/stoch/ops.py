"""Free functions over :class:`~repro.stoch.pmf.PMF` values.

These are the exact operations Section IV-B of the paper performs when
predicting stochastic completion times:

``convolve``
    Distribution of the sum of two independent random variables.
``shift``
    Completion-time distribution of a task that *started* at a known time
    (execution-time pmf shifted by the start time).
``truncate_below``
    Drop impulses in the past and renormalize — the paper's treatment of a
    currently-executing task whose predicted completion mass partially
    lies before the current time-step.
``truncate_convolve``
    ``convolve(truncate_below(R, t), Q)`` plus the cut's start: a busy
    core's ready-time refresh, a running task's remaining completion
    time plus its queue's.
``prob_sum_at_most``
    ``P[R + X <= d]`` *without* materializing the convolution, for
    callers holding one ready pmf and one execution pmf (the candidate
    builder weighs resident CDF rows instead).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.stoch.pmf import _RTOL, PMF, InternedKernel, _add

# The kernel behind numpy.convolve; calling it directly skips the
# wrapper's argument coercion on every convolution.
try:  # numpy >= 2
    from numpy._core.multiarray import correlate as _correlate
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy.core.multiarray import correlate as _correlate

__all__ = [
    "convolve",
    "convolve_many",
    "shift",
    "truncate_below",
    "truncate_convolve",
    "prob_sum_at_most",
    "expectation_of_sum",
    "set_op_observer",
    "TruncationCache",
]

#: Optional instrumentation callback ``(op: str, grid_size: int)``.
#: The observability layer installs one to count pmf operations and
#: their grid sizes (``repro.obs.hooks``); this module never imports
#: observability code, and the ``is not None`` guard is the only cost
#: on the unobserved hot path.
_op_observer: Callable[[str, int], None] | None = None


def set_op_observer(
    observer: Callable[[str, int], None] | None,
) -> Callable[[str, int], None] | None:
    """Install (or clear, with ``None``) the module-wide op observer.

    Returns the previously-installed observer so callers can restore it
    — observation scopes nest like the hooks they serve.
    """
    global _op_observer
    previous = _op_observer
    _op_observer = observer
    return previous


class TruncationCache(Protocol):
    """What :func:`truncate_below` needs of its ``cache=`` memo.

    :class:`repro.perf.KernelCache` is the implementation (and owns the
    hit/miss/eviction counters); this module only knows the shape.
    """

    def get(self, key: tuple) -> InternedKernel | None:
        """The interned result for ``key``, or ``None`` on a miss."""

    def put(self, key: tuple, kernel: InternedKernel) -> int:
        """Store a result; returns how many entries were evicted."""


#: ``mode="full"`` of the numpy.convolve kernel ``_correlate``.
_FULL = 2
#: The probability array of a degenerate pmf.
_UNIT = np.ones(1)
_UNIT.setflags(write=False)


def _convolve_raw(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.convolve(a, v)`` of two non-empty float64 arrays, bitwise.

    numpy's kernel in :func:`numpy.convolve`'s operand order (the longer
    operand first, the first one on a tie), minus the wrapper's
    argument coercion.
    """
    if v.size > a.size:
        a, v = v, a
    return _correlate(a, v[::-1], _FULL)


def convolve(a: PMF, b: PMF) -> PMF:
    """Distribution of ``A + B`` for independent ``A ~ a`` and ``B ~ b``.

    Both pmfs must share the grid step; the result starts at the sum of
    the starts (offsets add under convolution) and is compacted.
    """
    # Inlined same_grid check: this runs once per materialized
    # convolution plus once per delta shortcut, and the extra method
    # call + bound-method allocation showed up in the hot-path profile.
    if abs(a.dt - b.dt) > _RTOL * a.dt:
        raise ValueError(f"grid mismatch: dt={a.dt} vs dt={b.dt}")
    if len(a) == 1:
        return shift(b, a.start)
    if len(b) == 1:
        return shift(a, b.start)
    probs = _convolve_raw(a.probs, b.probs)
    if _op_observer is not None:
        # Count only materialized convolutions (delta shortcuts above are
        # free); the grid size is the produced support length.
        _op_observer("convolve", probs.size)
    # The raw product of two valid probability arrays needs no
    # re-validation: ``_from_raw`` is ``PMF(...).compact()`` without it.
    # (Convolution results repeat far too rarely to be worth interning;
    # queue convolutions incorporate an ever-changing accumulator.)
    return PMF._from_raw(a.start + b.start, a.dt, probs)


def convolve_many(pmfs: Sequence[PMF]) -> PMF:
    """Fold :func:`convolve` over a non-empty sequence, smallest first.

    Convolving in increasing order of support size keeps intermediate
    arrays short, which matters when a core's queue is deep.
    """
    if not pmfs:
        raise ValueError("convolve_many requires at least one pmf")
    ordered = sorted(pmfs, key=len)
    acc = ordered[0]
    for nxt in ordered[1:]:
        acc = convolve(acc, nxt)
    return acc


def shift(pmf: PMF, offset: float) -> PMF:
    """Translate a pmf along the time axis by ``offset``."""
    if offset == 0.0:
        return pmf
    # The result reuses the operand's (already validated, read-only)
    # probability array, so rerunning the constructor's O(n) finiteness
    # and mass scans — and its defensive copy of a mutable input —
    # would be pure overhead.  The content digest and first moment are
    # functions of ``probs`` alone and carry over; the digest is forced
    # on the source, so the cached truncation that follows on the hot
    # path keys itself without rehashing.
    return PMF._intern(
        pmf.start + offset,
        pmf.dt,
        pmf.probs,
        key=pmf.content_key(),
        m1=object.__getattribute__(pmf, "_m1"),
    )


def truncate_below(pmf: PMF, t: float, *, cache: TruncationCache | None = None) -> PMF:
    """Remove impulses strictly before ``t`` and renormalize.

    This implements the paper's update for a running task observed at the
    current time-step ``t``: impulses at times ``< t`` are in the past and
    impossible, so they are deleted and the remaining mass rescaled.

    If *all* mass lies in the past (the task is overdue relative to its
    own distribution), the best available prediction is "it completes
    now", so a degenerate pmf at ``t`` is returned.

    ``cache`` memoizes the renormalized tails (the engine passes its
    :class:`~repro.perf.KernelCache`); results are bitwise identical with
    or without it.
    """
    k = _cut(pmf, t)
    if k == 0:
        return pmf
    if k >= pmf.probs.size:
        return PMF.delta(t, pmf.dt)
    if cache is not None:
        # The renormalized tail depends only on (contents, k); the cut
        # time enters solely through ``k`` and the result offset.
        key = (pmf.content_key(), k, pmf.dt)
        kernel = cache.get(key)
        if kernel is not None:
            if _op_observer is not None:
                _op_observer("cache_hit", kernel.probs.size)
            return kernel.rebuild(pmf.start, pmf.dt)
    tail = _tail(pmf.probs, k)
    if tail is None:
        # All-zero tail: degenerate results are cheap, never interned.
        return PMF.delta(t, pmf.dt)
    out = PMF._intern(pmf.start + k * pmf.dt, pmf.dt, tail)
    if cache is not None:
        evicted = cache.put(key, InternedKernel.from_result(out, pmf.start))
        if _op_observer is not None:
            _op_observer("cache_miss", out.probs.size)
            if evicted:
                _op_observer("cache_evict", evicted)
    return out


def _cut(pmf: PMF, t: float) -> int:
    """How many leading bins of ``pmf`` lie before ``t`` (0: none).

    Times equal to ``t`` survive.  A cut is reported to the op observer
    as a ``truncate_below``.
    """
    if t <= pmf.start:
        return 0
    # math.ceil on a float equals int(np.ceil(...)) exactly, without
    # the numpy scalar round-trip.
    k = math.ceil((t - pmf.start) / pmf.dt - 1e-9)
    if k <= 0:
        return 0
    if _op_observer is not None:
        _op_observer("truncate_below", pmf.probs.size)
    return k


def _tail(probs: np.ndarray, k: int) -> np.ndarray | None:
    """``probs[k:]`` renormalized (``0 < k < probs.size``), read-only.

    ``None`` when the tail has no mass.  A tail that already sums to
    one is a view of ``probs`` (read-only, as every pmf's array is).
    """
    tail = probs[k:]
    total = float(_add(tail))
    if total <= 0.0:
        return None
    if abs(total - 1.0) > _RTOL:
        tail = tail / total
        tail.setflags(write=False)
    return tail


def truncate_convolve(pmf: PMF, t: float, other: PMF) -> tuple[PMF, float]:
    """``convolve(truncate_below(pmf, t), other)`` and the truncation's start.

    The start is the cut a later ``t`` has to pass before the result
    changes.  The truncated tail is an intermediate nothing else reads,
    so it skips the kernel cache and no pmf wraps it: the cut and tail
    steps of :func:`truncate_below` feed :func:`convolve`'s raw
    convolution and finish directly.  Both operations are reported to
    the op observer as their own functions report them.
    """
    dt = pmf.dt
    if abs(dt - other.dt) > _RTOL * dt:
        raise ValueError(f"grid mismatch: dt={dt} vs dt={other.dt}")
    k = _cut(pmf, t)
    head = pmf.probs
    start = pmf.start
    if k:
        head = _tail(head, k) if k < head.size else None
        if head is None:
            # truncate_below's "completes now" delta.
            head = _UNIT
            start = t
        else:
            start = start + k * dt
    if head.size == 1 or other.probs.size == 1:
        # convolve's delta shortcuts: a shift, no convolution.
        running = PMF._intern(start, dt, head) if k else pmf
        return convolve(running, other), start
    raw = _convolve_raw(head, other.probs)
    if _op_observer is not None:
        _op_observer("convolve", raw.size)
    return PMF._from_raw(start + other.start, dt, raw), start


def prob_sum_at_most(ready: PMF, exec_pmf: PMF, deadline: float) -> float:
    """``P[R + X <= deadline]`` for independent ``R ~ ready``, ``X ~ exec_pmf``.

    Equals ``sum_x P[X = x] * F_R(deadline - x)``, one vectorized pass:
    no convolution array is ever built.  This is the quantity the paper
    calls ``rho(i, j, k, pi, t_l, z)`` — the probability that task ``z``
    completes by its deadline under a candidate assignment.
    """
    # Inlined same_grid check (see convolve).
    if abs(ready.dt - exec_pmf.dt) > _RTOL * ready.dt:
        raise ValueError(f"grid mismatch: dt={ready.dt} vs dt={exec_pmf.dt}")
    if _op_observer is not None:
        _op_observer("prob_sum_at_most", exec_pmf.probs.size)
    # F_R evaluated at (deadline - x_i) for every exec impulse time x_i.
    # x_i = exec.start + i*dt  =>  query_i = deadline - exec.start - i*dt.
    # Index into ready's grid: floor((query_i - ready.start)/dt).
    n = exec_pmf.probs.size
    base = (deadline - exec_pmf.start - ready.start) / ready.dt
    ks = np.floor(base + 1e-9 - np.arange(n)).astype(np.int64)
    # minimum+maximum instead of np.clip: exact on integers, cheaper.
    np.minimum(ks, ready.probs.size - 1, out=ks)
    np.maximum(ks, -1, out=ks)
    cdf = ready.cdf
    # F_R for index -1 (query before ready.start) is 0.
    fr = np.where(ks >= 0, cdf[np.maximum(ks, 0)], 0.0)
    return float(np.dot(exec_pmf.probs, fr))


def expectation_of_sum(pmfs: Iterable[PMF]) -> float:
    """``E[sum_i X_i]`` — linearity of expectation, no convolution needed."""
    return float(sum(p.mean() for p in pmfs))
