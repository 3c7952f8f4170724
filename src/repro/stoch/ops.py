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
    ``convolve(truncate_below(R, t), Q)`` fused, bitwise: a busy core's
    ready-time refresh, a running task's remaining completion time plus
    its queue's.
``prob_sum_at_most``
    ``P[R + X <= d]`` *without* materializing the convolution; used on the
    hot path when scoring hundreds of candidate assignments per arrival.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.stoch.pmf import _RTOL, _TRIM_EPS, PMF, InternedKernel

# The kernel behind numpy.convolve; calling it directly skips the
# wrapper's argument coercion on the ready-pmf refresh.
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
#: ``ndarray.sum`` / ``ndarray.max`` of a 1-D array without their Python
#: wrapper (the same reductions: ``numpy/_core/_methods.py``).
_add = np.add.reduce
_max = np.maximum.reduce
#: The probability array of a degenerate pmf.
_UNIT = np.ones(1)
_UNIT.setflags(write=False)


def _check_same_grid(a: PMF, b: PMF) -> None:
    if not a.same_grid(b):
        raise ValueError(f"grid mismatch: dt={a.dt} vs dt={b.dt}")


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
    probs = np.convolve(a.probs, b.probs)
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
    # would be pure overhead.  The content digest, first moment and
    # cumulative sum are functions of ``probs`` alone and carry over;
    # the digest is forced on the source, so the cached truncation that
    # follows on the hot path keys itself without rehashing.
    return PMF._intern(
        pmf.start + offset,
        pmf.dt,
        pmf.probs,
        key=pmf.content_key(),
        m1=object.__getattribute__(pmf, "_m1"),
        cdf=object.__getattribute__(pmf, "_cdf"),
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
    if t <= pmf.start:
        return pmf
    # First index with time >= t (times equal to t survive).
    # math.ceil on a float equals int(np.ceil(...)) exactly, without
    # the numpy scalar round-trip.
    k = math.ceil((t - pmf.start) / pmf.dt - 1e-9)
    if k <= 0:
        return pmf
    if _op_observer is not None:
        _op_observer("truncate_below", pmf.probs.size)
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
    out = _truncate_tail(pmf, k)
    if out is None:
        # All-zero tail: degenerate results are cheap, never interned.
        return PMF.delta(t, pmf.dt)
    if cache is not None:
        evicted = cache.put(key, InternedKernel.from_result(out, pmf.start))
        if _op_observer is not None:
            _op_observer("cache_miss", out.probs.size)
            if evicted:
                _op_observer("cache_evict", evicted)
    return out


def _truncate_tail(pmf: PMF, k: int) -> PMF | None:
    """The materializing branch of :func:`truncate_below` (``0 < k < n``).

    Returns ``None`` when the surviving tail carries no mass (the caller
    substitutes the degenerate "completes now" pmf).  Replicates
    ``PMF.__init__``'s normalization branch on a slice of an
    already-valid pmf, skipping only its re-validation: the tail is
    finite, non-negative, and its sum is checked here.
    """
    tail = pmf.probs[k:]
    total = float(tail.sum())
    if total <= 0.0:
        return None
    arr = tail / total if abs(total - 1.0) > _RTOL else tail.copy()
    arr.setflags(write=False)
    return PMF._intern(pmf.start + k * pmf.dt, pmf.dt, arr)


def truncate_convolve(pmf: PMF, t: float, other: PMF) -> tuple[PMF, float]:
    """``convolve(truncate_below(pmf, t), other)`` in one step, bitwise.

    Returns the result and the start of the truncated ``pmf`` (the cut
    a later ``t`` has to pass before the result changes).  The truncated
    tail is an intermediate nothing else reads, so it is sliced and
    renormalized in place of a :class:`TruncationCache` round trip; the
    convolution runs numpy's kernel with :func:`numpy.convolve`'s
    operand order (the longer operand first, the first one on a tie)
    and the result is finished by :meth:`PMF._from_raw`'s normalize and
    trim branches.  Both operations are reported to the op observer as
    their own functions report them.
    """
    dt = pmf.dt
    if abs(dt - other.dt) > _RTOL * dt:
        raise ValueError(f"grid mismatch: dt={dt} vs dt={other.dt}")
    probs = pmf.probs
    start = pmf.start
    head = probs
    if t > start:
        # truncate_below's branches, without materializing the tail pmf.
        k = math.ceil((t - start) / dt - 1e-9)
        if k > 0:
            if _op_observer is not None:
                _op_observer("truncate_below", probs.size)
            head = None
            if k < probs.size:
                tail = probs[k:]
                total = float(_add(tail))
                if total > 0.0:
                    head = tail / total if abs(total - 1.0) > _RTOL else tail
                    start = start + k * dt
            if head is None:
                head = _UNIT
                start = t
    q = other.probs
    if head.size == 1 or q.size == 1:
        # convolve's delta shortcuts: a shift, no convolution.
        if head is not probs:
            head.setflags(write=False)
        running = pmf if head is probs else PMF._intern(start, dt, head)
        return convolve(running, other), start
    a, v = (q, head) if q.size > head.size else (head, q)
    raw = _correlate(a, v[::-1], _FULL)
    if _op_observer is not None:
        _op_observer("convolve", raw.size)
    # PMF._from_raw, branch for branch.
    begin = start + other.start
    total = float(_add(raw))
    arr = raw / total if abs(total - 1.0) > _RTOL else raw
    thresh = float(_max(arr)) * _TRIM_EPS
    # The max itself is above the threshold, so some bin survives.  (No
    # end-bin pre-check: a ready pmf's ends nearly always trim.)
    kept = (arr > thresh).nonzero()[0]
    lo = int(kept[0])
    hi = int(kept[-1])
    if lo != 0 or hi != arr.size - 1:
        sl = arr[lo : hi + 1]
        t2 = float(_add(sl))
        # _from_raw copies an unscaled slice to free ``raw``; a ready
        # pmf lives until the core's next refresh, so the view (same
        # values) stays.
        arr = sl / t2 if abs(t2 - 1.0) > _RTOL else sl
        begin = begin + lo * dt
    arr.setflags(write=False)
    return PMF._intern(begin, dt, arr), start


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
