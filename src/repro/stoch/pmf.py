"""The :class:`PMF` value type: a pmf on a regular time grid.

A pmf is stored as ``(start, dt, probs)``: impulse ``i`` carries
probability ``probs[i]`` at time ``start + i * dt``.  The representation is
dense and contiguous, so all algebra reduces to NumPy vector primitives.
``start`` may be any float (pmfs get shifted by continuous arrival/start
times); only ``dt`` must agree between operands of a convolution, because
offsets add while the grid step is preserved.

Instances are *logically immutable*: no public method mutates ``probs``,
which is always a read-only array (for an execution-time table pmf, a
view of a row of its cell's matrix).  The cumulative sum used by CDF
queries is not kept: :attr:`PMF.cdf` computes it afresh on each read.
:class:`InternedKernel` is a start-independent snapshot of a finished pmf,
the entry type of the kernel cache.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

import numpy as np

__all__ = ["PMF", "InternedKernel"]

#: Relative tolerance used when checking normalization and grid agreement.
_RTOL = 1e-9
#: Probabilities smaller than this (relative to the max) may be trimmed
#: from pmf tails by :meth:`PMF.compact`.
_TRIM_EPS = 1e-12
#: ``ndarray.sum`` / ``ndarray.max`` of a 1-D array without their Python
#: wrapper (the same reductions: ``numpy/_core/_methods.py``).
_add = np.add.reduce
_max = np.maximum.reduce


class PMF:
    """A probability mass function with impulses on a regular grid.

    Parameters
    ----------
    start:
        Time of the first impulse.
    dt:
        Grid step between consecutive impulses (must be positive).
    probs:
        Non-negative impulse weights.  They are normalized to sum to one
        unless ``normalize=False`` *and* they already sum to one.
    normalize:
        When true (default) the weights are rescaled to sum to exactly one.

    Notes
    -----
    Zero-probability leading/trailing bins are kept as given; call
    :meth:`compact` to trim them (operations that can create long zero
    tails do this internally).
    """

    __slots__ = ("start", "dt", "probs", "_m1", "_key")

    start: float
    dt: float
    probs: np.ndarray

    def __init__(
        self,
        start: float,
        dt: float,
        probs: Iterable[float] | np.ndarray,
        *,
        normalize: bool = True,
    ) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if dt <= 0.0 or not np.isfinite(dt):
            raise ValueError(f"dt must be a positive finite float, got {dt}")
        if not np.isfinite(start):
            raise ValueError(f"start must be finite, got {start}")
        if (arr < 0.0).any() or not np.isfinite(arr).all():
            raise ValueError("probs must be finite and non-negative")
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("probs must have positive total mass")
        if normalize:
            if abs(total - 1.0) > _RTOL:
                arr = arr / total
            elif arr is probs:
                arr = arr.copy()
        elif abs(total - 1.0) > 1e-6:
            raise ValueError(f"probs sum to {total}, not 1, and normalize=False")
        arr.setflags(write=False)
        object.__setattr__(self, "start", float(start))
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "_m1", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("PMF instances are immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def delta(time: float, dt: float) -> "PMF":
        """A degenerate pmf: all mass at ``time``."""
        return PMF(time, dt, np.ones(1), normalize=False)

    @classmethod
    def _intern(
        cls,
        start: float,
        dt: float,
        probs: np.ndarray,
        *,
        key: bytes | None = None,
        m1: "np.floating | None" = None,
    ) -> "PMF":
        """Wrap an *already-validated, read-only* probability array.

        Fast path for the kernel cache (:mod:`repro.perf`) and the
        execution-time table's row views: the array came out of a
        regular :class:`PMF` earlier, so re-running the constructor's
        validation and normalization would only burn time (and a
        renormalization could perturb the stored bits).  ``key``
        and ``m1`` optionally pre-seed the content digest and the first
        moment so interned siblings share them — both are functions of
        ``probs`` alone, so carrying them over is exact.  Not part of
        the public surface.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "start", float(start))
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_m1", m1)
        object.__setattr__(self, "_key", key)
        return self

    def _moved_to(self, probs: np.ndarray) -> "PMF":
        """This pmf with its probabilities stored in ``probs``.

        ``probs`` must be a read-only array bitwise equal to
        ``self.probs`` (the execution-time table passes a row view of
        its cell matrix).  The first moment is computed here, on the
        original array, and carried over, so the moved pmf's ``mean()``
        is bitwise this one's.  Not part of the public surface.
        """
        self.mean()
        return PMF._intern(self.start, self.dt, probs, m1=self._m1)

    @classmethod
    def _from_raw(cls, start: float, dt: float, raw: np.ndarray) -> "PMF":
        """``PMF(start, dt, raw).compact()`` minus the redundant validation.

        ``raw`` must be a float64 array the caller owns, finite and
        non-negative with positive total by construction (a convolution
        of two valid pmfs, clipped bin masses of a discretized law), and
        ``dt`` must already be a valid grid step.  The normalization and
        trimming below follow :meth:`__init__` and :meth:`compact`
        branch for branch, producing bitwise-identical arrays.  When
        nothing is trimmed and the total is already one, ``raw`` itself
        becomes the pmf's (read-only) array.  Not part of the public
        surface.
        """
        total = float(_add(raw))
        arr = raw / total if abs(total - 1.0) > _RTOL else raw
        thresh = float(_max(arr)) * _TRIM_EPS
        # First/last index above threshold without materializing the
        # index array flatnonzero builds.  When both end bins survive
        # (checked on scalars first) nothing trims; otherwise the mask is
        # never empty because the max itself always exceeds
        # ``max * _TRIM_EPS``.
        if arr[0] > thresh and arr[-1] > thresh:
            lo = 0
            hi = arr.size - 1
        else:
            keep = arr > thresh
            lo = int(keep.argmax())
            hi = arr.size - 1 - int(keep[::-1].argmax())
        if lo == 0 and hi == arr.size - 1:
            out = arr
        else:
            sl = arr[lo : hi + 1]
            t2 = float(_add(sl))
            out = sl / t2 if abs(t2 - 1.0) > _RTOL else sl.copy()
            start = start + lo * dt
        out.setflags(write=False)
        return cls._intern(start, dt, out)

    @staticmethod
    def from_mapping(mapping: Mapping[float, float], dt: float) -> "PMF":
        """Build a pmf from ``{time: probability}`` pairs.

        Times are snapped to the grid anchored at the smallest time; a
        ``ValueError`` is raised if any time is farther than ``dt * 1e-6``
        from its grid point, to catch accidental off-grid input.
        """
        if not mapping:
            raise ValueError("mapping must be non-empty")
        times = np.array(sorted(mapping), dtype=np.float64)
        start = float(times[0])
        idx_f = (times - start) / dt
        idx = np.rint(idx_f).astype(np.int64)
        if np.any(np.abs(idx_f - idx) > 1e-6):
            raise ValueError("mapping times are not grid-aligned")
        probs = np.zeros(int(idx[-1]) + 1)
        for t, i in zip(times, idx):
            probs[int(i)] += mapping[float(t)]
        return PMF(start, dt, probs)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.probs.size)

    @property
    def times(self) -> np.ndarray:
        """Impulse times (freshly computed; not cached)."""
        return self.start + self.dt * np.arange(self.probs.size)

    @property
    def stop(self) -> float:
        """Time of the last impulse."""
        return self.start + self.dt * (self.probs.size - 1)

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative sum of ``probs``, computed on each read (read-only).

        Not cached: a cached CDF would double every long-lived pmf's
        footprint, and the hot path reads it about once per task start.
        """
        cdf = self.probs.cumsum()
        cdf.setflags(write=False)
        return cdf

    def mean(self) -> float:
        """Expectation ``E[X]`` (the start-independent moment is cached)."""
        m1 = object.__getattribute__(self, "_m1")
        if m1 is None:
            m1 = np.dot(np.arange(self.probs.size), self.probs)
            object.__setattr__(self, "_m1", m1)
        return float(self.start + self.dt * m1)

    def content_key(self) -> bytes:
        """Digest of the probability contents (grid offsets excluded).

        Two pmfs share a key iff their ``probs`` arrays are bitwise
        equal, which is exactly the invariance the kernel cache needs:
        convolution/truncation results depend on operand *contents*,
        with starts entering only as additive offsets.  Cached per
        instance (arrays are immutable).
        """
        key = object.__getattribute__(self, "_key")
        if key is None:
            key = hashlib.blake2b(self.probs.tobytes(), digest_size=16).digest()
            object.__setattr__(self, "_key", key)
        return key

    def var(self) -> float:
        """Variance ``Var[X]`` (non-negative by clipping tiny round-off)."""
        idx = np.arange(self.probs.size, dtype=np.float64)
        m1 = float(np.dot(idx, self.probs))
        m2 = float(np.dot(idx * idx, self.probs))
        return max(0.0, (m2 - m1 * m1)) * self.dt * self.dt

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.var()))

    def prob_at_most(self, t: float) -> float:
        """``P[X <= t]`` — the CDF evaluated at an arbitrary time.

        Times within ``1e-9 * dt`` of a grid point count as that grid
        point, the same tolerance every CDF-indexing operation in
        :mod:`repro.stoch.ops` uses.
        """
        # Index of the last impulse with time <= t: floor((t - start)/dt),
        # nudged so times equal to an impulse (up to fp error) include it.
        k = int(np.floor((t - self.start) / self.dt + 1e-9))
        if k < 0:
            return 0.0
        k = min(k, self.probs.size - 1)
        return float(self.cdf[k])

    def prob_greater(self, t: float) -> float:
        """``P[X > t]``."""
        return 1.0 - self.prob_at_most(t)

    def quantile(self, q: float) -> float:
        """Smallest grid time ``t`` with ``P[X <= t] >= q``."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be a probability")
        k = int(np.searchsorted(self.cdf, q - 1e-15, side="left"))
        k = min(k, self.probs.size - 1)
        return self.start + self.dt * k

    def total_mass(self) -> float:
        """Sum of all impulse weights (1.0 up to round-off)."""
        return float(self.probs.sum())

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def compact(self) -> "PMF":
        """Trim negligible leading/trailing mass and renormalize.

        Bins lighter than ``max(probs) * 1e-12`` at either end are
        dropped; interior bins are never removed (grid alignment must be
        preserved).
        """
        p = self.probs
        thresh = float(p.max()) * _TRIM_EPS
        nz = np.flatnonzero(p > thresh)
        if nz.size == 0:  # pragma: no cover - guarded by constructor
            return self
        lo, hi = int(nz[0]), int(nz[-1])
        if lo == 0 and hi == p.size - 1:
            return self
        return PMF(self.start + lo * self.dt, self.dt, p[lo : hi + 1])

    def same_grid(self, other: "PMF") -> bool:
        """Whether two pmfs share a grid step (offsets may differ)."""
        return abs(self.dt - other.dt) <= _RTOL * self.dt

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PMF(start={self.start:.6g}, dt={self.dt:.6g}, "
            f"n={self.probs.size}, mean={self.mean():.6g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMF):
            return NotImplemented
        return (
            abs(self.start - other.start) <= _RTOL * max(1.0, abs(self.start))
            and self.same_grid(other)
            and self.probs.size == other.probs.size
            and bool(np.allclose(self.probs, other.probs, rtol=_RTOL, atol=1e-15))
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


class InternedKernel:
    """One interned kernel result: a probability array plus its grid offset.

    The entry type of :class:`repro.perf.KernelCache`.  ``probs`` is the
    read-only array a fresh computation produced; ``lo`` is the integer
    number of grid bins between the operation's natural start (the
    operand's start, for a truncation) and the result's first impulse.
    :meth:`rebuild` re-materializes the pmf for any operand start using
    the same arithmetic expression the fresh computation evaluates, so
    the reconstructed pmf is bitwise identical to it.  ``m1``, the
    start-independent first moment, is shared by every rebuilt sibling;
    a rebuilt pmf's CDF is computed only when something reads it.
    """

    __slots__ = ("probs", "lo", "m1")

    def __init__(self, probs: np.ndarray, lo: int, m1: "np.floating | None") -> None:
        self.probs = probs
        self.lo = lo
        self.m1 = m1

    @classmethod
    def from_result(cls, result: PMF, base_start: float) -> "InternedKernel":
        """Intern a finished pmf produced from operands with ``base_start``.

        The first moment is not forced here (a kernel that never gets a
        hit would pay for it): the result's own is carried over if it
        was computed, and otherwise the first rebuild computes it.
        """
        lo = int(round((result.start - base_start) / result.dt))
        return cls(result.probs, lo, object.__getattribute__(result, "_m1"))

    def rebuild(self, base_start: float, dt: float) -> PMF:
        """Reconstruct the result pmf for operands starting at ``base_start``."""
        m1 = self.m1
        if m1 is None:
            # First hit: materialize the moment once and share it with
            # every future sibling — the same expression as PMF.mean's
            # cache-miss branch, so the value is bitwise identical.
            m1 = np.dot(np.arange(self.probs.size), self.probs)
            self.m1 = m1
        # ``base + lo * dt`` is the exact expression the uncached path
        # evaluates (``truncate_below``).
        return PMF._intern(base_start + self.lo * dt, dt, self.probs, m1=m1)
