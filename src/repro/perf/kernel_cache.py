"""Content-addressed interning of pmf kernel results.

The mapping hot path recomputes the same pmf kernels constantly: the
same (type, node, P-state) execution pmfs recur across cores, tasks and
time, so the *operands* of most truncations have been seen before.
:class:`KernelCache` interns the finished result of each
``truncate_below`` call keyed by a digest of its operand contents, so a
repeat of the same truncation is a dict lookup instead of a slice,
renormalization and pmf validation.  (Convolution results were measured
to repeat far too rarely to be worth interning — a queue convolution's
left operand is an ever-changing accumulator — so ``convolve`` only
uses the validation-free finalizer, never the cache.)

Correctness contract — *bitwise identity*.  A cached kernel stores the
exact probability array the uncached code path produced (plus the
integer grid offset of the result relative to its operand), and a hit
reconstructs a :class:`~repro.stoch.pmf.PMF` from that array verbatim.
The truncation's probability contents are independent of the operand's
absolute ``start`` time, which is what makes content addressing sound:
the result array is the renormalized tail ``probs[k:]`` and the start
is ``pmf.start + k * dt`` — so the key is ``(digest(probs), k)``, not
the wall-clock cut time.

The cache is bounded (LRU by access order) and purely local to one
engine run; eviction only ever costs recomputation, never correctness.

Counters (hits / misses / evictions) are reported two ways: locally via
:meth:`KernelCache.stats`, and through the
:func:`repro.stoch.ops.set_op_observer` callback as the pseudo-ops
``cache_hit`` / ``cache_miss`` / ``cache_evict``, which the
observability layer turns into ``stoch.ops.cache_*`` metrics counters
alongside the existing per-operation counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.perf.kernels import (
    BACKEND_CHOICES,
    KernelBackend,
    default_backend_name,
    resolve_backend,
)
from repro.stoch.pmf import PMF

__all__ = ["CacheStats", "InternedKernel", "KernelCache", "PerfConfig"]

#: Key tag for the interned operation (a single namespace today, kept
#: explicit so further interned ops can join the same table).
OP_TRUNCATE = 1

#: A cache key: ``(op, operand digests / parameters ...)``.
KernelKey = Tuple[object, ...]


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """Plain-dict form for benchmark reports and metrics dumps."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }

    def since(self, base: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier snapshot of the same cache.

        Used to attribute a *shared* cache's activity to one engine run:
        ``hits``/``misses``/``evictions`` become the run's own counts and
        ``entries`` the entries the run added (an LRU at capacity adds
        none).  For a fresh private cache ``base`` is all zeros and this
        is the identity.
        """
        return CacheStats(
            hits=self.hits - base.hits,
            misses=self.misses - base.misses,
            evictions=self.evictions - base.evictions,
            entries=self.entries - base.entries,
        )


class InternedKernel:
    """One interned result: a probability array plus its grid offset.

    ``probs`` is the read-only array the uncached computation produced;
    ``lo`` is the integer number of grid bins between the operation's
    natural start (the operand's start, for a truncation) and the
    result's first impulse.
    :meth:`rebuild` re-materializes the pmf for any operand start using
    the same arithmetic expression the uncached path evaluates, so the
    reconstructed pmf is bitwise identical to a fresh computation.
    """

    __slots__ = ("probs", "lo", "key", "m1", "cdf")

    def __init__(
        self,
        probs: np.ndarray,
        lo: int,
        key: bytes | None,
        m1: "np.floating | None",
        cdf: np.ndarray | None,
    ) -> None:
        self.probs = probs
        self.lo = lo
        self.key = key
        self.m1 = m1
        self.cdf = cdf

    @classmethod
    def from_result(cls, result: PMF, base_start: float) -> "InternedKernel":
        """Intern a finished pmf produced from operands with ``base_start``.

        The derived values (digest, first moment, cumulative sum) are
        *not* forced here: a kernel that never gets a hit would pay for
        quantities nobody reads.  Whatever the result instance has
        already computed is carried over (all three depend on the probs
        alone, so sharing is exact); the rest is backfilled lazily on
        the first rebuild.
        """
        lo = int(round((result.start - base_start) / result.dt))
        key = object.__getattribute__(result, "_key")
        m1 = object.__getattribute__(result, "_m1")
        cdf = object.__getattribute__(result, "_cdf")
        return cls(result.probs, lo, key, m1, cdf)

    def rebuild(self, base_start: float, dt: float) -> PMF:
        """Reconstruct the result pmf for operands starting at ``base_start``."""
        m1 = self.m1
        if m1 is None:
            # First hit: materialize the start-independent moment once
            # and share it with every future sibling — the same
            # expression as PMF.mean's cache-miss branch, so the value
            # is bitwise identical.
            m1 = np.dot(np.arange(self.probs.size), self.probs)
            self.m1 = m1
        cdf = self.cdf
        if cdf is None:
            # Likewise the cumulative sum (PMF.cdf's lazy expression).
            cdf = self.probs.cumsum()
            cdf.setflags(write=False)
            self.cdf = cdf
        # ``base + lo * dt`` is the exact expression the uncached path
        # evaluates (``PMF.compact`` / ``truncate_below``); ``lo == 0``
        # keeps the base bit-for-bit, matching compact's return-self.
        start = base_start if self.lo == 0 else base_start + self.lo * dt
        return PMF._intern(start, dt, self.probs, key=self.key, m1=m1, cdf=cdf)


class KernelCache:
    """Bounded LRU intern table for pmf kernel results.

    Parameters
    ----------
    max_entries:
        Entry cap; the least-recently-used kernels are evicted past it.
        Sized so a full paper-scale trial (deep queues on ~50 cores)
        fits comfortably: at ~100-500 bins per kernel the default cap
        is tens of MB at worst.
    """

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[KernelKey, InternedKernel] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: KernelKey) -> InternedKernel | None:
        """Look up a kernel, refreshing its LRU position."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: KernelKey, kernel: InternedKernel) -> int:
        """Store a kernel; returns how many entries were evicted."""
        self._entries[key] = kernel
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Snapshot the counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=len(self._entries),
        )


@dataclass(frozen=True)
class PerfConfig:
    """Knobs of the hot-path performance layer.

    ``kernel_cache`` is *results-neutral*: the engine produces bitwise
    identical :class:`~repro.sim.results.TrialResult`s (and therefore
    identical manifest digests) with it on or off, enforced by
    ``tests/perf/test_parity.py``; it only trades memory for speed.
    ``backend`` is the one documented exception: compiled backends
    agree with the numpy reference to ≤1e-12 (see
    :mod:`repro.perf.kernels`), which is why it defaults to
    ``"numpy"`` and digests are always defined by the numpy path.

    Attributes
    ----------
    kernel_cache:
        Intern truncation kernels for the run: one private cache per
        engine, or the trial's shared one when a
        :class:`~repro.perf.trial_cache.TrialCache` is passed (nothing
        ever leaks across trials).  Off is the reference path the parity
        tests compare against.
    max_entries:
        Kernel-cache capacity (LRU past it).
    backend:
        Which kernel implementation executes the stochastic hot path:
        ``"numpy"`` (the reference, default), ``"cext"`` (compiled C,
        opt-in, warn-and-fall-back when unavailable) or ``"auto"``
        (cext when it loads, else numpy, silently).  The default
        honours the ``REPRO_PERF_BACKEND`` environment override so
        deployments can opt in without touching call sites.
    """

    kernel_cache: bool = True
    max_entries: int = 65536
    backend: str = field(default_factory=default_backend_name)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown kernel backend {self.backend!r}; "
                f"choose from {BACKEND_CHOICES}"
            )

    @staticmethod
    def disabled() -> "PerfConfig":
        """The reference configuration: no kernel cache, numpy backend."""
        return PerfConfig(kernel_cache=False, backend="numpy")

    def make_cache(self) -> KernelCache | None:
        """Build the engine's kernel cache (``None`` when disabled)."""
        return KernelCache(self.max_entries) if self.kernel_cache else None

    def make_backend(self) -> KernelBackend | None:
        """Resolve the configured kernel backend (``None`` = numpy path).

        Warns and falls back to the reference path when an explicitly
        requested compiled backend cannot be loaded; ``"auto"`` probes
        silently.  Resolution is cached per process, so this is cheap
        to call once per engine.
        """
        return resolve_backend(self.backend)
