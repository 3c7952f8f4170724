"""Content-addressed interning of pmf kernel results.

The mapping hot path recomputes the same pmf kernels constantly: the
same (type, node, P-state) execution pmfs recur across cores, tasks and
time, so the *operands* of most truncations have been seen before.
:class:`KernelCache` interns the finished result of each
``truncate_below(..., cache=)`` call keyed by a digest of its operand
contents, so a repeat of the same truncation is a dict lookup instead of
a slice and renormalization.  (Convolution results were measured to
repeat far too rarely to be worth interning — a queue convolution's
left operand is an ever-changing accumulator — so ``convolve`` never
uses the cache.)

The cache is an explicit argument, never ambient state: an
:class:`~repro.sim.engine.Engine` takes one as ``kernel_cache=`` (or
builds a private one) and hands it to each
:class:`~repro.sim.state.CoreState`.  The ensemble runner passes one
cache per trial to every spec's engine, since all specs of a trial run
the same system.

Which truncations use it: a core's ready-pmf refresh when nothing is
queued behind the running task — that truncation *is* the ready pmf,
and the same (execution pmf, cut) recurs across cores and specs.  The
refresh of a core with queued work does not: its truncated tail is only
an operand of the queue convolution, so
:func:`~repro.stoch.ops.truncate_convolve` truncates it uncached.  The ``perf.cache_*`` metrics (hits, misses, evictions)
therefore count the lookups of running-only refreshes alone, while the
``stoch.ops.truncate_below`` count still covers every truncation.

Correctness contract — *bitwise identity*.  A cached kernel
(:class:`~repro.stoch.pmf.InternedKernel`) stores the exact probability
array the fresh computation produced (plus the integer grid offset of
the result relative to its operand, and the first moment once a hit
computed it), and a hit reconstructs a :class:`~repro.stoch.pmf.PMF`
from that array verbatim; its CDF is computed only if something reads
it.  The
truncation's probability contents are independent of the operand's
absolute ``start`` time, which is what makes content addressing sound:
the result array is the renormalized tail ``probs[k:]`` and the start
is ``pmf.start + k * dt`` — so the key is ``(digest(probs), k, dt)``,
not the wall-clock cut time.

The cache is bounded (LRU by access order); eviction only ever costs
recomputation, never correctness.

Counters (hits / misses / evictions) are reported two ways: locally via
:meth:`KernelCache.stats`, and through the
:func:`repro.stoch.ops.set_op_observer` callback as the pseudo-ops
``cache_hit`` / ``cache_miss`` / ``cache_evict``, which the
observability layer turns into ``stoch.ops.cache_*`` metrics counters
alongside the existing per-operation counts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.stoch.pmf import InternedKernel

__all__ = ["CacheStats", "InternedKernel", "KernelCache"]

#: A cache key: operand digest and parameters (see ``truncate_below``).
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
