"""repro.perf — the hot-path performance layer.

Three mechanisms, all strictly results-neutral (bitwise-identical
trial results and manifest digests):

* a **content-addressed kernel cache** (:class:`KernelCache`) interning
  the results of pmf truncations, installed into
  :mod:`repro.stoch.ops` for the duration of one engine run, always on;
* the **vectorized candidate builder**
  (:class:`~repro.sim.mapper.CandidateBuilder`), which assembles the
  whole per-arrival :class:`~repro.heuristics.base.CandidateSet` with
  batched array ops and per-ready-pmf deduplication;
* a **trial-scoped warm cache** (:class:`TrialCache`) sharing the
  kernel cache and the builder's type tables across every spec of a
  trial (all specs run the same :class:`~repro.sim.system.TrialSystem`).

``TrialCache(None)`` (no kernel cache), passed as an engine's
``shared=``, is the reference path the parity tests compare against.
"""

from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache
from repro.perf.trial_cache import TrialCache

__all__ = [
    "CacheStats",
    "InternedKernel",
    "KernelCache",
    "TrialCache",
]
