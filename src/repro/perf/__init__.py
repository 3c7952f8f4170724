"""repro.perf — the hot-path performance layer.

Three mechanisms, all strictly results-neutral (bitwise-identical
trial results and manifest digests):

* a **content-addressed kernel cache** (:class:`KernelCache`) interning
  the results of pmf truncations, installed into
  :mod:`repro.stoch.ops` for the duration of one engine run — the one
  switch, ``PerfConfig.kernel_cache``, the parity tests turn off;
* the **vectorized candidate builder**
  (:class:`~repro.sim.mapper.CandidateBuilder`), which assembles the
  whole per-arrival :class:`~repro.heuristics.base.CandidateSet` with
  batched array ops and per-ready-pmf deduplication;
* a **trial-scoped warm cache** (:class:`TrialCache`) sharing the
  kernel cache and the builder's type tables across every spec of a
  trial (all specs run the same :class:`~repro.sim.system.TrialSystem`).

A fourth mechanism is *opt-in* and sits under a documented ≤1e-12
tolerance instead of bitwise identity: the **compiled kernel backend**
(:mod:`repro.perf.kernels`, ``PerfConfig.backend``) replaces the
stochastic hot kernels — convolution, tail truncation, the
``prob_sum_at_most`` dot, the mapper's batched prob-on-time rows —
with C-compiled loops.  The numpy reference path remains the default
and always available; digests and manifests are always defined by it.

``PerfConfig.disabled()`` (no kernel cache, numpy) is the reference
configuration the parity tests compare against.
"""

from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache, PerfConfig
from repro.perf.kernels import (
    BACKEND_CHOICES,
    KernelBackend,
    available_backends,
    default_backend_name,
    describe_backends,
    resolve_backend,
)
from repro.perf.trial_cache import TrialCache

__all__ = [
    "BACKEND_CHOICES",
    "CacheStats",
    "InternedKernel",
    "KernelBackend",
    "KernelCache",
    "PerfConfig",
    "TrialCache",
    "available_backends",
    "default_backend_name",
    "describe_backends",
    "resolve_backend",
]
