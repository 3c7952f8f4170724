"""repro.perf — the hot-path performance layer.

Two mechanisms, both strictly results-neutral (bitwise-identical trial
results and manifest digests):

* a **content-addressed kernel cache** (:class:`KernelCache`) interning
  the results of pmf truncations.  It is an explicit argument: an
  engine takes one as ``kernel_cache=`` (``None`` builds a private one,
  so an engine always memoizes) and passes it to each core's ready-pmf
  update; the ensemble runner passes one per trial to all its specs;
* the **vectorized candidate builder**
  (:class:`~repro.sim.mapper.CandidateBuilder`), which assembles the
  whole per-arrival :class:`~repro.heuristics.base.CandidateSet` with
  batched array ops over the cores' resident ready-time rows
  (:class:`~repro.sim.state.ReadyRows`).  Its per-type arrays (EET/EEC
  gathers, first impulse times and one probability matrix per node, no
  padded copies of the pmfs) live on the execution-time table
  (:meth:`~repro.workload.pmf_table.ExecutionTimeTable.candidate_arrays`),
  so every engine over one system shares them.
"""

from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache

__all__ = [
    "CacheStats",
    "InternedKernel",
    "KernelCache",
]
