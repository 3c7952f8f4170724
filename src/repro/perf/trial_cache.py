"""Trial-scoped sharing of warm performance state across specs.

The runner's pairing discipline runs every (heuristic, filter) spec of a
trial against the *same* :class:`~repro.sim.system.TrialSystem`, yet
before this module each :class:`~repro.sim.engine.Engine` started cold:
a fresh :class:`~repro.perf.kernel_cache.KernelCache` and a fresh
:class:`~repro.sim.mapper.CandidateBuilder` type-table cache per run.
Both caches are keyed purely by *content that is identical across the
specs of a trial* — interned truncation kernels are addressed by pmf
content digest, and the builder's per-type tables are pure functions of
the shared execution-time table — so one spec's warm state is a valid
(and bitwise-identical) answer for the next.

:class:`TrialCache` is the handle the runner creates once per trial and
passes as ``shared=`` to every spec's engine.  The engine *reuses*
the handle's kernel cache instead of building its own (nesting preserved
by ``set_kernel_cache``'s return-previous protocol) and snapshots the
counters at run start, so :meth:`Engine.kernel_cache_stats` and the
``perf.cache.*`` metrics stay attributable per spec even though the
cache object is shared.

Sharing scope is deliberately *one trial in one worker process*: trials
have different systems (different pmf contents, so cross-trial entries
would only pollute the LRU), and worker processes never share memory.

The handle is also how a caller picks the cache: ``TrialCache(None)``
runs the uncached reference path the parity tests compare against, and
``TrialCache(KernelCache(n))`` a cache of ``n`` entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.perf.kernel_cache import CacheStats, KernelCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.workload.pmf_table import ExecutionTimeTable

__all__ = ["TrialCache"]


class TrialCache:
    """Warm per-trial performance state shared across an engine sequence.

    Parameters
    ----------
    kernel:
        The kernel cache every engine of the trial shares; ``None`` runs
        them all on the uncached reference path.  The builder type
        tables are always shared.
    """

    __slots__ = ("kernel", "_tables_for", "_tables")

    def __init__(self, kernel: KernelCache | None) -> None:
        self.kernel = kernel
        self._tables_for: Any = None
        self._tables: dict = {}

    def mapper_tables(self, table: "ExecutionTimeTable") -> dict:
        """The shared ``CandidateBuilder`` type-table dict for ``table``.

        Entries are read-only arrays derived from ``table`` alone, so
        sharing the dict across the trial's builders is exact.  Resets
        if asked about a *different* table — a misuse guard; the runner
        only ever pairs one system with one ``TrialCache``.
        """
        if self._tables_for is not table:
            self._tables_for = table
            self._tables = {}
        return self._tables

    def stats(self) -> CacheStats | None:
        """Cumulative counters of the shared kernel cache (whole trial)."""
        return self.kernel.stats() if self.kernel is not None else None
