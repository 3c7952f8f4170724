"""Additional baseline heuristics from the dynamic-mapping literature.

The paper adapts SQ and MECT from [SmC09]/[MaA99]; the same Maheswaran et
al. immediate-mode family contains three more classics, implemented here
(adapted to the P-state dimension) as extra comparison points:

* **MET** (Minimum Execution Time): best execution time, load-blind —
  notorious for overloading each task's favorite machine.
* **OLB** (Opportunistic Load Balancing): earliest-ready core, execution-
  time-blind.
* **KPB** (K-Percent Best): restrict to the k% best-EET cores, then pick
  the minimum expected completion time among them — a compromise between
  MET and MECT.

Plus one energy-side baseline:

* **MEEC** (Minimum Expected Energy Consumption): cheapest assignment,
  deadline-blind — the greedy-energy extreme.

None of these appear in the paper's figures.  They register in the same
plugin namespace as the paper's four (:mod:`repro.heuristics.registry`),
so the CLI, scenario files and `bench_extended_heuristics` name them
like any other heuristic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.heuristics.base import CandidateSet, Heuristic, MappingContext, argmin_lexicographic

__all__ = [
    "MinimumExecutionTime",
    "OpportunisticLoadBalancing",
    "KPercentBest",
    "MinimumExpectedEnergy",
]


class MinimumExecutionTime(Heuristic):
    """MET: map to the globally fastest (core, P-state) for this task.

    Ignores queue state entirely, so bursts pile onto each task type's
    favorite node.  P0 always wins within a core (it is the fastest), so
    unfiltered MET is also maximally energy-hungry.
    """

    name = "MET"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the global minimum-EET candidate."""
        return argmin_lexicographic(cands.mask, cands.eet)


class OpportunisticLoadBalancing(Heuristic):
    """OLB: map to the earliest-expected-ready core.

    Execution-time-blind: uses only the core's expected ready time
    (``ECT - EET``).  All P-states of one core tie; the tie-break takes
    the lowest expected energy so OLB at least does not burn P0 for
    nothing (the classic formulation has no P-state dimension; this is
    the natural energy-neutral adaptation).
    """

    name = "OLB"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the earliest-ready core (ties: cheapest EEC)."""
        ready = cands.feasible_ect() - cands.eet
        return argmin_lexicographic(cands.mask, ready, cands.eec)


class KPercentBest(Heuristic):
    """KPB: minimum ECT among the k% of candidates with the best EET.

    ``k = 100`` degenerates to MECT; very small ``k`` approaches MET.
    The percentage applies to the *feasible* candidate pool, so the
    filters compose naturally.
    """

    name = "KPB"

    def __init__(self, k_percent: float = 20.0) -> None:
        if not (0.0 < k_percent <= 100.0):
            raise ValueError("k_percent must be in (0, 100]")
        self.k_percent = float(k_percent)

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the min-ECT candidate among the k% best EETs."""
        feasible = np.flatnonzero(cands.mask)
        if feasible.size == 0:
            return None
        keep = max(1, math.ceil(feasible.size * self.k_percent / 100.0))
        best_by_eet = feasible[np.argsort(cands.eet[feasible], kind="stable")[:keep]]
        sub_mask = np.zeros_like(cands.mask)
        sub_mask[best_by_eet] = True
        return argmin_lexicographic(sub_mask, cands.feasible_ect())

    def __repr__(self) -> str:
        return f"KPercentBest(k_percent={self.k_percent})"


class MinimumExpectedEnergy(Heuristic):
    """MEEC: map to the cheapest feasible assignment, deadline-blind."""

    name = "MEEC"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the cheapest feasible candidate."""
        return argmin_lexicographic(cands.mask, cands.eec)
