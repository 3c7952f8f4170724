"""The Minimum Expected Completion Time (MECT) heuristic (Section V-C, from [MaA99])."""

from __future__ import annotations

from repro.heuristics.base import CandidateSet, Heuristic, MappingContext, argmin_lexicographic

__all__ = ["MinimumExpectedCompletionTime"]


class MinimumExpectedCompletionTime(Heuristic):
    """Map to the feasible assignment minimizing expected completion time.

    ECT is the mean of the stochastic completion-time distribution —
    equivalently the core's expected ready time plus the candidate's
    expected execution time.  Unfiltered, MECT always prefers P0 (faster
    execution strictly reduces ECT on the same core), which is why it
    needs the energy filter to conserve anything (Section VII).
    """

    name = "MECT"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the minimum expected-completion-time candidate."""
        return argmin_lexicographic(cands.mask, cands.feasible_ect())
