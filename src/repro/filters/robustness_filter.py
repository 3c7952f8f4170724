"""The robustness filter (paper Section V-F).

Eliminates potential assignments whose probability of completing the task
by its deadline — ``rho(i, j, k, pi, t_l, z)``, the marginal contribution
to the expected number of on-time completions — falls below a threshold
``rho_thresh`` (0.5 in the paper, "empirically determined ... without
restricting a heuristic to only high-performance P-state assignments").
"""

from __future__ import annotations

from repro.config import FilterConfig
from repro.filters.base import AssignmentFilter
from repro.heuristics.base import CandidateSet, MappingContext

__all__ = ["RobustnessFilter"]


class RobustnessFilter(AssignmentFilter):
    """Reject assignments with ``rho < rho_thresh``."""

    label = "rob"

    def __init__(self, config: FilterConfig | None = None) -> None:
        self._config = config if config is not None else FilterConfig()

    @property
    def threshold(self) -> float:
        """The probability threshold in force."""
        return self._config.rho_thresh

    def apply(self, cands: CandidateSet, ctx: MappingContext) -> None:
        """Clear candidates whose on-time probability is below threshold."""
        cands.mask &= cands.feasible_rho() >= self._config.rho_thresh
