"""Generic assignment filters (paper Section V-F).

Filters restrict the set of feasible assignments *before* the heuristic
chooses, adding energy-awareness and/or robustness-awareness to any
heuristic.  A filter may eliminate every assignment, in which case the
task is discarded (it counts as a missed deadline).

* :class:`~repro.filters.energy_filter.EnergyFilter` removes assignments
  whose expected energy consumption exceeds a "fair share" of the
  remaining budget, with a queue-depth-adaptive multiplier.
* :class:`~repro.filters.robustness_filter.RobustnessFilter` removes
  assignments whose probability of completing the task on time is below a
  threshold (0.5 in the paper).
* :class:`~repro.filters.chain.FilterChain` composes filters and parses
  the paper's variant labels ("none", "en", "rob", "en+rob").
"""

from repro.filters.base import AssignmentFilter
from repro.filters.energy_filter import EnergyFilter
from repro.filters.robustness_filter import RobustnessFilter
from repro.filters.chain import (
    FilterChain,
    VARIANTS,
    build_filter_chain,
    canonical_variant,
)

__all__ = [
    "AssignmentFilter",
    "EnergyFilter",
    "RobustnessFilter",
    "FilterChain",
    "VARIANTS",
    "build_filter_chain",
    "canonical_variant",
]
