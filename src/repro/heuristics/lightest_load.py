"""The Lightest Load (LL) heuristic — the paper's new heuristic (Section V-D).

LL defines a *load* for every potential assignment (Eq. 5)::

    L(i, j, k, pi, t_l) = EEC(i, j, k, pi, z) * (1 - rho(i, j, k, pi, t_l, z))

and maps the task to the feasible assignment of minimum load, balancing
expected energy consumption against the probability of missing the
deadline (inverse robustness).  Inspired by [BaM09].
"""

from __future__ import annotations

from repro.heuristics.base import CandidateSet, Heuristic, MappingContext, argmin_lexicographic

__all__ = ["LightestLoad"]


class LightestLoad(Heuristic):
    """Minimize ``EEC * (1 - rho)`` over feasible assignments."""

    name = "LL"

    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick the minimum-load candidate per Eq. 5."""
        load = cands.eec * (1.0 - cands.feasible_rho())
        return argmin_lexicographic(cands.mask, load)
