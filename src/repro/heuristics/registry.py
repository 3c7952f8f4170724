"""Builtin heuristic plugins and name-based construction.

The paper's four heuristics and the four literature baselines of
:mod:`repro.heuristics.baselines` (MET, OLB, KPB, MEEC) register here
with :func:`repro.registry.register_heuristic`; anything else (a
third-party package's entry point, a study script's
``@register_heuristic``) joins the same namespace and becomes
constructible from the CLI and from scenario files without touching
this module.

Names resolve case-insensitively through the registry (``"MECT"``,
``"mect"`` and ``"Mect"`` all build the same heuristic); the canonical
spellings stay the paper's.  :data:`HEURISTICS` remains the static
four-name tuple of the paper's presentation order — figure and grid
code keys off it — while :func:`repro.registry.PluginRegistry.names`
on ``HEURISTIC_PLUGINS`` lists everything currently registered, the
paper's four first.
"""

from __future__ import annotations

import numpy as np

from repro.heuristics.base import Heuristic
from repro.heuristics.baselines import (
    KPercentBest,
    MinimumExecutionTime,
    MinimumExpectedEnergy,
    OpportunisticLoadBalancing,
)
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.random_heuristic import RandomAssignment
from repro.heuristics.shortest_queue import ShortestQueue
from repro.registry import HEURISTIC_PLUGINS, register_heuristic

__all__ = ["HEURISTICS", "build_heuristic"]

#: Canonical heuristic names in the paper's presentation order.
HEURISTICS: tuple[str, ...] = ("SQ", "MECT", "LL", "Random")


@register_heuristic("SQ", summary="Shortest Queue: fewest tasks queued on the core")
def _make_sq(rng: np.random.Generator | None = None) -> Heuristic:
    return ShortestQueue()


@register_heuristic(
    "MECT", summary="Minimum Expected Completion Time over feasible assignments"
)
def _make_mect(rng: np.random.Generator | None = None) -> Heuristic:
    return MinimumExpectedCompletionTime()


@register_heuristic(
    "LL", summary="Lightest Load: least expected queued work (the paper's heuristic)"
)
def _make_ll(rng: np.random.Generator | None = None) -> Heuristic:
    return LightestLoad()


@register_heuristic("Random", summary="Uniformly random feasible assignment")
def _make_random(rng: np.random.Generator | None = None) -> Heuristic:
    if rng is None:
        raise ValueError("the Random heuristic needs an rng")
    return RandomAssignment(rng)


@register_heuristic("MET", summary="Minimum Execution Time: fastest assignment, load-blind")
def _make_met(rng: np.random.Generator | None = None) -> Heuristic:
    return MinimumExecutionTime()


@register_heuristic(
    "OLB", summary="Opportunistic Load Balancing: earliest-ready core, cheapest P-state"
)
def _make_olb(rng: np.random.Generator | None = None) -> Heuristic:
    return OpportunisticLoadBalancing()


@register_heuristic("KPB", summary="K-Percent Best: minimum ECT among the 20% best EETs")
def _make_kpb(rng: np.random.Generator | None = None) -> Heuristic:
    return KPercentBest()


@register_heuristic(
    "MEEC", summary="Minimum Expected Energy Consumption: cheapest assignment, deadline-blind"
)
def _make_meec(rng: np.random.Generator | None = None) -> Heuristic:
    return MinimumExpectedEnergy()


def build_heuristic(name: str, rng: np.random.Generator | None = None) -> Heuristic:
    """Instantiate a heuristic by registered name (case-insensitive).

    ``rng`` is passed to the plugin factory; the builtin deterministic
    heuristics ignore it and "Random" requires it.  Unknown names raise
    :class:`~repro.registry.UnknownPluginError` (a ``KeyError``) with a
    did-you-mean suggestion.
    """
    return HEURISTIC_PLUGINS.create(name, rng)
