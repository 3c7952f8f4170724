"""Filter composition and the paper's variant labels.

The two paper filters register as plugins
(:func:`repro.registry.register_filter`); a variant label like
``"en+rob"`` is parsed into an ordered chain of registered filter
names, so a third-party filter registered as ``"prune"`` immediately
composes as ``"en+prune"`` in the CLI and in scenario files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.config import FilterConfig
from repro.filters.base import AssignmentFilter
from repro.filters.energy_filter import EnergyFilter
from repro.filters.robustness_filter import RobustnessFilter
from repro.heuristics.base import CandidateSet, MappingContext
from repro.registry import FILTER_PLUGINS, UnknownPluginError, register_filter

__all__ = [
    "FilterChain",
    "VARIANTS",
    "build_filter_chain",
    "canonical_variant",
]

#: The four filtering variants, in the order the paper's figures use.
VARIANTS: tuple[str, ...] = ("none", "en", "rob", "en+rob")


@register_filter("en", summary="Energy filter: fair-share EEC cap (paper §V-F)")
def _make_energy(config: FilterConfig) -> AssignmentFilter:
    return EnergyFilter(config)


@register_filter("rob", summary="Robustness filter: on-time probability floor")
def _make_robustness(config: FilterConfig) -> AssignmentFilter:
    return RobustnessFilter(config)


class FilterChain:
    """An ordered sequence of filters applied to every candidate set.

    Order is immaterial to the final mask (filters only intersect), but
    the chain applies them as given for deterministic tracing.
    """

    def __init__(self, filters: Iterable[AssignmentFilter] = ()) -> None:
        self._filters: tuple[AssignmentFilter, ...] = tuple(filters)

    @property
    def filters(self) -> Sequence[AssignmentFilter]:
        """The composed filters, in application order."""
        return self._filters

    @property
    def label(self) -> str:
        """Variant label ("none", "en", "rob" or "en+rob")."""
        if not self._filters:
            return "none"
        return "+".join(f.label for f in self._filters)

    def apply(self, cands: CandidateSet, ctx: MappingContext) -> None:
        """Run every filter over the candidate set."""
        for f in self._filters:
            f.apply(cands, ctx)

    def __len__(self) -> int:
        return len(self._filters)

    def __repr__(self) -> str:
        return f"FilterChain({self.label!r})"


def _variant_parts(variant: str) -> tuple[str, ...]:
    """Split a variant label into lower-cased, order-preserved filter names."""
    key = variant.strip().lower()
    if key == "none":
        return ()
    parts = tuple(part.strip() for part in key.split("+"))
    if not all(parts) or len(set(parts)) != len(parts):
        raise KeyError(f"bad filter variant {variant!r}")
    return parts


def canonical_variant(variant: str) -> str:
    """Normalize a variant label against the filter registry.

    ``"EN+ROB"`` -> ``"en+rob"``; order is preserved (``"rob+en"`` stays
    ``"rob+en"`` — chains intersect, so order only affects the label).
    Unknown parts raise :class:`~repro.registry.UnknownPluginError` with
    a did-you-mean suggestion.
    """
    parts = _variant_parts(variant)
    if not parts:
        return "none"
    return "+".join(FILTER_PLUGINS.canonical(part) for part in parts)


def build_filter_chain(variant: str, config: FilterConfig | None = None) -> FilterChain:
    """Build the chain for a variant label from registered filter plugins.

    Accepts "none" or any "+"-joined combination of registered filter
    names ("en", "rob", "en+rob", also "rob+en"), case-insensitive.
    """
    cfg = config if config is not None else FilterConfig()
    try:
        parts = _variant_parts(variant)
        return FilterChain(FILTER_PLUGINS.create(part, cfg) for part in parts)
    except UnknownPluginError as exc:
        raise UnknownPluginError(
            "filter", f"{exc.name} (in variant {variant!r})", FILTER_PLUGINS.names()
        ) from None
