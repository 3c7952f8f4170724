"""The paper's figures as named experiment definitions.

Figures 2-5 each show one heuristic across the four filter variants;
Figure 6 shows the best variant of each heuristic.  A figure is a list
of spec patterns (``"LL/*"``); :func:`expand_specs` turns patterns and
spec labels into grid cells everywhere, in one spelling.
``PAPER_MEDIANS`` records the medians the paper states in Section VII,
for side-by-side reporting (shape comparison, not absolute-number
matching — our substrate re-samples its own cluster).
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.runner import VariantSpec
from repro.filters.chain import VARIANTS, canonical_variant
from repro.heuristics.registry import HEURISTICS
from repro.registry import HEURISTIC_PLUGINS

__all__ = ["FIGURES", "PAPER_MEDIANS", "canonical_pattern", "expand_specs", "figure_specs"]

#: Figure id -> the spec patterns it runs (fig6 needs the full grid).
FIGURES: dict[str, tuple[str, ...]] = {
    "fig2": ("SQ/*",),
    "fig3": ("MECT/*",),
    "fig4": ("LL/*",),
    "fig5": ("Random/*",),
    "fig6": ("*/*",),
}

#: Median missed deadlines (out of 1,000) reported in Section VII.
#: ``None`` marks values the paper does not state explicitly.
PAPER_MEDIANS: dict[tuple[str, str], float | None] = {
    ("SQ", "none"): 375.5,
    ("SQ", "en"): None,
    ("SQ", "rob"): None,
    ("SQ", "en+rob"): 234.5,
    ("MECT", "none"): 370.0,
    ("MECT", "en"): None,
    ("MECT", "rob"): None,
    ("MECT", "en+rob"): 239.5,
    ("LL", "none"): 381.0,
    ("LL", "en"): None,
    ("LL", "rob"): None,
    ("LL", "en+rob"): 226.0,
    ("Random", "none"): 561.5,
    ("Random", "en"): 580.9,  # "worsens the median performance by 3.45%"
    ("Random", "rob"): 335.5,
    ("Random", "en+rob"): 266.0,
}


def canonical_pattern(label: str) -> str:
    """One spelling of a spec pattern: ``"ll/EN+ROB"`` -> ``"LL/en+rob"``.

    Each side of the ``/`` is ``*`` or a registered name in any case;
    anything else raises ``ValueError`` (did-you-mean for a near miss).
    """
    heuristic, sep, variant = (part.strip() for part in label.partition("/"))
    if not sep:
        raise ValueError(f"spec must look like 'LL/en+rob', got {label!r}")
    try:
        if heuristic != "*":
            heuristic = HEURISTIC_PLUGINS.canonical(heuristic)
        if variant != "*":
            variant = canonical_variant(variant)
    except KeyError as exc:  # UnknownPluginError or a malformed variant
        raise ValueError(exc.args[0]) from None
    return f"{heuristic}/{variant}"


def expand_specs(patterns: Iterable[str]) -> tuple[VariantSpec, ...]:
    """The grid cells some spec patterns name, in order, heuristic-major.

    ``*`` stands for the paper's four heuristics (left of the ``/``) or
    four filter variants (right): ``["*/*"]`` is the full grid,
    ``["LL/*"]`` Figure 4.  Names are canonicalized (the label seeds the
    Random heuristic's stream); a cell named twice raises ``ValueError``.
    """
    specs: list[VariantSpec] = []
    for pattern in patterns:
        heuristic, _, variant = canonical_pattern(pattern).partition("/")
        for h in HEURISTICS if heuristic == "*" else (heuristic,):
            for v in VARIANTS if variant == "*" else (variant,):
                spec = VariantSpec(h, v)
                if spec in specs:
                    raise ValueError(f"spec {spec.label} is named twice ({pattern!r})")
                specs.append(spec)
    return tuple(specs)


def figure_specs(figure: str) -> tuple[VariantSpec, ...]:
    """The variant grid a figure requires.

    Figures 2-5: one heuristic x all four variants.  Figure 6 needs the
    *best* variant of each heuristic, which is only known after running
    the full grid, so it returns all sixteen specs.
    """
    try:
        patterns = FIGURES[figure]
    except KeyError:
        raise KeyError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}") from None
    return expand_specs(patterns)
