"""The paper's figures as named experiment definitions.

Figures 2-5 each show one heuristic across the four filter variants;
Figure 6 shows the best variant of each heuristic.  ``PAPER_MEDIANS``
records the medians the paper states in Section VII, for side-by-side
reporting (shape comparison, not absolute-number matching — our substrate
re-samples its own cluster).
"""

from __future__ import annotations

from repro.experiments.runner import VariantSpec
from repro.filters.chain import VARIANTS
from repro.heuristics.registry import HEURISTICS

__all__ = ["FIGURES", "PAPER_MEDIANS", "figure_specs", "full_grid_specs"]

#: Figure id -> heuristic shown (fig6 covers all four).
FIGURES: dict[str, tuple[str, ...]] = {
    "fig2": ("SQ",),
    "fig3": ("MECT",),
    "fig4": ("LL",),
    "fig5": ("Random",),
    "fig6": HEURISTICS,
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


def figure_specs(figure: str) -> tuple[VariantSpec, ...]:
    """The variant grid a figure requires.

    Figures 2-5: one heuristic x all four variants.  Figure 6 needs the
    *best* variant of each heuristic, which is only known after running
    the full grid, so it returns all sixteen specs.
    """
    try:
        heuristics = FIGURES[figure]
    except KeyError:
        raise KeyError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}") from None
    return tuple(
        VariantSpec(heuristic=h, variant=v) for h in heuristics for v in VARIANTS
    )


def full_grid_specs() -> tuple[VariantSpec, ...]:
    """All sixteen (heuristic, variant) cells of the evaluation."""
    return tuple(
        VariantSpec(heuristic=h, variant=v) for h in HEURISTICS for v in VARIANTS
    )
