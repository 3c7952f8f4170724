"""Tests for figure definitions (repro.experiments.figures)."""

from __future__ import annotations

import re

import pytest

from repro.experiments.figures import (
    FIGURES,
    PAPER_MEDIANS,
    canonical_pattern,
    expand_specs,
    figure_specs,
)
from repro.experiments.runner import VariantSpec, run_ensemble
from repro.filters.chain import VARIANTS
from repro.heuristics.registry import HEURISTICS
from tests.conftest import tiny_config


class TestDefinitions:
    def test_all_paper_figures_present(self):
        assert set(FIGURES) == {"fig2", "fig3", "fig4", "fig5", "fig6"}

    def test_figure_heuristics(self):
        assert FIGURES["fig2"] == ("SQ/*",)
        assert FIGURES["fig3"] == ("MECT/*",)
        assert FIGURES["fig4"] == ("LL/*",)
        assert FIGURES["fig5"] == ("Random/*",)
        assert FIGURES["fig6"] == ("*/*",)
        assert {s.heuristic for s in figure_specs("fig6")} == {"SQ", "MECT", "LL", "Random"}

    def test_figure_specs_cover_variants(self):
        specs = figure_specs("fig2")
        assert len(specs) == 4
        assert {s.variant for s in specs} == {"none", "en", "rob", "en+rob"}

    def test_fig6_needs_full_grid(self):
        assert len(figure_specs("fig6")) == 16

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            figure_specs("fig9")

    def test_full_grid(self):
        specs = expand_specs(["*/*"])
        assert specs == tuple(VariantSpec(h, v) for h in HEURISTICS for v in VARIANTS)
        assert specs == figure_specs("fig6")
        assert len(set(specs)) == 16

    def test_paper_medians_reference_values(self):
        # The headline numbers from Section VII.
        assert PAPER_MEDIANS[("Random", "none")] == 561.5
        assert PAPER_MEDIANS[("LL", "en+rob")] == 226.0
        assert PAPER_MEDIANS[("SQ", "none")] == 375.5
        assert PAPER_MEDIANS[("MECT", "none")] == 370.0

    def test_paper_medians_cover_grid(self):
        assert set(PAPER_MEDIANS) == {
            (h, v)
            for h in ("SQ", "MECT", "LL", "Random")
            for v in ("none", "en", "rob", "en+rob")
        }


class TestRunFigure:
    def test_run_small_figure(self):
        ensemble = run_ensemble(figure_specs("fig2"), tiny_config(), num_trials=2, base_seed=1)
        assert ensemble.num_trials == 2
        assert VariantSpec("SQ", "none") in ensemble.results
        assert len(ensemble.specs) == 4


class TestExpandSpecs:
    def test_heuristic_major_order_across_patterns(self):
        specs = expand_specs(["Random/none", "*/en+rob", "LL/rob"])
        assert [s.label for s in specs] == [
            "Random/none",
            "SQ/en+rob", "MECT/en+rob", "LL/en+rob", "Random/en+rob",
            "LL/rob",
        ]
        assert [s.label for s in expand_specs(["MECT/*"])] == [
            "MECT/none", "MECT/en", "MECT/rob", "MECT/en+rob",
        ]

    def test_names_fold_to_one_spelling(self):
        assert expand_specs(["random/NONE", " ll / EN+ROB "]) == (
            VariantSpec("Random", "none"),
            VariantSpec("LL", "en+rob"),
        )
        assert canonical_pattern("mect/*") == "MECT/*"
        assert canonical_pattern("*/Rob") == "*/rob"
        # A registered non-paper heuristic is a cell too; '*' is the paper's four.
        assert expand_specs(["met/none"]) == (VariantSpec("MET", "none"),)

    @pytest.mark.parametrize(
        "patterns, match",
        [
            (["LL/*", "LL/none"], "LL/none is named twice"),
            (["*/*", "sq/EN"], "SQ/en is named twice"),
            (["LLL/none"], "unknown heuristic 'LLL'; did you mean 'LL'"),
            (["LL/en+rbo"], "unknown filter 'rbo'; did you mean 'rob'"),
            (["LL"], "spec must look like 'LL/en+rob'"),
        ],
    )
    def test_refuses_duplicates_and_unknown_names(self, patterns, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            expand_specs(patterns)
