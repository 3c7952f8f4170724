"""Tests for figure definitions (repro.experiments.figures)."""

from __future__ import annotations

import pytest

from repro.experiments.figures import (
    FIGURES,
    PAPER_MEDIANS,
    figure_specs,
    full_grid_specs,
)
from repro.experiments.runner import VariantSpec, run_ensemble
from tests.conftest import tiny_config


class TestDefinitions:
    def test_all_paper_figures_present(self):
        assert set(FIGURES) == {"fig2", "fig3", "fig4", "fig5", "fig6"}

    def test_figure_heuristics(self):
        assert FIGURES["fig2"] == ("SQ",)
        assert FIGURES["fig3"] == ("MECT",)
        assert FIGURES["fig4"] == ("LL",)
        assert FIGURES["fig5"] == ("Random",)
        assert set(FIGURES["fig6"]) == {"SQ", "MECT", "LL", "Random"}

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
        specs = full_grid_specs()
        assert len(specs) == 16
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
