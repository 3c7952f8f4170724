"""Tests for report rendering (repro.experiments.report)."""

from __future__ import annotations

import pytest

from repro.experiments.report import best_variant_table, figure_table, summary_table
from repro.experiments.executor import TrialFailure
from repro.experiments.runner import PartialEnsembleResult, run_ensemble
from repro.experiments.figures import figure_specs
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def grid_ensemble():
    return run_ensemble(figure_specs("fig6"), tiny_config(), num_trials=2, base_seed=3)


@pytest.fixture(scope="module")
def sq_ensemble():
    return run_ensemble(figure_specs("fig2"), tiny_config(), num_trials=2, base_seed=3)


class TestFigureTable:
    def test_contains_all_variants(self, sq_ensemble):
        text = figure_table(sq_ensemble, "SQ", num_tasks=60)
        for variant in ("none", "en", "rob", "en+rob"):
            assert variant in text

    def test_contains_paper_reference(self, sq_ensemble):
        text = figure_table(sq_ensemble, "SQ", num_tasks=60)
        assert "375.5" in text  # paper median for SQ/none

    def test_skips_missing_heuristic(self, sq_ensemble):
        text = figure_table(sq_ensemble, "LL", num_tasks=60)
        # Header only, no variant rows.
        assert "none" not in text.splitlines()[-1] or len(text.splitlines()) == 2


class TestBestVariantTable:
    def test_lists_every_heuristic(self, grid_ensemble):
        text = best_variant_table(grid_ensemble, num_tasks=60)
        for heuristic in ("SQ", "MECT", "LL", "Random"):
            assert heuristic in text

    def test_shows_gain_column(self, grid_ensemble):
        assert "vs none" in best_variant_table(grid_ensemble, num_tasks=60)


class TestSummaryTable:
    def test_structure(self, grid_ensemble):
        text = summary_table(grid_ensemble, num_tasks=60)
        assert "Filtering summary" in text
        assert "Random" in text

    def test_random_vs_best_line(self, grid_ensemble):
        text = summary_table(grid_ensemble, num_tasks=60)
        assert "filtered Random vs best filtered heuristic" in text


def _as_partial(ensemble, num_trials):
    """Reframe a complete ensemble as a partial one missing the tail trials."""
    return PartialEnsembleResult(
        specs=ensemble.specs,
        num_trials=num_trials,
        base_seed=ensemble.base_seed,
        results=ensemble.results,
        completed_trials=tuple(range(ensemble.num_trials)),
        failures=(
            TrialFailure(
                trial=ensemble.num_trials, attempts=3, fault="crash", detail="died"
            ),
        ),
    )


class TestPartialAnnotation:
    def test_figure_table_notes_missing_trials(self, sq_ensemble):
        text = figure_table(_as_partial(sq_ensemble, 3), "SQ", num_tasks=60)
        assert "NOTE: medians computed over 2/3 trials" in text
        assert "missing trials: 2" in text

    def test_best_variant_table_notes_missing_trials(self, grid_ensemble):
        text = best_variant_table(_as_partial(grid_ensemble, 3), num_tasks=60)
        assert "NOTE: medians computed over 2/3 trials" in text

    def test_summary_table_notes_missing_trials(self, grid_ensemble):
        text = summary_table(_as_partial(grid_ensemble, 3), num_tasks=60)
        assert "NOTE: medians computed over 2/3 trials" in text

    def test_complete_ensemble_has_no_note(self, sq_ensemble):
        assert "NOTE:" not in figure_table(sq_ensemble, "SQ", num_tasks=60)

    def test_figure_table_with_zero_completed_trials(self, sq_ensemble):
        empty = PartialEnsembleResult(
            specs=sq_ensemble.specs,
            num_trials=2,
            base_seed=sq_ensemble.base_seed,
            results={spec: () for spec in sq_ensemble.specs},
            completed_trials=(),
            failures=(),
        )
        text = figure_table(empty, "SQ", num_tasks=60)
        assert "(no completed trials)" in text
