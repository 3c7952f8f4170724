"""Tests for heuristic machinery (repro.heuristics.base)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.heuristics.base import (
    Assignment,
    CandidateSet,
    MappingContext,
    argmin_lexicographic,
)
from repro.workload.task import Task


def make_cands(**overrides) -> CandidateSet:
    n = 6
    base = dict(
        core_ids=np.array([0, 0, 1, 1, 2, 2]),
        pstates=np.array([0, 1, 0, 1, 0, 1]),
        queue_len=np.array([2, 2, 0, 0, 1, 1]),
        eet=np.array([10.0, 14.0, 11.0, 15.0, 9.0, 13.0]),
        eec=np.array([5.0, 3.0, 6.0, 4.0, 5.5, 3.5]),
        ect=np.array([30.0, 34.0, 11.0, 15.0, 20.0, 24.0]),
        prob_on_time=np.array([0.9, 0.7, 0.95, 0.85, 0.6, 0.4]),
    )
    base.update(overrides)
    return CandidateSet(**base)


def ctx() -> MappingContext:
    return MappingContext(
        t_now=0.0,
        task=Task(0, 0, 0.0, 100.0),
        energy_estimate=1000.0,
        tasks_left=10,
        avg_queue_depth=0.5,
    )


class TestCandidateSet:
    def test_default_mask_all_true(self):
        cands = make_cands()
        assert cands.mask.all()
        assert cands.num_feasible == 6

    def test_len(self):
        assert len(make_cands()) == 6

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            make_cands(eet=np.array([1.0]))

    def test_columns_come_from_arrays_or_a_source(self):
        with pytest.raises(TypeError):
            make_cands(ect=None)
        cands = make_cands()
        assert cands.feasible_ect() is cands.ect
        assert cands.feasible_rho() is cands.prob_on_time
        assert cands.rho_at(2) == 0.95

    def test_misaligned_mask_rejected(self):
        with pytest.raises(ValueError):
            make_cands(mask=np.ones(3, dtype=bool))

    def test_assignment_translation(self):
        cands = make_cands()
        assert cands.assignment(3) == Assignment(core_id=1, pstate=1)

    def test_num_feasible_tracks_mask(self):
        cands = make_cands()
        cands.mask[:4] = False
        assert cands.num_feasible == 2


class TestArgminLexicographic:
    def test_simple_min(self):
        vals = np.array([3.0, 1.0, 2.0])
        assert argmin_lexicographic(np.ones(3, dtype=bool), vals) == 1

    def test_respects_mask(self):
        vals = np.array([3.0, 1.0, 2.0])
        mask = np.array([True, False, True])
        assert argmin_lexicographic(mask, vals) == 2

    def test_none_when_all_masked(self):
        assert argmin_lexicographic(np.zeros(3, dtype=bool), np.ones(3)) is None

    def test_tie_break_by_secondary(self):
        primary = np.array([1.0, 1.0, 2.0])
        secondary = np.array([9.0, 3.0, 0.0])
        assert argmin_lexicographic(np.ones(3, dtype=bool), primary, secondary) == 1

    def test_double_tie_takes_lowest_index(self):
        primary = np.array([1.0, 1.0])
        secondary = np.array([2.0, 2.0])
        assert argmin_lexicographic(np.ones(2, dtype=bool), primary, secondary) == 0

    def test_no_secondary_takes_lowest_index(self):
        primary = np.array([1.0, 1.0])
        assert argmin_lexicographic(np.ones(2, dtype=bool), primary) == 0

    def test_secondary_limited_to_primary_ties(self):
        primary = np.array([1.0, 2.0])
        secondary = np.array([9.0, 0.0])
        # Index 1 has better secondary but worse primary: primary wins.
        assert argmin_lexicographic(np.ones(2, dtype=bool), primary, secondary) == 0
