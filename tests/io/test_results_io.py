"""Tests for result serialization (repro.io.results_io)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import api, build_trial_system
from repro.experiments.executor import TrialFailure
from repro.experiments.runner import (
    PartialEnsembleResult,
    VariantSpec,
    run_ensemble,
)
from repro.io.results_io import (
    ensemble_from_dict,
    ensemble_to_dict,
    load_json,
    save_json,
    trial_result_from_dict,
    trial_result_to_dict,
)
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def trial(tiny_system):
    return api.run_trial(
        api.Scenario("MECT", "en+rob"), system=tiny_system, keep_outcomes=True
    )


@pytest.fixture(scope="module")
def tight_trial():
    """``trial`` on half the energy budget, which discards tasks."""
    system = build_trial_system(tiny_config().with_updates(energy={"budget_mult": 0.5}))
    return api.run_trial(api.Scenario("MECT", "en+rob"), system=system, keep_outcomes=True)


@pytest.fixture(scope="module")
def ensemble():
    specs = (VariantSpec("SQ", "none"), VariantSpec("SQ", "en+rob"))
    return run_ensemble(specs, tiny_config(), num_trials=2, base_seed=8)


class TestTrialRoundTrip:
    def test_scalars_preserved(self, trial):
        rebuilt = trial_result_from_dict(trial_result_to_dict(trial))
        for field in (
            "heuristic",
            "variant",
            "seed",
            "missed",
            "discarded",
            "late",
            "energy_cutoff",
            "total_energy",
            "budget",
            "makespan",
        ):
            assert getattr(rebuilt, field) == getattr(trial, field)

    def test_outcomes_dropped_by_default(self, trial):
        rebuilt = trial_result_from_dict(trial_result_to_dict(trial))
        assert rebuilt.outcomes == ()

    def test_outcomes_preserved_on_request(self, trial):
        rebuilt = trial_result_from_dict(
            trial_result_to_dict(trial, keep_outcomes=True)
        )
        assert len(rebuilt.outcomes) == len(trial.outcomes)
        a, b = trial.outcomes[0], rebuilt.outcomes[0]
        assert (a.task_id, a.core_id, a.pstate) == (b.task_id, b.core_id, b.pstate)

    def test_infinity_survives_json(self, trial):
        data = trial_result_to_dict(trial)
        text = json.dumps(data)  # must not emit bare Infinity
        rebuilt = trial_result_from_dict(json.loads(text))
        if math.isinf(trial.exhaustion_time):
            assert math.isinf(rebuilt.exhaustion_time)
        else:
            assert rebuilt.exhaustion_time == pytest.approx(trial.exhaustion_time)

    def test_nan_outcome_fields_survive(self, tight_trial):
        data = trial_result_to_dict(tight_trial, keep_outcomes=True)
        discarded = [o for o in data["outcomes"] if o["discarded"]]
        assert discarded, "the tight budget discarded no task"
        rebuilt = trial_result_from_dict(json.loads(json.dumps(data)))
        d = [o for o in rebuilt.outcomes if o.discarded][0]
        assert math.isnan(d.start)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            trial_result_from_dict({"format": "x"})


class TestEnsembleRoundTrip:
    def test_identity(self, ensemble):
        rebuilt = ensemble_from_dict(ensemble_to_dict(ensemble))
        assert rebuilt.specs == ensemble.specs
        assert rebuilt.num_trials == ensemble.num_trials
        for spec in ensemble.specs:
            assert np.array_equal(rebuilt.misses(spec), ensemble.misses(spec))

    def test_json_serializable(self, ensemble):
        text = json.dumps(ensemble_to_dict(ensemble))
        rebuilt = ensemble_from_dict(json.loads(text))
        assert rebuilt.base_seed == ensemble.base_seed

    def test_report_functions_work_on_rebuilt(self, ensemble):
        from repro.experiments.report import figure_table

        rebuilt = ensemble_from_dict(ensemble_to_dict(ensemble))
        text = figure_table(rebuilt, "SQ", 60)
        assert "en+rob" in text

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            ensemble_from_dict({"format": "x"})


class TestFileHelpers:
    def test_save_and_load(self, tmp_path, ensemble):
        path = save_json(ensemble_to_dict(ensemble), tmp_path / "sub" / "e.json")
        assert path.exists()
        rebuilt = ensemble_from_dict(load_json(path))
        assert rebuilt.num_trials == ensemble.num_trials


class TestPartialEnsembleRoundTrip:
    @pytest.fixture(scope="class")
    def partial(self, ensemble):
        return PartialEnsembleResult(
            specs=ensemble.specs,
            num_trials=3,
            base_seed=ensemble.base_seed,
            results=ensemble.results,
            completed_trials=(0, 1),
            failures=(
                TrialFailure(trial=2, attempts=3, fault="timeout", detail="5.0s"),
            ),
        )

    def test_round_trip_preserves_partial_metadata(self, partial):
        rebuilt = ensemble_from_dict(ensemble_to_dict(partial))
        assert isinstance(rebuilt, PartialEnsembleResult)
        assert rebuilt.num_trials == 3
        assert rebuilt.completed_trials == (0, 1)
        assert rebuilt.missing_trials == (2,)
        assert rebuilt.failures == partial.failures
        for spec in partial.specs:
            assert rebuilt.results[spec] == partial.results[spec]

    def test_partial_section_is_json_serializable(self, partial):
        data = json.loads(json.dumps(ensemble_to_dict(partial)))
        assert data["partial"]["completed_trials"] == [0, 1]
        assert data["partial"]["failures"][0]["fault"] == "timeout"

    def test_complete_ensemble_has_no_partial_section(self, ensemble):
        assert "partial" not in ensemble_to_dict(ensemble)
        rebuilt = ensemble_from_dict(ensemble_to_dict(ensemble))
        assert not isinstance(rebuilt, PartialEnsembleResult)
