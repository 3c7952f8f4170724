"""Validating the robustness measure's predictions (paper contribution (a)).

The paper's first contribution is "a model of robustness for this
environment" whose use in allocation decisions it validates.  The
scheduler-side aggregate — the sum over mapped tasks of the chosen
assignment's on-time probability rho — *predicts* the number of on-time
completions; here we check that prediction against the realized count on
real trials.

The prediction is made at mapping time with full knowledge of the queue
ahead of the task (nothing mapped later can delay it, FIFO cores), so it
should be unbiased up to pmf discretization.  It deliberately knows
nothing about the energy budget, so the comparison target is the raw
on-time count (before the energy cutoff).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import VariantSpec
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro import build_trial_system, rng as rng_mod
from repro.sim.engine import Engine
from repro.sim.metrics import TraceCollector
from tests.conftest import small_config

CASES = [
    VariantSpec("MECT", "none"),
    VariantSpec("LL", "en+rob"),
    VariantSpec("Random", "rob"),
]


def run_with_collector(seed: int, spec: VariantSpec):
    system = build_trial_system(small_config(seed=seed))
    collector = TraceCollector()
    heuristic = build_heuristic(
        spec.heuristic, rng_mod.stream(seed, "rho-val", spec.label)
    )
    result = Engine(
        system, heuristic, build_filter_chain(spec.variant), hooks=(collector,)
    ).run()
    on_time_actual = sum(1 for o in result.outcomes if o.on_time())
    return collector.predicted_on_time(), on_time_actual, result


class TestRhoPredictsOnTimeCompletions:
    @pytest.mark.parametrize("spec", CASES, ids=lambda s: s.label)
    def test_prediction_matches_realization(self, spec):
        predictions = []
        actuals = []
        for seed in (41, 42, 43):
            predicted, actual, result = run_with_collector(seed, spec)
            assert 0.0 <= predicted <= result.num_tasks + 1e-6
            predictions.append(predicted)
            actuals.append(actual)
        predicted_total = float(np.sum(predictions))
        actual_total = float(np.sum(actuals))
        # Within 5% of the workload across three pooled trials: the
        # robustness measure is a usable predictor, the paper's premise.
        tolerance = 0.05 * 3 * small_config().workload.num_tasks
        assert abs(predicted_total - actual_total) <= tolerance

    def test_prediction_tracks_policy_quality(self):
        # A policy with lower predicted robustness should realize fewer
        # on-time completions — predictions are comparable across
        # policies, which is what makes rho usable inside decisions.
        pred_good, actual_good, _ = run_with_collector(44, VariantSpec("MECT", "none"))
        pred_bad, actual_bad, _ = run_with_collector(44, VariantSpec("Random", "none"))
        assert pred_bad < pred_good
        assert actual_bad < actual_good
