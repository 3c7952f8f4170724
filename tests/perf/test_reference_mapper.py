"""The reference oracle's all-P-state rho matches its per-P-state form."""

from __future__ import annotations

import numpy as np

from repro.robustness.completion import prob_on_time
from repro.stoch.pmf import PMF
from tests.reference_mapper import prob_on_time_all_pstates


class TestAllPStatesMatrix:
    def test_matches_per_pstate_calls(self):
        rng = np.random.default_rng(0)
        ready = PMF(3.0, 1.0, rng.random(12))
        pmfs = [
            PMF(5.0 + pi, 1.0, rng.random(4 + pi))
            for pi in range(4)
        ]
        L = max(len(p) for p in pmfs)
        times = np.zeros((4, L))
        probs = np.zeros((4, L))
        for pi, p in enumerate(pmfs):
            times[pi, : len(p)] = p.times
            times[pi, len(p) :] = p.stop
            probs[pi, : len(p)] = p.probs
        deadline = 14.0
        out = prob_on_time_all_pstates(ready, times, probs, deadline)
        expected = np.array([prob_on_time(ready, p, deadline) for p in pmfs])
        assert np.allclose(out, expected, atol=1e-12)

    def test_monotone_in_deadline(self):
        rng = np.random.default_rng(1)
        ready = PMF(0.0, 1.0, rng.random(10))
        times = np.tile(np.arange(5.0, 11.0), (2, 1))
        probs = np.tile(np.full(6, 1 / 6), (2, 1))
        vals = [
            prob_on_time_all_pstates(ready, times, probs, d)[0] for d in np.linspace(0, 30, 15)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
