"""Microbenchmarks: the pmf operations on the mapper's hot path.

Section IV-B notes that "convolutions can take considerable time, but the
overhead can be negligible if ... the performance gained justifies their
usage"; these benches measure that overhead for realistic operand sizes
(an execution-time pmf is ~50-150 bins at the default grid).
"""

from __future__ import annotations

import numpy as np

from repro.stoch.distributions import discretized_gamma
from repro.stoch.ops import convolve, prob_sum_at_most, truncate_below, shift
from repro.stoch.pmf import PMF

EXEC = discretized_gamma(mean=750.0, cv=0.2, dt=15.0)
LONG_EXEC = discretized_gamma(mean=1800.0, cv=0.2, dt=15.0)
READY = convolve(convolve(EXEC, EXEC), LONG_EXEC)  # a 3-deep queue


def test_convolve_exec_pair(benchmark):
    out = benchmark(convolve, EXEC, LONG_EXEC)
    assert abs(out.mean() - (EXEC.mean() + LONG_EXEC.mean())) < 1.0


def test_convolve_into_deep_queue(benchmark):
    out = benchmark(convolve, READY, EXEC)
    assert abs(out.total_mass() - 1.0) < 1e-9


def test_truncate_running_task(benchmark):
    shifted = shift(EXEC, 100.0)
    cut = shifted.start + 0.4 * (shifted.stop - shifted.start)
    out = benchmark(truncate_below, shifted, cut)
    assert abs(out.total_mass() - 1.0) < 1e-9


def test_prob_on_time_query(benchmark):
    deadline = READY.mean() + EXEC.mean()
    p = benchmark(prob_sum_at_most, READY, EXEC, deadline)
    assert 0.0 <= p <= 1.0


def test_cdf_query(benchmark):
    t = READY.mean()
    p = benchmark(READY.prob_at_most, t)
    assert 0.0 <= p <= 1.0


def test_quantile_sampling(benchmark):
    out = benchmark(EXEC.quantile, 0.73)
    assert EXEC.start <= out <= EXEC.stop


def test_pmf_construction(benchmark):
    probs = np.random.default_rng(0).random(120)

    def build():
        return PMF(0.0, 15.0, probs)

    out = benchmark(build)
    assert len(out) == 120


def test_truncate_running_task_cached_hit(benchmark):
    # The hot-path case the kernel cache turns into a dict lookup: the
    # same (contents, cut-bin) truncation repeating across cores/tasks.
    from repro.perf.kernel_cache import KernelCache

    shifted = shift(EXEC, 100.0)
    cut = shifted.start + 0.4 * (shifted.stop - shifted.start)
    cache = KernelCache()
    truncate_below(shifted, cut, cache=cache)  # warm the entry
    out = benchmark(truncate_below, shifted, cut, cache=cache)
    assert abs(out.total_mass() - 1.0) < 1e-9
    assert cache.stats().hits >= 1
