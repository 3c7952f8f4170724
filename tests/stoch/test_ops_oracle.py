"""Bitwise oracles for the validation-free finalizers of ``stoch.ops``.

``convolve`` finalizes through ``PMF._from_raw`` and the materializing
branch of ``truncate_below`` through ``PMF._intern``; both skip the
validating constructor because their inputs are valid by construction.
These properties pin them to the validating spelling, bit for bit:
``convolve(a, b)`` is ``PMF(a.start + b.start, dt, np.convolve(...)).compact()``
and a truncation at bin ``k`` is ``PMF(start + k * dt, dt, probs[k:])``,
with or without a kernel cache (miss, then hit).
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.perf.kernel_cache import KernelCache
from repro.stoch.ops import convolve, truncate_below
from repro.stoch.pmf import PMF


@st.composite
def pmfs(draw, dt=None):
    n = draw(st.integers(min_value=2, max_value=40))
    probs = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=n,
            max_size=n,
        ).filter(lambda xs: sum(xs) > 1e-6)
    )
    start = draw(st.floats(min_value=-500.0, max_value=500.0))
    if dt is None:
        dt = draw(st.sampled_from([0.5, 1.0, 15.0]))
    return PMF(start, dt, np.asarray(probs, dtype=np.float64))


def _assert_bitwise(got: PMF, want: PMF) -> None:
    assert got.start == want.start
    assert got.dt == want.dt
    assert got.probs.tobytes() == want.probs.tobytes()
    assert not got.probs.flags.writeable


@given(st.sampled_from([0.5, 1.0, 15.0]).flatmap(lambda dt: st.tuples(pmfs(dt), pmfs(dt))))
def test_convolve_matches_validating_constructor(pair):
    a, b = pair
    want = PMF(a.start + b.start, a.dt, np.convolve(a.probs, b.probs)).compact()
    _assert_bitwise(convolve(a, b), want)


@given(pmfs(), st.floats(min_value=-0.1, max_value=1.2))
def test_truncate_below_matches_validating_constructor(pmf, frac):
    t = pmf.start + frac * (pmf.probs.size * pmf.dt)
    k = math.ceil((t - pmf.start) / pmf.dt - 1e-9)
    tail = pmf.probs[k:] if k > 0 else pmf.probs
    if t <= pmf.start or k <= 0:
        want = pmf
    elif k >= pmf.probs.size or tail.sum() <= 0.0:
        want = PMF.delta(t, pmf.dt)
    else:
        want = PMF(pmf.start + k * pmf.dt, pmf.dt, tail)
    cache = KernelCache()
    for got in (
        truncate_below(pmf, t),
        truncate_below(pmf, t, cache=cache),  # miss
        truncate_below(pmf, t, cache=cache),  # hit, when interned
    ):
        _assert_bitwise(got, want)
