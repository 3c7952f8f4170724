"""Discretizers: continuous laws -> grid pmfs.

Execution-time distributions in the paper are "provided" pmfs; following
the companion papers of the same group we realize them as discretized
gamma laws (strictly positive support, right-skewed — the natural model
for execution times).  Each discretizer integrates the continuous density
over grid-aligned bins so the pmf mass matches the law's probability of
falling in each bin, then renormalizes the truncated tails away.

The CDF is the :mod:`scipy.special` ufunc that ``scipy.stats`` itself
evaluates (``gammainc`` for ``gamma.cdf``), called directly on the
scaled edges, so the masses are bitwise those of the ``scipy.stats``
form.  ``scipy.special`` is imported inside the discretizers: importing
this module loads no scipy.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.stoch.pmf import PMF

__all__ = ["discretized_gamma", "iter_discretized_gamma"]

#: Bin edges per ``gammainc`` call of :func:`iter_discretized_gamma`
#: (128 KB per float64 array).  Blocking bounds the batch's transient
#: memory; the pmfs are bitwise the same at any block size.
_BLOCK_EDGES = 16384


def _check_dt(dt: float) -> None:
    # PMF._from_raw skips PMF's validation: the masses are finite and
    # non-negative by construction, but the grid step is caller input.
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a positive finite float, got {dt}")


def _bin_edges(lo: float, hi: float, dt: float) -> np.ndarray:
    """Grid-aligned bin edges covering ``[lo, hi]`` (edges at multiples of dt)."""
    _check_dt(dt)
    first = math.floor(lo / dt)
    last = math.ceil(hi / dt)
    if last <= first:
        last = first + 1
    return dt * np.arange(first, last + 1)


def _from_masses(masses: np.ndarray, first_edge: float, dt: float) -> PMF:
    """Build a pmf from clipped bin masses; mass of bin i sits at its center.

    ``masses`` must be finite, non-negative and owned by the caller (it
    may become the pmf's array).  Equals
    ``PMF(first_edge + dt/2, dt, masses).compact()`` bit for bit.
    """
    if masses.sum() <= 0.0:
        # Degenerate law narrower than one bin: all mass in the bin
        # containing the midpoint of the range.
        masses = np.zeros(masses.size)
        masses[masses.size // 2] = 1.0
    return PMF._from_raw(first_edge + 0.5 * dt, dt, masses)


def _from_cdf(cdf_vals: np.ndarray, edges: np.ndarray, dt: float) -> PMF:
    """Build a pmf from CDF values at bin edges; mass of bin i sits at its center."""
    masses = np.diff(cdf_vals)
    masses = np.clip(masses, 0.0, None)
    return _from_masses(masses, float(edges[0]), dt)


def discretized_gamma(mean: float, cv: float, dt: float, *, tail_sigmas: float = 4.0) -> PMF:
    """Gamma law with the given mean and coefficient of variation.

    Shape ``k = 1/cv**2`` and scale ``theta = mean * cv**2`` give
    ``E = mean`` and ``std = cv * mean``.  The support is truncated to
    ``[max(0, mean - tail_sigmas*std), mean + tail_sigmas*std]`` before
    discretization onto the grid of step ``dt``.
    """
    if mean <= 0.0 or cv <= 0.0:
        raise ValueError("mean and cv must be positive")
    from scipy.special import gammainc

    shape = 1.0 / (cv * cv)
    scale = mean * cv * cv
    std = cv * mean
    lo = max(0.0, mean - tail_sigmas * std)
    hi = mean + tail_sigmas * std
    edges = _bin_edges(lo, hi, dt)
    cdf_vals = gammainc(shape, edges / scale)
    return _from_cdf(cdf_vals, edges, dt)


def iter_discretized_gamma(
    means: np.ndarray, cv: float, dt: float, *, tail_sigmas: float = 4.0
) -> Iterator[PMF]:
    """Batch form of :func:`discretized_gamma`: one pmf per entry of ``means``.

    All laws share ``cv`` (hence the gamma shape) and the grid, which is
    exactly the situation of the execution-time table — so the gamma CDF
    is evaluated over the concatenated bin edges of a block of
    consecutive laws (up to ``_BLOCK_EDGES`` edges, or one longer law)
    in one ``gammainc`` call instead of one round trip per law, and the
    transient arrays stay block-sized however many laws there are.
    Every arithmetic step (support bounds, edge indices, CDF, bin-mass
    differences, clipping, normalization) is the same elementwise
    expression the scalar path evaluates, so each yielded pmf is
    bitwise identical to ``discretized_gamma(means[i], ...)`` whatever
    the blocking; enforced by ``tests/stoch/test_distributions.py``.
    The pmfs are yielded as each block produces them, so a consumer that
    copies them elsewhere never holds more than a block's worth.  The
    arguments are validated on the first ``next``.
    """
    means = np.asarray(means, dtype=np.float64).ravel()
    if means.size == 0:
        return
    if cv <= 0.0 or not np.all(means > 0.0):
        raise ValueError("mean and cv must be positive")
    _check_dt(dt)
    from scipy.special import gammainc

    shape = 1.0 / (cv * cv)
    scales = means * cv * cv
    stds = cv * means
    los = np.maximum(0.0, means - tail_sigmas * stds)
    his = means + tail_sigmas * stds
    firsts = np.floor(los / dt).astype(np.int64)
    lasts = np.ceil(his / dt).astype(np.int64)
    np.maximum(lasts, firsts + 1, out=lasts)
    counts = lasts - firsts + 1  # bin edges per law
    offsets = np.zeros(means.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    lo = 0
    while lo < means.size:
        # Laws [lo, hi): as many as fit the block, and at least one.
        limit = offsets[lo] + _BLOCK_EDGES
        hi = max(lo + 1, int(offsets.searchsorted(limit, side="right")) - 1)
        block = offsets[lo : hi + 1] - offsets[lo]
        # Concatenated per-law edge indices: law i of the block occupies
        # ``[block[i], block[i+1])`` and its edge j is
        # ``dt * (firsts[i] + j)`` — the scalar path's ``dt * arange``
        # term by term.
        idx = np.arange(int(block[-1]), dtype=np.int64)
        idx -= np.repeat(block[:-1] - firsts[lo:hi], counts[lo:hi])
        edges = dt * idx
        cdf_vals = gammainc(shape, edges / np.repeat(scales[lo:hi], counts[lo:hi]))
        # Bin masses batched: within law i the first ``counts[i] - 1``
        # entries after its offset are exactly ``np.diff`` of its CDF
        # slice (the entry straddling two laws is never read).  Each law
        # gets a copy of its slice, so no pmf keeps a block array alive.
        masses = np.clip(cdf_vals[1:] - cdf_vals[:-1], 0.0, None)
        for i in range(hi - lo):
            o = int(block[i])
            n = int(block[i + 1]) - o
            yield _from_masses(masses[o : o + n - 1].copy(), float(edges[o]), dt)
        lo = hi
