"""Discretized probability-mass-function algebra.

The paper models every task execution time as a random variable described
by a probability mass function (pmf).  Predicting completion times requires
convolving pmfs (sums of independent random variables), shifting them by
start times, truncating "past" impulses and renormalizing (Section IV-B),
and evaluating tail probabilities against deadlines.

This subpackage implements those operations on pmfs whose impulses live on
a *global regular grid* (fixed bin width ``dt``), which makes every
operation a dense-vector NumPy primitive:

* convolution  -> :func:`numpy.convolve`
* expectation  -> one dot product
* CDF queries  -> a cached cumulative sum + :func:`numpy.searchsorted`

Public API
----------
:class:`~repro.stoch.pmf.PMF`
    The pmf value type (immutable once built).
:mod:`~repro.stoch.ops`
    Free functions (``convolve``, ``shift``, ``truncate_below``, ...).
:mod:`~repro.stoch.distributions`
    Discretizers for the gamma execution-time law.
:mod:`~repro.stoch.samplers`
    Drawing actual realizations from pmfs.
"""

from repro.stoch.pmf import PMF
from repro.stoch.ops import (
    convolve,
    convolve_many,
    prob_sum_at_most,
    shift,
    truncate_below,
)
from repro.stoch.distributions import discretized_gamma
from repro.stoch.samplers import sample_pmf

__all__ = [
    "PMF",
    "convolve",
    "convolve_many",
    "prob_sum_at_most",
    "shift",
    "truncate_below",
    "discretized_gamma",
    "sample_pmf",
]
