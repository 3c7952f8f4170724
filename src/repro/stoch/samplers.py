"""Drawing i.i.d. realizations from pmfs by inverse-CDF sampling.

The simulator draws each task's *actual* execution time through
:meth:`~repro.stoch.pmf.PMF.quantile` on a per-task uniform fixed at
system build (``TrialSystem.exec_luck``), so paired variants see the
same luck.  These samplers draw fresh realizations instead; the Monte
Carlo checks of the Section IV completion-time and rho algebra use
them.
"""

from __future__ import annotations

import numpy as np

from repro.stoch.pmf import PMF

__all__ = ["sample_pmf", "sample_pmf_many"]


def sample_pmf(pmf: PMF, rng: np.random.Generator) -> float:
    """Draw one realization from ``pmf`` using inverse-CDF sampling."""
    u = rng.random()
    k = int(np.searchsorted(pmf.cdf, u, side="left"))
    k = min(k, pmf.probs.size - 1)
    return pmf.start + pmf.dt * k


def sample_pmf_many(pmf: PMF, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. realizations from ``pmf`` (vectorized)."""
    u = rng.random(size)
    ks = np.searchsorted(pmf.cdf, u, side="left")
    np.clip(ks, 0, pmf.probs.size - 1, out=ks)
    return pmf.start + pmf.dt * ks
