"""Paired statistical comparison of variants.

The ensemble design is *paired*: every variant sees the same workload and
cluster within a trial, so differences should be tested per-trial, not by
comparing marginal distributions.  :func:`compare_variants` runs the
Wilcoxon signed-rank test (with a sign-test fallback for tiny or
degenerate samples) on per-trial miss differences — the statistically
sound version of the paper's "X improves on Y by Z%" statements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import EnsembleResult, VariantSpec

__all__ = ["PairedComparison", "compare_variants"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired comparison between two specs.

    ``diffs`` holds per-trial ``misses(a) - misses(b)``; positive means
    ``b`` missed fewer (is better).  ``p_value`` is two-sided.
    """

    a: VariantSpec
    b: VariantSpec
    n: int
    median_a: float
    median_b: float
    mean_diff: float
    wins_b: int
    losses_b: int
    ties: int
    p_value: float
    method: str

    @property
    def b_is_better(self) -> bool:
        """Whether ``b`` has the lower median miss count."""
        return self.median_b < self.median_a

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the paired difference is significant at ``alpha``."""
        return self.p_value < alpha

    def __str__(self) -> str:
        return (
            f"{self.b.label} vs {self.a.label}: med {self.median_b:g} vs "
            f"{self.median_a:g}, wins {self.wins_b}/{self.n}, "
            f"p={self.p_value:.4f} ({self.method})"
        )


def compare_variants(
    ensemble: EnsembleResult, a: VariantSpec, b: VariantSpec
) -> PairedComparison:
    """Paired test of ``b`` against ``a`` over an ensemble's trials."""
    # Imported here, not at module level: scipy.stats costs most of a
    # second to import and nothing else on the import path needs it.
    from scipy import stats

    misses_a = ensemble.misses(a).astype(np.float64)
    misses_b = ensemble.misses(b).astype(np.float64)
    if misses_a.shape != misses_b.shape:
        raise ValueError("specs were not run over the same trials")
    diffs = misses_a - misses_b
    nonzero = diffs[diffs != 0.0]
    wins_b = int(np.sum(diffs > 0))
    losses_b = int(np.sum(diffs < 0))
    ties = int(np.sum(diffs == 0))

    if nonzero.size == 0:
        p_value, method = 1.0, "all-ties"
    elif nonzero.size < 5 or np.all(nonzero == nonzero[0]):
        # Wilcoxon is unreliable (or degenerate) here; use the sign test.
        p_value = float(
            stats.binomtest(wins_b, wins_b + losses_b, p=0.5).pvalue
        )
        method = "sign-test"
    else:
        res = stats.wilcoxon(nonzero)
        p_value, method = float(res.pvalue), "wilcoxon"

    return PairedComparison(
        a=a,
        b=b,
        n=int(diffs.size),
        median_a=float(np.median(misses_a)),
        median_b=float(np.median(misses_b)),
        mean_diff=float(diffs.mean()),
        wins_b=wins_b,
        losses_b=losses_b,
        ties=ties,
        p_value=p_value,
        method=method,
    )
