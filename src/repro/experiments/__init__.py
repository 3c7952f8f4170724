"""Experiment harness: ensembles, figures, statistics, reports.

The paper's evaluation is 50 simulation trials of every (heuristic,
filter-variant) pair, summarized as box-and-whisker plots of missed
deadlines (Figures 2-6) plus in-text median improvements.  This package
reruns that grid:

* :mod:`~repro.experiments.runner` executes ensembles with paired trial
  seeds (every variant sees the same cluster/workload within a trial),
  optionally across processes;
* :mod:`~repro.experiments.executor` supervises that fan-out: per-trial
  timeouts, deterministic retries, poison-trial quarantine, and JSONL
  trial checkpoints with digest-verified resume;
* :mod:`~repro.experiments.chaos` injects deterministic faults
  (crash/hang/corrupt/error) so the recovery paths are testable;
* :mod:`~repro.experiments.figures` names the paper's figures and maps
  them to variant grids;
* :mod:`~repro.experiments.stats` computes box-plot statistics;
* :mod:`~repro.experiments.report` renders the tables recorded in
  ``EXPERIMENTS.md``, side by side with the paper's published medians.
"""

from repro.experiments.chaos import FaultPlan, parse_fault_plan
from repro.experiments.executor import (
    CheckpointWriter,
    RetryPolicy,
    TrialFailure,
    load_checkpoint,
    run_supervised,
)
from repro.experiments.runner import (
    EnsembleResult,
    PartialEnsembleResult,
    VariantSpec,
    run_ensemble,
)
from repro.experiments.figures import (
    FIGURES,
    PAPER_MEDIANS,
    figure_specs,
    run_figure,
)
from repro.experiments.stats import (
    BoxStats,
    box_stats,
    completeness_note,
    median_improvement,
)
from repro.experiments.compare import PairedComparison, compare_variants
from repro.experiments.sweep import SweepResult, budget_sweep, run_sweep
from repro.experiments.report import figure_table, summary_table

__all__ = [
    "EnsembleResult",
    "PartialEnsembleResult",
    "VariantSpec",
    "run_ensemble",
    "FaultPlan",
    "parse_fault_plan",
    "CheckpointWriter",
    "RetryPolicy",
    "TrialFailure",
    "load_checkpoint",
    "run_supervised",
    "completeness_note",
    "FIGURES",
    "PAPER_MEDIANS",
    "figure_specs",
    "run_figure",
    "BoxStats",
    "box_stats",
    "median_improvement",
    "PairedComparison",
    "compare_variants",
    "SweepResult",
    "budget_sweep",
    "run_sweep",
    "figure_table",
    "summary_table",
]
