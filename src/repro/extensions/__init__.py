"""Section VIII future-work features, implemented as optional extensions.

The paper closes with four directions:

* **varying task priorities** — :mod:`repro.extensions.priorities`
  (priority assignment, a priority-weighted LL variant, weighted
  scoring);
* **cancelling and/or rescheduling tasks** — not a module here:
  cancellation is the engine's dispatch floor, ``[shedding]
  dispatch_prob`` (:class:`repro.faults.SheddingConfig`), which drops a
  queued task whose on-time probability has fallen below it when its
  core frees up.  Work stealing between cores was measured and removed
  (it missed more tasks, not fewer; EXPERIMENTS.md);
* **a variety of arrival rates and patterns** — not a module here: the
  registered traffic models of :mod:`repro.workload.traffic`
  (``poisson``, ``diurnal``, ``mmpp``, ``burst``, ``replay``) are the
  one family of arrival processes, driven by ``repro serve --traffic``;
* **full probability distributions for power consumption** — not
  implemented; power stays the paper's deterministic per-P-state value.

:mod:`repro.extensions.batch_mode` adds the batch-mode mapper the paper
contrasts immediate mode with (Section II).  The four classic
literature baselines (MET, OLB, KPB, MEEC) are registered heuristics in
:mod:`repro.heuristics.baselines`.

None of these change the baseline reproduction; the benches ablate them
separately.
"""

from repro.extensions.priorities import (
    PriorityEnergyFilter,
    PriorityLightestLoad,
    weighted_missed,
    with_priorities,
)
from repro.extensions.batch_mode import BatchEngine, run_batch_trial

__all__ = [
    "BatchEngine",
    "run_batch_trial",
    "PriorityEnergyFilter",
    "PriorityLightestLoad",
    "weighted_missed",
    "with_priorities",
]
