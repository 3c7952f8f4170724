"""Section VIII future-work features, implemented as optional extensions.

The paper closes with four directions:

* **varying task priorities** — :mod:`repro.extensions.priorities`
  (priority assignment, a priority-weighted LL variant, weighted
  scoring);
* **cancelling and/or rescheduling tasks** —
  :mod:`repro.extensions.cancellation` (an engine hook that abandons
  queued tasks which have become hopeless, freeing their slot) and
  :mod:`repro.extensions.rescheduling` (work stealing between cores
  when rescheduling is permitted);
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
from repro.extensions.cancellation import AbandonHopelessPolicy
from repro.extensions.rescheduling import WorkStealingPolicy
from repro.extensions.batch_mode import BatchEngine, run_batch_trial

__all__ = [
    "BatchEngine",
    "run_batch_trial",
    "PriorityEnergyFilter",
    "WorkStealingPolicy",
    "PriorityLightestLoad",
    "weighted_missed",
    "with_priorities",
    "AbandonHopelessPolicy",
]
