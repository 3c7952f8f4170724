"""Serialization: results, traces, profiles and fault schedules as JSON.

Everything a study produces or consumes can round-trip through plain JSON
documents, so full-scale runs (minutes of CPU) can be archived, diffed and
re-reported without re-simulation:

* :mod:`repro.io.results_io` — :class:`~repro.sim.results.TrialResult`
  and ensemble dumps (the format ``repro grid --out`` writes and
  ``repro report`` re-renders);
* :mod:`repro.io.trace_io` — JSONL event traces written by
  :class:`repro.obs.sinks.JsonlSink`, read back as typed events;
* :mod:`repro.io.profile_io` — span profiles as Chrome trace-event
  JSON (Perfetto-loadable) and sampled state timelines;
* :mod:`repro.io.faults_io` — fault schedules, so a degraded run's
  outage/recovery sequence can be replayed exactly.
"""

from repro.io.faults_io import load_faults, save_faults
from repro.io.profile_io import (
    load_profile_events,
    load_timeline,
    save_profile,
    save_timeline,
)
from repro.io.results_io import (
    ensemble_from_dict,
    ensemble_to_dict,
    load_json,
    save_json,
    trial_result_from_dict,
    trial_result_to_dict,
)
from repro.io.trace_io import iter_trace, load_trace, save_trace

__all__ = [
    "iter_trace",
    "load_trace",
    "save_trace",
    "ensemble_from_dict",
    "ensemble_to_dict",
    "load_json",
    "save_json",
    "trial_result_from_dict",
    "trial_result_to_dict",
    "load_profile_events",
    "load_timeline",
    "save_profile",
    "save_timeline",
    "load_faults",
    "save_faults",
]
