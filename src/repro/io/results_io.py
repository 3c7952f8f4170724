"""Result serialization: trial results and ensemble dumps.

The ensemble format is intentionally flat (per-spec miss arrays plus the
scalar fields of every trial) so other tools — or a later session of this
one — can regenerate every table in ``EXPERIMENTS.md`` without
re-simulating.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.experiments.executor import TrialFailure
from repro.experiments.runner import EnsembleResult, PartialEnsembleResult, VariantSpec
from repro.obs.sinks import _encode_float
from repro.sim.results import TaskOutcome, TrialResult

__all__ = [
    "trial_result_to_dict",
    "trial_result_from_dict",
    "ensemble_to_dict",
    "ensemble_from_dict",
    "save_json",
    "load_json",
]

_TRIAL_FORMAT = "repro.trial/1"
_ENSEMBLE_FORMAT = "repro.ensemble/1"

#: Scalar TrialResult fields copied verbatim (order matters for tests).
_SCALAR_FIELDS = (
    "heuristic",
    "variant",
    "seed",
    "num_tasks",
    "missed",
    "completed_within",
    "discarded",
    "late",
    "energy_cutoff",
    "total_energy",
    "budget",
    "makespan",
)


def trial_result_to_dict(result: TrialResult, *, keep_outcomes: bool = False) -> dict[str, Any]:
    """Serialize one trial result (outcomes optional; they are bulky)."""
    data: dict[str, Any] = {"format": _TRIAL_FORMAT}
    for field in _SCALAR_FIELDS:
        data[field] = getattr(result, field)
    data["exhaustion_time"] = _encode_float(result.exhaustion_time)
    if keep_outcomes and result.outcomes:
        data["outcomes"] = [
            {
                "task_id": o.task_id,
                "type_id": o.type_id,
                "arrival": o.arrival,
                "deadline": o.deadline,
                "core_id": o.core_id,
                "pstate": o.pstate,
                "start": _encode_float(o.start),
                "completion": _encode_float(o.completion),
                "discarded": o.discarded,
            }
            for o in result.outcomes
        ]
    return data


def trial_result_from_dict(data: dict[str, Any]) -> TrialResult:
    """Rebuild a trial result from :func:`trial_result_to_dict` output."""
    if data.get("format") != _TRIAL_FORMAT:
        raise ValueError(f"not a {_TRIAL_FORMAT} document")
    outcomes: tuple[TaskOutcome, ...] = ()
    if "outcomes" in data:
        outcomes = tuple(
            TaskOutcome(
                task_id=int(o["task_id"]),
                type_id=int(o["type_id"]),
                arrival=float(o["arrival"]),
                deadline=float(o["deadline"]),
                core_id=int(o["core_id"]),
                pstate=int(o["pstate"]),
                start=float(o["start"]),
                completion=float(o["completion"]),
                discarded=bool(o["discarded"]),
            )
            for o in data["outcomes"]
        )
    kwargs = {field: data[field] for field in _SCALAR_FIELDS}
    return TrialResult(
        exhaustion_time=float(data["exhaustion_time"]),
        outcomes=outcomes,
        **kwargs,
    )


def ensemble_to_dict(ensemble: EnsembleResult) -> dict[str, Any]:
    """Serialize a whole ensemble (without per-task outcomes).

    Partial ensembles (quarantined trials) keep their completeness
    metadata in a ``"partial"`` section, so a reloaded result still
    knows which trials are missing and why.
    """
    data: dict[str, Any] = {
        "format": _ENSEMBLE_FORMAT,
        "num_trials": ensemble.num_trials,
        "base_seed": ensemble.base_seed,
        "specs": [{"heuristic": s.heuristic, "variant": s.variant} for s in ensemble.specs],
        "results": {
            spec.label: [
                trial_result_to_dict(result) for result in ensemble.results[spec]
            ]
            for spec in ensemble.specs
        },
    }
    if isinstance(ensemble, PartialEnsembleResult):
        data["partial"] = {
            "completed_trials": list(ensemble.completed_trials),
            "failures": [
                {
                    "trial": f.trial,
                    "attempts": f.attempts,
                    "fault": f.fault,
                    "detail": f.detail,
                }
                for f in ensemble.failures
            ],
        }
    return data


def ensemble_from_dict(data: dict[str, Any]) -> EnsembleResult:
    """Rebuild an ensemble from :func:`ensemble_to_dict` output."""
    if not isinstance(data, dict) or data.get("format") != _ENSEMBLE_FORMAT:
        raise ValueError(f"not a {_ENSEMBLE_FORMAT} document")
    specs = tuple(
        VariantSpec(heuristic=s["heuristic"], variant=s["variant"]) for s in data["specs"]
    )
    results = {
        spec: tuple(
            trial_result_from_dict(entry) for entry in data["results"][spec.label]
        )
        for spec in specs
    }
    if "partial" in data:
        partial = data["partial"]
        return PartialEnsembleResult(
            specs=specs,
            num_trials=int(data["num_trials"]),
            base_seed=int(data["base_seed"]),
            results=results,
            completed_trials=tuple(int(i) for i in partial["completed_trials"]),
            failures=tuple(
                TrialFailure(
                    trial=int(f["trial"]),
                    attempts=int(f["attempts"]),
                    fault=str(f["fault"]),
                    detail=str(f["detail"]),
                )
                for f in partial["failures"]
            ),
        )
    return EnsembleResult(
        specs=specs,
        num_trials=int(data["num_trials"]),
        base_seed=int(data["base_seed"]),
        results=results,
    )


def save_json(data: dict[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    """Write a document produced by the ``*_to_dict`` functions."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


def load_json(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a document written by :func:`save_json`."""
    return json.loads(pathlib.Path(path).read_text())
