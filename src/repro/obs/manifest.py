"""Run manifests: everything needed to reproduce a saved result.

A manifest pins the five ingredients a figure depends on:

1. the exact configuration (as a SHA-256 digest of its canonical JSON),
2. the base seed and trial count,
3. the package version and (best-effort) git SHA of the source tree,
4. the variant grid that was evaluated,
5. a digest of every per-trial result, so a re-run can be checked
   bitwise without shipping the results themselves.

``repro figure``/``repro grid`` write one next to ``--out`` and the
``repro inspect-manifest`` subcommand renders and verifies it.

This module deliberately imports :mod:`repro.io` and
:mod:`repro.experiments` lazily: the runner imports
:mod:`repro.obs.sinks` for metrics aggregation, and eager imports here
would close an import cycle through ``results_io``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import pathlib
import subprocess
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro._version import __version__
from repro.config import SimulationConfig
from repro.sim.results import TrialResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import EnsembleResult

__all__ = [
    "RunManifest",
    "config_digest",
    "trial_digest",
    "build_manifest",
    "manifest_for_results",
    "save_manifest",
    "load_manifest",
    "verify_ensemble",
    "git_sha",
]

_FORMAT = "repro.manifest/1"


def _canonical(obj: Any) -> Any:
    """Reduce dataclasses/enums/paths to plain JSON-stable values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _digest(data: Any) -> str:
    payload = json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_digest(config: SimulationConfig) -> str:
    """Stable SHA-256 of a configuration's canonical JSON form.

    Two configs digest equal iff every field (across all sections) is
    equal, so the digest pins the *entire* Section VI environment.
    """
    return _digest(config)


def trial_digest(result: TrialResult) -> str:
    """Stable SHA-256 of one trial result's scalar fields.

    Per-task outcomes are excluded (they are bulky and usually
    stripped); the scalar decomposition already changes whenever any
    outcome does.
    """
    from repro.io.results_io import trial_result_to_dict

    return _digest(trial_result_to_dict(result))


@functools.lru_cache(maxsize=None)
def _git_sha_at(cwd: str) -> str | None:
    """Shell out to git once per (process, directory); see :func:`git_sha`."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def git_sha(start: pathlib.Path | None = None) -> str | None:
    """Best-effort git HEAD of the source tree (``None`` outside a repo).

    The subprocess result is cached per process and directory — manifest
    builds happen once per completed trial under checkpointing, and the
    HEAD of an installed tree cannot change mid-run.
    """
    cwd = start if start is not None else pathlib.Path(__file__).resolve().parent
    return _git_sha_at(str(cwd))


@dataclass(frozen=True)
class RunManifest:
    """The reproducibility record of one ensemble run.

    ``trial_digests`` maps each spec label (``"LL/en+rob"``) to one
    digest per trial, in trial order.
    """

    config_digest: str
    base_seed: int
    num_trials: int
    repro_version: str
    git_sha: str | None
    specs: tuple[str, ...]
    trial_digests: dict[str, tuple[str, ...]]

    def to_dict(self) -> dict[str, Any]:
        """Serialize to the on-disk JSON document."""
        return {
            "format": _FORMAT,
            "config_digest": self.config_digest,
            "base_seed": self.base_seed,
            "num_trials": self.num_trials,
            "repro_version": self.repro_version,
            "git_sha": self.git_sha,
            "specs": list(self.specs),
            "trial_digests": {k: list(v) for k, v in self.trial_digests.items()},
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunManifest":
        """Rebuild from :meth:`to_dict` output."""
        if not isinstance(data, dict) or data.get("format") != _FORMAT:
            raise ValueError(f"not a {_FORMAT} document")
        return RunManifest(
            config_digest=str(data["config_digest"]),
            base_seed=int(data["base_seed"]),
            num_trials=int(data["num_trials"]),
            repro_version=str(data["repro_version"]),
            git_sha=data["git_sha"],
            specs=tuple(data["specs"]),
            trial_digests={
                str(k): tuple(v) for k, v in data["trial_digests"].items()
            },
        )

    def summary(self) -> str:
        """Human-readable rendering for ``repro inspect-manifest``."""
        from repro.analysis.tables import markdown_table

        rows = [
            ("format", _FORMAT),
            ("config digest", self.config_digest[:16] + "…"),
            ("base seed", self.base_seed),
            ("trials", self.num_trials),
            ("repro version", self.repro_version),
            ("git sha", (self.git_sha or "unknown")[:12]),
            ("specs", ", ".join(self.specs)),
            ("result digests", sum(len(v) for v in self.trial_digests.values())),
        ]
        return markdown_table(["field", "value"], rows)


def manifest_for_results(
    results: Mapping[str, Sequence[TrialResult]],
    config: SimulationConfig,
    base_seed: int,
    num_trials: int,
) -> RunManifest:
    """Build a manifest from spec-labelled trial results."""
    return RunManifest(
        config_digest=config_digest(config),
        base_seed=base_seed,
        num_trials=num_trials,
        repro_version=__version__,
        git_sha=git_sha(),
        specs=tuple(results),
        trial_digests={
            label: tuple(trial_digest(r) for r in trials)
            for label, trials in results.items()
        },
    )


def build_manifest(ensemble: "EnsembleResult", config: SimulationConfig) -> RunManifest:
    """Build the manifest of a finished ensemble."""
    return manifest_for_results(
        {spec.label: ensemble.results[spec] for spec in ensemble.specs},
        config,
        ensemble.base_seed,
        ensemble.num_trials,
    )


def save_manifest(manifest: RunManifest, path: str | pathlib.Path) -> pathlib.Path:
    """Write a manifest as indented JSON (stable key order)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    return path


def load_manifest(path: str | pathlib.Path) -> RunManifest:
    """Read a manifest written by :func:`save_manifest`."""
    return RunManifest.from_dict(json.loads(pathlib.Path(path).read_text()))


def verify_ensemble(manifest: RunManifest, ensemble: "EnsembleResult") -> list[str]:
    """Check an ensemble against a manifest; return mismatch descriptions.

    An empty list means every spec, trial count and per-trial digest
    matches — the ensemble is bitwise the run the manifest describes.
    """
    problems: list[str] = []
    labels = tuple(spec.label for spec in ensemble.specs)
    if labels != manifest.specs:
        problems.append(f"specs differ: manifest {manifest.specs} vs results {labels}")
    if ensemble.num_trials != manifest.num_trials:
        problems.append(
            f"trial count differs: manifest {manifest.num_trials} "
            f"vs results {ensemble.num_trials}"
        )
    if ensemble.base_seed != manifest.base_seed:
        problems.append(
            f"base seed differs: manifest {manifest.base_seed} "
            f"vs results {ensemble.base_seed}"
        )
    for spec in ensemble.specs:
        expected = manifest.trial_digests.get(spec.label)
        if expected is None:
            continue  # already reported via the specs mismatch
        actual = tuple(trial_digest(r) for r in ensemble.results[spec])
        for i, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                problems.append(f"{spec.label} trial {i}: digest mismatch")
    return problems
