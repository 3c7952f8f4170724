"""Declarative scenario configs: one file describes one experiment.

A :class:`Scenario` is the single validated dataclass tree behind
:mod:`repro.api`: the policy cell (heuristic + filter variant), the
simulation configuration (cluster, workload, arrival pattern, energy
budget, filter thresholds), and the run shape — one trial, a paired
ensemble, or continuous-service mode with traffic/fault/shedding knobs.
The same object round-trips through a single TOML or JSON file:

.. code-block:: toml

    format = "repro.scenario/1"
    name = "fig2-baseline"
    mode = "ensemble"

    [sim.workload]
    num_tasks = 1000

    [ensemble]
    num_trials = 50
    specs = ["SQ/*"]

``Scenario.from_file`` loads it, ``to_file`` writes it back,
:meth:`Scenario.digest` fingerprints it, and
:func:`repro.api.run_scenario` (or ``repro run --scenario``) executes
it.  Policy names resolve through :mod:`repro.registry`, so a
third-party heuristic registered under ``entry_points(group=
"repro.plugins")`` is immediately addressable from a scenario file.

Serialization is *sparse*: only values differing from the dataclass
defaults are emitted, so files stay minimal, ``from_file(to_file(s))``
reproduces ``s`` exactly, and :meth:`Scenario.digest` is stable across
the round trip.  Unknown keys anywhere in the tree fail with a
did-you-mean :class:`ScenarioError` naming the closest valid key — a
typo never silently falls back to a default.
"""

from __future__ import annotations

import dataclasses
import difflib
import enum
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from repro.config import (
    ClusterConfig,
    EnergyConfig,
    FilterConfig,
    GridConfig,
    IdlePowerMode,
    LambdaMode,
    SimulationConfig,
    WorkloadConfig,
)
from repro.experiments.figures import canonical_pattern, expand_specs
from repro.experiments.runner import VariantSpec
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule, SheddingConfig
from repro.filters.chain import canonical_variant
from repro.registry import HEURISTIC_PLUGINS, UnknownPluginError
from repro.service import ServiceConfig
from repro.sim.system import TrialSystem, build_trial_system, trial_cluster

__all__ = [
    "SCENARIO_FORMAT",
    "MODES",
    "ScenarioError",
    "EnsembleSettings",
    "FaultSettings",
    "Scenario",
]

#: Format tag written to (and accepted from) every scenario file.
SCENARIO_FORMAT = "repro.scenario/1"

#: The run shapes a scenario can describe.
MODES = ("trial", "ensemble", "service")

#: The ``[policy]`` cell a scenario without one names.
_DEFAULT_SPEC = VariantSpec("LL", "en+rob")


class ScenarioError(ValueError):
    """A malformed scenario: unknown key, bad value, or unloadable file."""


def _unknown_key(key: str, valid: tuple[str, ...], where: str) -> ScenarioError:
    """A did-you-mean error for an unrecognized key."""
    close = difflib.get_close_matches(key, valid, n=1, cutoff=0.5)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ScenarioError(
        f"unknown key {key!r} in {where}{hint} known keys: {', '.join(valid)}"
    )


# Dataclass fields stored as enums; scenario files carry the .value string.
_ENUM_FIELDS: dict[tuple[str, str], type[enum.Enum]] = {
    ("WorkloadConfig", "lambda_mode"): LambdaMode,
    ("EnergyConfig", "idle_power_mode"): IdlePowerMode,
}


def _build_dataclass(cls: type, data: Mapping[str, Any], where: str) -> Any:
    """Construct ``cls`` from a mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ScenarioError(
            f"{where} must be a table, got {type(data).__name__}"
        )
    names = tuple(f.name for f in dataclasses.fields(cls))
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in names:
            raise _unknown_key(key, names, where)
        enum_type = _ENUM_FIELDS.get((cls.__name__, key))
        if enum_type is not None and isinstance(value, str):
            try:
                value = enum_type(value)
            except ValueError:
                known = ", ".join(e.value for e in enum_type)
                raise ScenarioError(
                    f"bad value {value!r} for {where}.{key}; known: {known}"
                ) from None
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid {where}: {exc}") from exc


def _dataclass_to_dict(obj: Any) -> dict[str, Any]:
    """Sparse field dict: only values that differ from the defaults."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:
            default = dataclasses.MISSING
        if default is not dataclasses.MISSING and value == default:
            continue
        if isinstance(value, enum.Enum):
            value = value.value
        out[f.name] = value
    return out


_SIM_SECTIONS: dict[str, type] = {
    "grid": GridConfig,
    "cluster": ClusterConfig,
    "workload": WorkloadConfig,
    "energy": EnergyConfig,
    "filters": FilterConfig,
}


def _sim_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from a ``[sim]`` table."""
    valid = ("seed", *(_SIM_SECTIONS))
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = value
        elif key in _SIM_SECTIONS:
            kwargs[key] = _build_dataclass(_SIM_SECTIONS[key], value, f"[sim.{key}]")
        else:
            raise _unknown_key(key, valid, "[sim]")
    try:
        return SimulationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid [sim]: {exc}") from exc


def _sim_to_dict(config: SimulationConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if config.seed != 0:
        out["seed"] = config.seed
    for section in _SIM_SECTIONS:
        fields = _dataclass_to_dict(getattr(config, section))
        if fields:
            out[section] = fields
    return out


@dataclass(frozen=True)
class EnsembleSettings:
    """The run shape of ``mode = "ensemble"``: paired trials of one config.

    ``base_seed = None`` defers to the scenario's resolved seed.
    ``specs`` are spec labels, stored canonically, in which ``*`` stands
    for the paper's four heuristics or variants (``["LL/*"]`` is Figure
    4; see :func:`repro.experiments.figures.expand_specs`); none runs
    the scenario's ``[policy]`` cell.
    """

    num_trials: int = 10
    base_seed: int | None = None
    n_jobs: int = 1
    specs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_trials < 1:
            raise ValueError(f"need at least one trial, got {self.num_trials}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be a positive worker count, got {self.n_jobs}")
        if isinstance(self.specs, str):
            raise ValueError(f"specs must be a list of spec labels, got {self.specs!r}")
        object.__setattr__(self, "specs", tuple(map(canonical_pattern, self.specs)))
        expand_specs(self.specs)  # a cell named twice fails here, not mid-run


#: Valid scopes for generated fault schedules (see FaultSchedule.generate).
_FAULT_SCOPES = ("node", "core", "slowdown")


@dataclass(frozen=True)
class FaultSettings:
    """Declarative fault layer: an explicit episode list or a generator.

    Either list episodes as ``[[faults.events]]`` tables (kind, target,
    start, duration) or set the renewal-process trio ``mtbf`` / ``mttr``
    / ``horizon`` and a schedule is drawn per run via
    :meth:`repro.faults.FaultSchedule.generate` — deterministic given
    ``seed`` (default: the scenario's resolved master seed).  The
    generator faults every node (every core of the trial's cluster for
    ``scope = "core"``) unless ``num_targets`` says otherwise, and a
    ``"slowdown"`` caps the P-states below ``pstate_floor`` (default 1:
    the fastest P-state is lost).  ``running`` / ``remap`` become the
    :class:`~repro.faults.FaultPolicy`.  This is the only place a run's
    mtbf/mttr/horizon become a schedule; ``repro trial`` and ``repro
    serve`` build one from their ``--fault-*`` flags.
    """

    mtbf: float | None = None
    mttr: float | None = None
    horizon: float | None = None
    num_targets: int | None = None
    scope: str = "node"
    pstate_floor: int = 1
    seed: int | None = None
    running: str = "lost"
    remap: bool = True
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.scope not in _FAULT_SCOPES:
            close = difflib.get_close_matches(self.scope, _FAULT_SCOPES, n=1, cutoff=0.5)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"unknown fault scope {self.scope!r}{hint} "
                f"known: {', '.join(_FAULT_SCOPES)}"
            )
        if self.running not in ("lost", "resume"):
            raise ValueError(
                f"running policy must be 'lost' or 'resume', got {self.running!r}"
            )
        trio = {"mtbf": self.mtbf, "mttr": self.mttr, "horizon": self.horizon}
        missing = [name for name, value in trio.items() if value is None]
        if 0 < len(missing) < 3:
            raise ValueError(
                "fault generation needs all of mtbf, mttr and horizon; "
                f"missing {', '.join(missing)}"
            )
        if self.mtbf is not None and self.events:
            raise ValueError(
                "give either explicit fault events or the mtbf/mttr/horizon "
                "generator, not both"
            )
        if self.num_targets is not None and self.num_targets < 1:
            raise ValueError(f"num_targets must be >= 1, got {self.num_targets}")

    @property
    def active(self) -> bool:
        """Whether this setting produces any fault schedule at all."""
        return bool(self.events) or self.mtbf is not None

    def resolve(
        self, config: SimulationConfig
    ) -> tuple[FaultSchedule | None, FaultPolicy | None]:
        """The concrete (schedule, policy) pair for one resolved config."""
        if not self.active:
            return None, None
        policy = FaultPolicy(running=self.running, remap=self.remap)
        if self.events:
            return FaultSchedule(self.events), policy
        num_targets = self.num_targets
        if num_targets is None:
            num_targets = (
                trial_cluster(config).num_cores
                if self.scope == "core"
                else config.cluster.num_nodes
            )
        schedule = FaultSchedule.generate(
            num_targets=num_targets,
            horizon=self.horizon,  # type: ignore[arg-type]
            mtbf=self.mtbf,  # type: ignore[arg-type]
            mttr=self.mttr,  # type: ignore[arg-type]
            seed=self.seed if self.seed is not None else config.seed,
            scope=self.scope,
            pstate_floor=self.pstate_floor,
        )
        return schedule, policy


def _faults_from_dict(data: Mapping[str, Any]) -> FaultSettings:
    data = dict(data)
    events = data.pop("events", [])
    if not isinstance(events, (list, tuple)):
        raise ScenarioError("[faults].events must be an array of event tables")
    built = tuple(
        _build_dataclass(FaultEvent, item, "[[faults.events]]") for item in events
    )
    settings = _build_dataclass(FaultSettings, data, "[faults]")
    return replace(settings, events=built)


def _faults_to_dict(settings: FaultSettings) -> dict[str, Any]:
    out = _dataclass_to_dict(settings)
    out.pop("events", None)
    if settings.events:
        out["events"] = [_dataclass_to_dict(event) for event in settings.events]
    return out


@dataclass(frozen=True)
class Scenario:
    """One named experiment: a policy, its workload, and the run shape.

    The first five fields are the pre-scenario ``repro.api.Scenario``
    surface, unchanged (positional use like ``Scenario("LL", "en+rob",
    seed=42)`` keeps working); the rest declare what a scenario *file*
    can say.  Policy names are case-insensitive and canonicalized
    against the plugin registries at construction (``"mect"`` stores as
    ``"MECT"``), so one spelling reaches the rng stream labels and the
    results are independent of how the name was typed.

    Attributes
    ----------
    heuristic:
        A registered allocation heuristic (builtin: ``"SQ"``,
        ``"MECT"``, ``"LL"``, ``"Random"``), any case.
    filters:
        ``"none"`` or a ``+``-joined list of registered filter names
        (builtin: ``"en"``, ``"rob"``, ``"en+rob"``), any case.
    seed:
        Master seed; ``None`` keeps the seed of ``config`` (or the
        default configuration's seed).
    num_tasks:
        Tasks per trial; ``None`` keeps the configured workload size.
    config:
        Optional base :class:`SimulationConfig`; ``seed`` and
        ``num_tasks`` override it when given.  ``None`` starts from the
        paper's Section VI defaults.
    name:
        Display name of the scenario (free-form; shows up in catalogs).
    mode:
        ``"trial"`` (default), ``"ensemble"`` or ``"service"`` — what
        :func:`repro.api.run_scenario` executes.
    ensemble:
        :class:`EnsembleSettings`: trials, base seed, workers and grid
        cells of :func:`repro.api.run_ensemble` /
        :func:`repro.api.budget_sweep` (``None`` means the defaults).
        With ``specs`` set the cells come from there, so ``heuristic``
        and ``filters`` must keep their defaults and the file form
        carries no ``[policy]`` table.
    service:
        :class:`~repro.service.ServiceConfig`; only meaningful in
        service mode (``None`` there means batch-equivalent replay).
        Must not carry its own ``faults`` / ``fault_policy`` /
        ``shedding`` — declare those at scenario level so one section
        covers trial and service modes alike.
    faults:
        :class:`FaultSettings` injected into trial or service runs.
    shedding:
        :class:`~repro.faults.SheddingConfig` for the admission
        controller, likewise shared across modes.
    """

    heuristic: str = _DEFAULT_SPEC.heuristic
    filters: str = _DEFAULT_SPEC.variant
    seed: int | None = None
    num_tasks: int | None = None
    config: SimulationConfig | None = None
    name: str = ""
    mode: str = "trial"
    ensemble: EnsembleSettings | None = None
    service: ServiceConfig | None = None
    faults: FaultSettings | None = None
    shedding: SheddingConfig | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(
                self, "heuristic", HEURISTIC_PLUGINS.canonical(self.heuristic)
            )
        except UnknownPluginError as exc:
            raise ValueError(str(exc)) from None
        try:
            object.__setattr__(self, "filters", canonical_variant(self.filters))
        except UnknownPluginError as exc:
            raise ValueError(str(exc)) from None
        except KeyError as exc:
            raise ValueError(f"bad filter variant: {exc.args[0]}") from None
        mode = self.mode.strip().lower()
        if mode not in MODES:
            close = difflib.get_close_matches(mode, MODES, n=1, cutoff=0.5)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"unknown scenario mode {self.mode!r}{hint} known: {', '.join(MODES)}"
            )
        object.__setattr__(self, "mode", mode)
        if self._has_specs and self.spec != _DEFAULT_SPEC:
            raise ValueError(
                f"[ensemble] specs name the cells to run; drop the [policy] "
                f"cell {self.spec.label} (it would never run)"
            )
        if self.service is not None and (
            self.service.faults is not None
            or self.service.fault_policy is not None
            or self.service.shedding is not None
        ):
            raise ValueError(
                "scenario service config must not embed faults/fault_policy/"
                "shedding; declare scenario-level [faults] / [shedding] instead"
            )
        if self.mode == "ensemble":
            self.require_fault_free()

    @property
    def _has_specs(self) -> bool:
        return self.ensemble is not None and bool(self.ensemble.specs)

    # -- the pre-scenario api.Scenario surface --------------------------

    @property
    def spec(self) -> VariantSpec:
        """The (heuristic, variant) grid cell this scenario names."""
        return VariantSpec(self.heuristic, self.filters)

    @property
    def label(self) -> str:
        """Display label, e.g. ``"LL/en+rob"`` (``"SQ/*"`` for an ensemble
        over ``[ensemble] specs``)."""
        if self.mode == "ensemble" and self.ensemble is not None and self.ensemble.specs:
            return ", ".join(self.ensemble.specs)
        return self.spec.label

    @property
    def ensemble_specs(self) -> tuple[VariantSpec, ...]:
        """The grid cells an ensemble of this scenario runs: the expanded
        ``[ensemble] specs``, or the ``[policy]`` cell without them."""
        patterns = self.resolved_ensemble().specs
        return expand_specs(patterns) if patterns else (self.spec,)

    def resolved_config(self) -> SimulationConfig:
        """The full simulation configuration with overrides applied."""
        config = self.config if self.config is not None else SimulationConfig()
        if self.seed is not None:
            config = config.with_seed(self.seed)
        if self.num_tasks is not None and config.workload.num_tasks != self.num_tasks:
            config = replace(
                config, workload=config.workload.with_num_tasks(self.num_tasks)
            )
        return config

    def build_system(self) -> TrialSystem:
        """Generate the trial environment this scenario describes."""
        return build_trial_system(self.resolved_config())

    # -- run-shape resolution -------------------------------------------

    def resolved_faults(self) -> tuple[FaultSchedule | None, FaultPolicy | None]:
        """The concrete fault layer of this scenario (``(None, None)`` if off)."""
        if self.faults is None:
            return None, None
        return self.faults.resolve(self.resolved_config())

    def resolved_service(self) -> ServiceConfig:
        """The service config with the scenario's fault layer folded in."""
        base = self.service if self.service is not None else ServiceConfig(traffic="replay")
        schedule, policy = self.resolved_faults()
        if schedule is None and policy is None and self.shedding is None:
            return base
        return replace(
            base, faults=schedule, fault_policy=policy, shedding=self.shedding
        )

    def require_fault_free(self) -> None:
        """Raise ``ValueError`` if runs would inject faults or shed load.

        Ensembles do neither, so an ensemble-mode scenario, and every
        scenario :func:`repro.api.run_ensemble` or
        :func:`repro.api.budget_sweep` is given, must pass this check.
        """
        if (self.faults is not None and self.faults.active) or self.shedding is not None:
            raise ValueError(
                "fault injection and shedding are supported in trial and "
                "service modes, not ensembles"
            )

    def resolved_ensemble(self) -> EnsembleSettings:
        """The ensemble settings (defaults when the section was omitted)."""
        return self.ensemble if self.ensemble is not None else EnsembleSettings()

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from a parsed file, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario must be a table, got {type(data).__name__}"
            )
        valid = (
            "format", "name", "mode", "policy", "seed", "num_tasks",
            "sim", "ensemble", "service", "faults", "shedding",
        )
        for key in data:
            if key not in valid:
                raise _unknown_key(key, valid, "scenario")
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ScenarioError(
                f"unsupported scenario format {fmt!r}; this build reads "
                f"{SCENARIO_FORMAT!r}"
            )
        policy = data.get("policy", {})
        if not isinstance(policy, Mapping):
            raise ScenarioError("[policy] must be a table")
        for key in policy:
            if key not in ("heuristic", "filters"):
                raise _unknown_key(key, ("heuristic", "filters"), "[policy]")
        sim = data.get("sim")
        kwargs: dict[str, Any] = {
            "heuristic": policy.get("heuristic", _DEFAULT_SPEC.heuristic),
            "filters": policy.get("filters", _DEFAULT_SPEC.variant),
            "seed": data.get("seed"),
            "num_tasks": data.get("num_tasks"),
            "config": _sim_from_dict(sim) if sim is not None else None,
            "name": data.get("name", ""),
            "mode": data.get("mode", "trial"),
        }
        if "ensemble" in data:
            kwargs["ensemble"] = _build_dataclass(
                EnsembleSettings, data["ensemble"], "[ensemble]"
            )
        if "service" in data:
            kwargs["service"] = _build_dataclass(
                ServiceConfig, data["service"], "[service]"
            )
        if "faults" in data:
            kwargs["faults"] = _faults_from_dict(data["faults"])
        if "shedding" in data:
            kwargs["shedding"] = _build_dataclass(
                SheddingConfig, data["shedding"], "[shedding]"
            )
        try:
            return cls(**kwargs)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def to_dict(self) -> dict[str, Any]:
        """The sparse, file-shaped dict (only non-default values)."""
        out: dict[str, Any] = {"format": SCENARIO_FORMAT}
        if self.name:
            out["name"] = self.name
        out["mode"] = self.mode
        if not self._has_specs:
            out["policy"] = {"heuristic": self.heuristic, "filters": self.filters}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.num_tasks is not None:
            out["num_tasks"] = self.num_tasks
        if self.config is not None:
            out["sim"] = _sim_to_dict(self.config)
        if self.ensemble is not None:
            out["ensemble"] = _dataclass_to_dict(self.ensemble)
        if self.service is not None:
            out["service"] = _dataclass_to_dict(self.service)
        if self.faults is not None:
            out["faults"] = _faults_to_dict(self.faults)
        if self.shedding is not None:
            out["shedding"] = _dataclass_to_dict(self.shedding)
        return out

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        """Load a scenario from a ``.toml`` or ``.json`` file."""
        path = Path(path)
        suffix = path.suffix.lower()
        text = path.read_text(encoding="utf-8")
        if suffix == ".toml":
            import tomllib

            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as exc:
                raise ScenarioError(f"{path}: invalid TOML: {exc}") from exc
        elif suffix == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
        else:
            raise ScenarioError(
                f"unsupported scenario file type {suffix or path.name!r} "
                "(use .toml or .json)"
            )
        try:
            return cls.from_dict(data)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    def to_toml(self) -> str:
        """The canonical TOML rendering of :meth:`to_dict`."""
        return _toml_dumps(self.to_dict())

    def to_json(self) -> str:
        """The canonical JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_file(self, path: str | Path) -> Path:
        """Write the scenario as ``.toml`` or ``.json``; returns the path."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".toml":
            text = self.to_toml()
        elif suffix == ".json":
            text = self.to_json()
        else:
            raise ScenarioError(
                f"unsupported scenario file type {suffix or path.name!r} "
                "(use .toml or .json)"
            )
        path.write_text(text, encoding="utf-8")
        return path

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form; stable across round trips."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Minimal TOML emitter (tomllib is read-only); covers the scenario
# schema: scalar keys, nested tables, arrays of tables.
# ----------------------------------------------------------------------


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ScenarioError(f"non-finite float {value!r} is not serializable")
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise ScenarioError(f"cannot serialize {type(value).__name__} to TOML")


def _emit_table(lines: list[str], prefix: str, table: Mapping[str, Any]) -> None:
    tables: list[tuple[str, Mapping[str, Any]]] = []
    arrays: list[tuple[str, list[Any]]] = []
    for key, value in table.items():
        if isinstance(value, Mapping):
            tables.append((key, value))
        elif isinstance(value, (list, tuple)) and all(
            isinstance(item, Mapping) for item in value
        ) and value:
            arrays.append((key, list(value)))
        else:
            lines.append(f"{key} = {_toml_value(value)}")
    for key, sub in tables:
        dotted = f"{prefix}{key}"
        lines.extend(("", f"[{dotted}]"))
        _emit_table(lines, dotted + ".", sub)
    for key, items in arrays:
        dotted = f"{prefix}{key}"
        for item in items:
            lines.extend(("", f"[[{dotted}]]"))
            _emit_table(lines, dotted + ".", item)


def _toml_dumps(data: Mapping[str, Any]) -> str:
    lines: list[str] = []
    _emit_table(lines, "", data)
    return "\n".join(lines) + "\n"
