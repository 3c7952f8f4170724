"""repro.registry — one plugin registry for every policy-shaped extension point.

The paper's contribution is a *policy grid*: allocation heuristics
(SQ/MECT/LL/Random) crossed with assignment filters (energy,
robustness).  The service layer added two more pluggable families —
traffic models and admission (load-shedding) policies.  Before this
module each family had its own hand-wired ``make_*`` constructor, so
adding a policy meant editing ``config.py``, ``cli.py`` and ``api.py``
in lockstep.  Now every family is a :class:`PluginRegistry`:

* registration is declarative — ``@register_heuristic("MECT")`` on a
  factory (or class) makes the name constructible everywhere: the CLI,
  :class:`repro.scenario.Scenario` files, and :func:`repro.api.run_scenario`;
* lookup is **case-insensitive** and misses fail with a did-you-mean
  suggestion (:class:`UnknownPluginError`, a ``KeyError`` subclass so
  pre-registry callers keep working);
* third-party packages are discovered through
  ``entry_points(group="repro.plugins")`` — each entry point resolves to
  a module (imported for its registration side effects) or a callable
  (invoked once);
* :func:`describe_plugins` renders the full catalog for ``repro
  scenarios plugins``.

Builtin plugins live next to the code they construct
(:mod:`repro.heuristics.registry`, :mod:`repro.filters.chain`,
:mod:`repro.workload.traffic`, :mod:`repro.faults`); this module stays a
leaf import so any of them can depend on it.  Registration is
results-neutral by construction: a registry factory builds exactly the
object the old constructor built, so registry-constructed runs are
bitwise identical to directly-constructed ones (pinned by
``tests/scenario/test_parity.py``).
"""

from __future__ import annotations

import difflib
import importlib
import importlib.metadata
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.workload.workload import ArrivalRates

__all__ = [
    "ENTRY_POINT_GROUP",
    "PLUGIN_KINDS",
    "PluginInfo",
    "PluginRegistry",
    "UnknownPluginError",
    "HeuristicPlugin",
    "FilterPlugin",
    "AdmissionPlugin",
    "TrafficContext",
    "HEURISTIC_PLUGINS",
    "FILTER_PLUGINS",
    "TRAFFIC_PLUGINS",
    "ADMISSION_PLUGINS",
    "registry_for",
    "register_heuristic",
    "register_filter",
    "register_traffic",
    "register_admission",
    "load_entry_point_plugins",
    "describe_plugins",
]

#: The ``importlib.metadata`` entry-point group third-party packages use.
ENTRY_POINT_GROUP = "repro.plugins"

#: The plugin families, in catalog order.
PLUGIN_KINDS = ("heuristic", "filter", "traffic", "admission")

#: Module registering each family's builtin plugins, imported on demand
#: so this module stays a leaf (the domain modules import *us*).
_BUILTIN_MODULES = {
    "heuristic": "repro.heuristics.registry",
    "filter": "repro.filters.chain",
    "traffic": "repro.workload.traffic",
    "admission": "repro.faults",
}


# ----------------------------------------------------------------------
# Per-kind protocols (slim, structural — the registry never imports the
# domain classes that satisfy them)
# ----------------------------------------------------------------------


@runtime_checkable
class HeuristicPlugin(Protocol):
    """What a registered heuristic factory must build.

    The factory signature is ``factory(rng: np.random.Generator | None)
    -> HeuristicPlugin``; deterministic heuristics ignore ``rng``.
    """

    name: str

    def select(self, cands: Any, ctx: Any) -> Any: ...


@runtime_checkable
class FilterPlugin(Protocol):
    """What a registered filter factory must build.

    The factory signature is ``factory(config: FilterConfig) ->
    FilterPlugin``; filters clear entries of the candidate mask and
    never set them.
    """

    label: str

    def apply(self, cands: Any, ctx: Any) -> None: ...


@runtime_checkable
class AdmissionPlugin(Protocol):
    """What a registered admission-policy factory must build.

    The factory signature is ``factory(config: SheddingConfig) ->
    AdmissionPlugin``.  ``admit`` returns ``("admit"|"defer"|"shed",
    cause)`` for one arrival, pre-mapping.
    """

    def admit(
        self, task_id: int, queue_depth: float, budget_frac: float | None
    ) -> tuple[str, str]: ...


@dataclass(frozen=True)
class TrafficContext:
    """Everything a traffic plugin may draw on to build its arrival stream.

    A registered traffic factory has signature ``factory(ctx:
    TrafficContext) -> Iterator[float]`` and yields strictly
    nondecreasing absolute arrival times.  The context is deliberately
    config-shaped (no live engine state) so streams stay open-loop and
    deterministic given ``rng``.
    """

    #: Seeded generator dedicated to the arrival stream.
    rng: "np.random.Generator"
    #: Mean arrival rate (tasks/second) after ``rate_mult`` scaling.
    mean_rate: float
    #: Mean length of one traffic phase (resolved, simulated seconds).
    phase_length: float
    #: Peak-to-mean swing in [0, 1) for modulated models.
    swing: float
    #: The configured rate multiplier (relative to equilibrium).
    rate_mult: float
    #: The workload generation parameters of the trial system.
    workload: Any
    #: The system's derived arrival-rate triple (eq, fast, slow).
    rates: "ArrivalRates"


class UnknownPluginError(KeyError):
    """An unregistered plugin name, with a did-you-mean suggestion.

    Subclasses :class:`KeyError`, so a lookup miss reads like a dict
    miss to callers that catch ``KeyError``.
    """

    def __init__(self, kind: str, name: str, known: tuple[str, ...]) -> None:
        suggestions = difflib.get_close_matches(
            name.strip().lower(), [k.lower() for k in known], n=1, cutoff=0.5
        )
        hint = ""
        if suggestions:
            canonical = {k.lower(): k for k in known}[suggestions[0]]
            hint = f"; did you mean {canonical!r}?"
        message = (
            f"unknown {kind} {name!r}{hint} known: {', '.join(known) or '(none)'}"
        )
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.suggestion = (
            {k.lower(): k for k in known}[suggestions[0]] if suggestions else None
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the prose readable
        return self.args[0]


@dataclass(frozen=True)
class PluginInfo:
    """One registered plugin: its canonical name, factory and provenance."""

    kind: str
    name: str
    factory: Callable[..., Any]
    summary: str = ""
    source: str = "builtin"

    @property
    def module(self) -> str:
        """Dotted module the factory was defined in."""
        return getattr(self.factory, "__module__", "?")


class PluginRegistry:
    """A named, case-insensitive mapping of plugin names to factories.

    One instance per plugin *kind* (heuristic / filter / traffic /
    admission).  Names are stored under their lower-cased key but keep
    the canonical spelling they were registered with, so ``get("mect")``
    and ``get("MECT")`` resolve identically and catalogs display the
    paper's names.
    """

    def __init__(self, kind: str, protocol: type | None = None) -> None:
        self.kind = kind
        self.protocol = protocol
        self._plugins: dict[str, PluginInfo] = {}

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        *,
        summary: str = "",
        source: str = "builtin",
        replace: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register ``factory`` (or a class) under ``name``."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, factory, summary=summary, source=source, replace=replace)
            return factory

        return decorator

    def add(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        summary: str = "",
        source: str = "builtin",
        replace: bool = False,
    ) -> None:
        """Imperative registration (the decorator's workhorse)."""
        key = self._key(name)
        if not key:
            raise ValueError(f"{self.kind} plugin name must be non-empty")
        if "+" in key or "/" in key:
            raise ValueError(
                f"{self.kind} plugin name {name!r} may not contain '+' or '/' "
                "(reserved for variant and spec labels)"
            )
        if key in self._plugins and not replace:
            existing = self._plugins[key]
            raise ValueError(
                f"{self.kind} {name!r} is already registered "
                f"(by {existing.module}); pass replace=True to override"
            )
        if not summary:
            summary = (getattr(factory, "__doc__", None) or "").strip().splitlines()
            summary = summary[0] if summary else ""
        self._plugins[key] = PluginInfo(
            kind=self.kind, name=name.strip(), factory=factory,
            summary=summary, source=source,
        )

    def unregister(self, name: str) -> None:
        """Remove a plugin (tests and REPL experiments)."""
        self._plugins.pop(self._key(name), None)

    # -- lookup ---------------------------------------------------------

    @staticmethod
    def _key(name: str) -> str:
        return name.strip().lower()

    def _lookup(self, name: str) -> PluginInfo | None:
        info = self._plugins.get(self._key(name))
        if info is None:
            # A miss may just mean builtins / third-party entry points
            # have not been imported yet; load them once and retry.
            _load_builtins(self.kind)
            load_entry_point_plugins()
            info = self._plugins.get(self._key(name))
        return info

    def info(self, name: str) -> PluginInfo:
        """The :class:`PluginInfo` for ``name`` (case-insensitive)."""
        info = self._lookup(name)
        if info is None:
            raise UnknownPluginError(self.kind, name, self.names())
        return info

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name``."""
        return self.info(name).factory

    def canonical(self, name: str) -> str:
        """The canonical spelling of ``name`` (e.g. ``"mect"`` -> ``"MECT"``)."""
        return self.info(name).name

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the plugin: ``factory(*args, **kwargs)``."""
        return self.get(name)(*args, **kwargs)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._lookup(name) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._plugins)

    def names(self) -> tuple[str, ...]:
        """Canonical names in registration order (builtins first)."""
        return tuple(info.name for info in self._plugins.values())

    def describe(self) -> list[dict[str, str]]:
        """Catalog rows for this kind (name, summary, module, source)."""
        return [
            {
                "kind": info.kind,
                "name": info.name,
                "summary": info.summary,
                "module": info.module,
                "source": info.source,
            }
            for info in self._plugins.values()
        ]

    def __repr__(self) -> str:
        return f"PluginRegistry({self.kind!r}, {list(self.names())!r})"


# ----------------------------------------------------------------------
# The four registries and their decorators
# ----------------------------------------------------------------------

HEURISTIC_PLUGINS = PluginRegistry("heuristic", HeuristicPlugin)
FILTER_PLUGINS = PluginRegistry("filter", FilterPlugin)
TRAFFIC_PLUGINS = PluginRegistry("traffic")
ADMISSION_PLUGINS = PluginRegistry("admission", AdmissionPlugin)

_REGISTRIES: dict[str, PluginRegistry] = {
    "heuristic": HEURISTIC_PLUGINS,
    "filter": FILTER_PLUGINS,
    "traffic": TRAFFIC_PLUGINS,
    "admission": ADMISSION_PLUGINS,
}


def registry_for(kind: str) -> PluginRegistry:
    """The registry of one plugin kind (``"heuristic"``, ``"filter"``, ...)."""
    try:
        return _REGISTRIES[kind]
    except KeyError:
        raise UnknownPluginError("plugin kind", kind, PLUGIN_KINDS) from None


def register_heuristic(name: str, *, summary: str = "", replace: bool = False):
    """Register an allocation heuristic factory ``(rng) -> Heuristic``."""
    return HEURISTIC_PLUGINS.register(name, summary=summary, replace=replace)


def register_filter(name: str, *, summary: str = "", replace: bool = False):
    """Register an assignment-filter factory ``(FilterConfig) -> filter``."""
    return FILTER_PLUGINS.register(name, summary=summary, replace=replace)


def register_traffic(name: str, *, summary: str = "", replace: bool = False):
    """Register a traffic-stream factory ``(TrafficContext) -> Iterator[float]``."""
    return TRAFFIC_PLUGINS.register(name, summary=summary, replace=replace)


def register_admission(name: str, *, summary: str = "", replace: bool = False):
    """Register an admission-policy factory ``(SheddingConfig) -> controller``."""
    return ADMISSION_PLUGINS.register(name, summary=summary, replace=replace)


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------

_LOADED_BUILTINS: set[str] = set()
_ENTRY_POINTS_LOADED = False


def _load_builtins(kind: str | None = None) -> None:
    """Import the module(s) registering builtin plugins (idempotent)."""
    kinds = (kind,) if kind is not None else PLUGIN_KINDS
    for k in kinds:
        module = _BUILTIN_MODULES.get(k)
        if module is None or module in _LOADED_BUILTINS:
            continue
        _LOADED_BUILTINS.add(module)
        importlib.import_module(module)


def load_entry_point_plugins(*, reload: bool = False) -> list[str]:
    """Discover third-party plugins via ``entry_points(group="repro.plugins")``.

    Each entry point is loaded once per process; the loaded object is
    either a module (imported for its ``@register_*`` side effects) or a
    callable invoked with no arguments.  A broken distribution is
    skipped — one bad plugin must not take down the CLI — and reported
    in the returned list as ``"name: error"``.
    """
    global _ENTRY_POINTS_LOADED
    if _ENTRY_POINTS_LOADED and not reload:
        return []
    _ENTRY_POINTS_LOADED = True
    report: list[str] = []
    try:
        entry_points = importlib.metadata.entry_points(group=ENTRY_POINT_GROUP)
    except Exception as exc:  # pragma: no cover - metadata backend failure
        return [f"entry-point scan failed: {exc}"]
    for entry_point in entry_points:
        try:
            loaded = entry_point.load()
            if callable(loaded):
                loaded()
            report.append(entry_point.name)
        except Exception as exc:
            report.append(f"{entry_point.name}: {exc}")
    return report


def describe_plugins(kind: str | None = None) -> list[dict[str, str]]:
    """The full plugin catalog (builtins + entry points), as table rows.

    Powers ``repro scenarios plugins``; filter to one ``kind`` if given.
    """
    _load_builtins()
    load_entry_point_plugins()
    registries = (registry_for(kind),) if kind is not None else _REGISTRIES.values()
    rows: list[dict[str, str]] = []
    for registry in registries:
        rows.extend(registry.describe())
    return rows


def plugin_table(rows: list[dict[str, str]]) -> str:
    """Render catalog rows as an aligned text table."""
    if not rows:
        return "(no plugins registered)"
    headers = ("kind", "name", "source", "summary")
    widths = {
        h: max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers[:-1]
    }
    lines = [
        "  ".join(h.ljust(widths[h]) for h in headers[:-1]) + "  summary",
        "  ".join("-" * widths[h] for h in headers[:-1]) + "  -------",
    ]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers[:-1])
            + f"  {row.get('summary', '')}"
        )
    return "\n".join(lines)
