"""repro — reproduction of Young et al., "Energy-Constrained Dynamic
Resource Allocation in a Heterogeneous Computing Environment" (ICPP 2011).

The package simulates an oversubscribed, heterogeneous, DVFS-capable
cluster processing a bursty stream of deadline-constrained tasks under a
total energy budget, and reruns the paper's evaluation of four
immediate-mode heuristics (SQ, MECT, LL, Random) crossed with two generic
assignment filters (energy fair-share, robustness threshold).

Quickstart
----------
>>> from repro import api
>>> result = api.run_scenario(api.Scenario("LL", "en+rob", seed=42, num_tasks=100))
>>> 0 <= result.missed <= 100
True

The same trial one layer down, for scripts that attach their own
engine subscribers:

>>> from repro.heuristics import LightestLoad
>>> from repro.filters import build_filter_chain
>>> from repro.sim import Engine
>>> system = api.Scenario("LL", "en+rob", seed=42, num_tasks=100).build_system()
>>> result = Engine(system, LightestLoad(), build_filter_chain("en+rob")).run()
>>> 0 <= result.missed <= 100
True

Scenario files (one TOML per experiment) are the declarative front
door; :mod:`repro.scenario` parses them and :func:`repro.api.run_scenario`
executes them.  Policies resolve by name through :mod:`repro.registry`,
which third-party packages can extend.

Subpackages
-----------
``repro.stoch``        pmf algebra (convolve / shift / truncate / CDF)
``repro.cluster``      nodes, P-states, CMOS power, energy ledger
``repro.workload``     CVB ETC matrix, pmf tables, bursty arrivals, deadlines
``repro.robustness``   Section IV completion-time and rho machinery
``repro.heuristics``   SQ, MECT, LL, Random
``repro.filters``      energy and robustness filters
``repro.sim``          discrete-event engine
``repro.obs``          observability: events, sinks, metrics, manifests
``repro.experiments``  ensembles, figures, statistics, reports
``repro.extensions``   Section VIII future-work features
"""

from repro._version import __version__
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
from repro.sim.system import build_trial_system

__all__ = [
    "__version__",
    "ClusterConfig",
    "EnergyConfig",
    "FilterConfig",
    "GridConfig",
    "IdlePowerMode",
    "LambdaMode",
    "SimulationConfig",
    "WorkloadConfig",
    "build_trial_system",
]
