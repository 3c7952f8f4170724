"""Shared fixtures and test-wide configuration.

``tiny_system`` / ``small_system`` are session-scoped because building an
execution-time table discretizes thousands of gamma laws; tests must not
mutate them (engines copy what they need — each Engine builds its own
core states and ledger).

Hypothesis runs under a registered profile: the default ``ci`` profile is
*derandomized*, so the tier-1 suite is bit-for-bit repeatable run to run
(the determinism the engine itself promises).  Set
``HYPOTHESIS_PROFILE=dev`` locally to explore fresh random examples.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import SimulationConfig, build_trial_system
from repro.perf.kernel_cache import KernelCache
from repro.sim.system import TrialSystem
from repro.workload.task import Task

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def micro_config(seed: int = 1, **updates) -> SimulationConfig:
    """The smallest config that still exercises queueing (30 tasks, 2 nodes).

    Shared by the engine edge-case, determinism and observability tests,
    which previously each rebuilt it by hand.  Extra keyword sections are
    forwarded to :meth:`SimulationConfig.with_updates`.
    """
    cfg = SimulationConfig(seed=seed).with_updates(
        workload={
            "num_tasks": 30,
            "num_task_types": 5,
            "burst_head": 10,
            "burst_tail": 10,
        },
        cluster={"num_nodes": 2},
    )
    return cfg.with_updates(**updates) if updates else cfg


def tiny_config(seed: int = 123) -> SimulationConfig:
    """A fast-to-build configuration for unit tests."""
    return SimulationConfig(seed=seed).with_updates(
        workload={
            "num_tasks": 60,
            "num_task_types": 12,
            "burst_head": 15,
            "burst_tail": 15,
        },
        cluster={"num_nodes": 3},
    )


def small_config(seed: int = 11) -> SimulationConfig:
    """A paper-shaped but reduced configuration for integration tests."""
    cfg = SimulationConfig(seed=seed)
    return cfg.with_updates(
        workload={"num_tasks": 250, "burst_head": 50, "burst_tail": 50}
    )


@pytest.fixture(scope="session")
def micro_system() -> TrialSystem:
    """Session-wide micro trial system (do not mutate)."""
    return build_trial_system(micro_config())


@pytest.fixture(scope="session")
def tiny_system() -> TrialSystem:
    """Session-wide tiny trial system (do not mutate)."""
    return build_trial_system(tiny_config())


@pytest.fixture(scope="session")
def small_system() -> TrialSystem:
    """Session-wide reduced paper-shaped system (do not mutate)."""
    return build_trial_system(small_config())


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(2011)


class NeverHitCache(KernelCache):
    """The uncached reference: every lookup misses and nothing is stored.

    Passed as ``kernel_cache=``, it makes every truncation compute its
    tail fresh, which is what the parity tests hold the real cache to.
    """

    def get(self, key):
        self.misses += 1
        return None

    def put(self, key, kernel) -> int:
        return 0


class StubEngine:
    """Drives ``EngineHooks`` subscribers without running a simulation.

    Each feed sets the engine state subscribers read (``now``,
    ``in_system``, ``avg_queue_depth``) and calls the callback, with the
    engine's own signature, on every hook in order.  Completions build a
    task ``latency`` seconds old whose ``deadline`` makes it on time or
    late.
    """

    def __init__(self, *hooks) -> None:
        self.hooks = hooks
        self.now = 0.0
        self.in_system = 0
        self.avg_queue_depth = 0.0
        self._ids = 0

    def _at(self, t: float, in_system: int | None, queue_depth: float | None) -> Task:
        self.now = t
        if in_system is not None:
            self.in_system = in_system
        if queue_depth is not None:
            self.avg_queue_depth = queue_depth
        self._ids += 1
        return Task(task_id=self._ids, type_id=0, arrival=t, deadline=t)

    def mapped(self, t, *, in_system=None, queue_depth=None) -> None:
        task = self._at(t, in_system, queue_depth)
        for hook in self.hooks:
            hook.on_mapped(self, task, 0, 0)

    def discarded(self, t, *, in_system=None) -> None:
        task = self._at(t, in_system, None)
        for hook in self.hooks:
            hook.on_discarded(self, task)

    def completed(self, t, *, latency=1.0, on_time=True, in_system=None) -> None:
        self._at(t, in_system, None)
        arrival = t - latency
        # A late task's deadline is its arrival, ``latency`` before ``t``.
        task = Task(
            task_id=self._ids,
            type_id=0,
            arrival=arrival,
            deadline=t if on_time else arrival,
        )
        for hook in self.hooks:
            hook.on_completion(self, 0, task, t)

    def shed(self, t, *, deferred=False, in_system=None) -> None:
        task = self._at(t, in_system, None)
        for hook in self.hooks:
            hook.on_shed(self, task, "queue_depth", deferred)

    def orphaned(self, t, disposition, *, in_system=None) -> None:
        task = self._at(t, in_system, None)
        for hook in self.hooks:
            hook.on_orphaned(self, task, 0, disposition)
