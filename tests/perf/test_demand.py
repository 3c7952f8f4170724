"""The candidate columns are built on demand.

A mapping computes a busy core's ready pmf only when something reads
that core's ECT or rho: SQ and Random read neither, so the engine's
``decision_rho`` (the chosen candidate's rho) is the only reader, and
MECT under the energy filter reads ECT only for cores with an
energy-feasible candidate.  ``CoreState.ready_pmf`` calls are counted
per mapping step.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro.experiments.runner import VariantSpec, policy_for
from repro.heuristics.base import Heuristic
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState
from tests.conftest import micro_config


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


class _Spy(Heuristic):
    """Delegating heuristic that records, per mapping, what it saw."""

    def __init__(self, inner: Heuristic, calls: list[int]) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = calls
        self.engine: Engine | None = None
        # Per mapping: (index into calls at select, feasible cores,
        # chosen core or None, busy cores at the time).
        self.steps: list[tuple[int, set[int], int | None, int]] = []

    def select(self, cands, ctx):
        at = len(self.calls)
        feasible = set(cands.core_ids[cands.mask].tolist())
        index = self.inner.select(cands, ctx)
        chosen = None if index is None else int(cands.core_ids[index])
        busy = sum(core.running is not None for core in self.engine.cores)
        self.steps.append((at, feasible, chosen, busy))
        return index


def _calls_per_mapping(system, heuristic, variant, monkeypatch):
    """Run one trial; per mapping, the cores whose ready pmf it computed.

    A mapping's calls are those from its own ``select`` up to the next
    mapping's: the heuristic, the engine's ``decision_rho`` read and the
    next arrival's candidate build all fall in that window.
    """
    calls: list[int] = []
    ready_pmf = CoreState.ready_pmf

    def counted(self, t_now):
        calls.append(self.core_id)
        return ready_pmf(self, t_now)

    monkeypatch.setattr(CoreState, "ready_pmf", counted)
    h, chain = policy_for(system, VariantSpec(heuristic, variant))
    spy = _Spy(h, calls)
    engine = Engine(system, spy, chain)
    spy.engine = engine
    engine.run()
    bounds = [at for at, *_ in spy.steps] + [len(calls)]
    assert bounds[0] == 0  # the first candidate build computes nothing
    return [
        (calls[lo:hi], feasible, chosen, busy)
        for (lo, hi), (_, feasible, chosen, busy) in zip(zip(bounds, bounds[1:]), spy.steps)
    ]


@pytest.mark.parametrize("heuristic,variant", [("SQ", "none"), ("Random", "en")])
def test_queue_and_random_policies_compute_only_the_chosen_core(
    system, heuristic, variant, monkeypatch
):
    steps = _calls_per_mapping(system, heuristic, variant, monkeypatch)
    for called, _, chosen, _ in steps:
        assert len(called) <= 1
        assert set(called) <= {chosen}
    # The run had mappings with several busy cores, each of which an
    # eager build would have computed.
    assert max(busy for *_, busy in steps) >= 2


def test_mect_computes_only_energy_feasible_cores(system, monkeypatch):
    steps = _calls_per_mapping(system, "MECT", "en", monkeypatch)
    for called, feasible, _, _ in steps:
        assert len(called) == len(set(called))  # at most once per arrival
        assert set(called) <= feasible
    assert sum(len(called) for called, *_ in steps) > 0


@pytest.mark.parametrize(
    "heuristic,variant,reads_ect",
    [("SQ", "none", False), ("Random", "en", False), ("MECT", "en", True)],
)
def test_a_column_is_allocated_only_when_read(system, heuristic, variant, reads_ect, monkeypatch):
    columns = []
    build = CandidateBuilder.build

    def recorded(self, task, t_now):
        cands = build(self, task, t_now)
        columns.append(cands._columns)
        return cands

    monkeypatch.setattr(CandidateBuilder, "build", recorded)
    h, chain = policy_for(system, VariantSpec(heuristic, variant))
    Engine(system, h, chain).run()
    assert columns
    # Only MECT reads ECT; a mapping's decision reads one rho (an arrival
    # whose candidates were all filtered out reads none).
    assert any(c._ect_done is not None for c in columns) is reads_ect
    assert any(c._rho_done is not None for c in columns)
