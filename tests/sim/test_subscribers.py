"""The engine's one subscriber channel: ``Engine(hooks=...)``.

Every observer of a run -- the trace collector, the observability
adapter, timelines, the Section VIII extensions -- is an
:class:`~repro.sim.engine.EngineHooks` subscriber.  These tests pin
what the collector records (digests taken from the engine's earlier
dedicated collector channel, so the subscriber must reproduce it
exactly), that subscribers fan out in order, and that subscribing
never steers a run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import build_trial_system
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule, SheddingConfig
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.obs.hooks import ObservingHooks
from repro.obs.manifest import trial_digest
from repro.obs.sinks import MetricsRegistry, RingBufferSink
from repro.obs.timeline import TimelineRecorder
from repro.sim.engine import EngineHooks, Engine
from repro.sim.metrics import TraceCollector
from tests.conftest import tiny_config

# The tests/faults/test_orphan_mapping.py setup: a tight-deadline burst,
# one node outage whose queued work is orphaned, and shedding whose
# queue-depth gate defers/sheds arrivals and whose min_prob floor vetoes
# unlikely placements.
OUTAGE = FaultSchedule((FaultEvent("node_outage", 0, 600.0, 3000.0),))
SHEDDING = SheddingConfig(min_prob=0.7, queue_depth=1.2, defer=50.0, max_defers=1)


def _faulty(remap: bool = True) -> dict:
    return dict(
        faults=OUTAGE,
        fault_policy=FaultPolicy(running="resume", remap=remap),
        shedding=SHEDDING,
    )


@pytest.fixture(scope="module")
def system():
    config = tiny_config(seed=123).with_updates(
        workload={"load_factor_mult": 0.2, "fast_ratio": 10.0}
    )
    return build_trial_system(config)


def _run(system, variant: str, hooks=(), **options):
    chain = build_filter_chain(variant, system.config.filters)
    return Engine(system, build_heuristic("LL"), chain, hooks=hooks, **options).run()


def _digest(collector: TraceCollector) -> str:
    h = hashlib.sha256()
    for name, array in sorted(collector.as_arrays().items()):
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestTraceCollectorContent:
    @pytest.mark.parametrize(
        "variant, options, records, vetoes, digest",
        [
            # Fault-free: mappings plus two energy/robustness discards.
            ("en+rob", {}, 60, 2,
             "d4efe821eae60ea6ab4dde00db171a570e0bf2d967ebba26144bc195f707f59e"),
            # Four orphans re-mapped, one min_prob veto.
            ("none", _faulty(), 62, 1,
             "455b2859710329ff2aea1bfd6cde40ba1a263820ae5cd2d03a8da305f18683be"),
            # Four orphans lost after a failed re-map attempt.
            ("en+rob", _faulty(), 62, 9,
             "7538393dc7301250221ec7adff59722a25a1b960c96d3f8205af778941acf54b"),
            # No re-map attempt: lost orphans are not decisions.
            ("none", _faulty(remap=False), 58, 0,
             "34d888a4b7449402d127f44db8646c06736a94bcc0cba1458a15838ea0821b84"),
        ],
        ids=["fault-free", "outage-remapped", "outage-lost", "outage-no-remap"],
    )
    def test_digest(self, system, variant, options, records, vetoes, digest):
        collector = TraceCollector()
        _run(system, variant, hooks=(collector,), **options)
        pstates = collector.as_arrays()["chosen_pstates"]
        assert (len(pstates), int((pstates < 0).sum())) == (records, vetoes)
        assert _digest(collector) == digest


class _Log(EngineHooks):
    """Appends ``(name, callback, key)`` for every callback to a shared log."""

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_mapped(self, engine, task, core_id, pstate):
        self.log.append((self.name, "mapped", task.task_id, engine.now))

    def on_discarded(self, engine, task):
        self.log.append((self.name, "discarded", task.task_id, engine.now))

    def on_completion(self, engine, core_id, task, t_now):
        self.log.append((self.name, "completion", task.task_id, t_now))

    def on_fault(self, engine, transition):
        self.log.append((self.name, "fault", transition.action, engine.now))

    def on_orphaned(self, engine, task, core_id, disposition):
        self.log.append((self.name, "orphaned", task.task_id, disposition))

    def on_shed(self, engine, task, cause, deferred):
        self.log.append((self.name, "shed", task.task_id, deferred))


class _CompletionsOnly(EngineHooks):
    def __init__(self) -> None:
        self.completed = 0

    def on_completion(self, engine, core_id, task, t_now):
        self.completed += 1


class TestFanOut:
    def test_every_callback_reaches_both_subscribers_in_order(self, system):
        log: list = []
        _run(system, "en+rob", hooks=(_Log("a", log), _Log("b", log)), **_faulty())
        first, second = log[0::2], log[1::2]
        assert {entry[0] for entry in first} == {"a"}
        assert {entry[0] for entry in second} == {"b"}
        assert [entry[1:] for entry in first] == [entry[1:] for entry in second]
        assert {entry[1] for entry in first} == {
            "mapped", "discarded", "completion", "fault", "orphaned", "shed"
        }

    def test_partial_subscriber_runs_under_faults_and_shedding(self, system):
        plain = _run(system, "en+rob", **_faulty())
        counter = _CompletionsOnly()
        counted = _run(system, "en+rob", hooks=(counter,), **_faulty())
        assert counted == plain
        assert counter.completed == plain.num_tasks - plain.discarded

    @pytest.mark.parametrize("options", [{}, _faulty()], ids=["fault-free", "faulty"])
    def test_subscribing_never_steers(self, system, options):
        bare = _run(system, "en+rob", **options)
        adapter = ObservingHooks((RingBufferSink(capacity=10_000),), metrics=MetricsRegistry())
        timeline = TimelineRecorder(50.0)
        observed = _run(system, "en+rob", hooks=(adapter, timeline), **options)
        assert trial_digest(observed) == trial_digest(bare)
        assert len(timeline) > 0
