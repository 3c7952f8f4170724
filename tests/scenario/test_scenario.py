"""Scenario construction, validation, serialization, and resolution."""

from __future__ import annotations

import json
import tomllib

import pytest

from repro.config import LambdaMode, SimulationConfig
from repro.api import run_scenario
from repro.faults import FaultEvent, FaultSchedule, SheddingConfig
from repro.scenario import (
    MODES,
    SCENARIO_FORMAT,
    EnsembleSettings,
    FaultSettings,
    Scenario,
    ScenarioError,
)
from repro.service import ServiceConfig
from tests.conftest import tiny_config


class TestConstruction:
    def test_defaults(self):
        scenario = Scenario()
        assert scenario.heuristic == "LL"
        assert scenario.filters == "en+rob"
        assert scenario.mode == "trial"
        assert scenario.label == "LL/en+rob"

    def test_policy_names_canonicalized(self):
        scenario = Scenario("mect", "EN+ROB", mode="Trial")
        assert scenario.heuristic == "MECT"
        assert scenario.filters == "en+rob"
        assert scenario.mode == "trial"

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="heuristic"):
            Scenario(heuristic="OLBX")

    def test_unknown_filter_variant(self):
        with pytest.raises(ValueError, match="filter"):
            Scenario(filters="fast+rob")

    def test_unknown_mode_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'ensemble'"):
            Scenario(mode="ensembel")

    def test_service_must_not_embed_fault_layer(self):
        service = ServiceConfig(traffic="replay", shedding=SheddingConfig(queue_depth=4.0))
        with pytest.raises(ValueError, match="scenario-level"):
            Scenario(mode="service", service=service)

    def test_ensemble_rejects_faults_and_shedding(self):
        faults = FaultSettings(mtbf=1000.0, mttr=100.0, horizon=5000.0)
        with pytest.raises(ValueError, match="not ensembles"):
            Scenario(mode="ensemble", faults=faults)
        with pytest.raises(ValueError, match="not ensembles"):
            Scenario(mode="ensemble", shedding=SheddingConfig(queue_depth=4.0))
        # An inactive fault section is fine (it produces no schedule).
        Scenario(mode="ensemble", faults=FaultSettings())

    def test_resolved_config_overrides(self):
        base = tiny_config(seed=5)
        scenario = Scenario(seed=9, num_tasks=40, config=base)
        resolved = scenario.resolved_config()
        assert resolved.seed == 9
        assert resolved.workload.num_tasks == 40
        # The base object is untouched.
        assert base.seed == 5 and base.workload.num_tasks == 60

    def test_resolved_config_defaults_to_paper(self):
        assert Scenario().resolved_config() == SimulationConfig()


class TestFaultSettings:
    def test_scope_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'node'"):
            FaultSettings(scope="nodes")

    def test_running_policy_validated(self):
        with pytest.raises(ValueError, match="'lost' or 'resume'"):
            FaultSettings(running="pause")

    def test_generator_trio_all_or_none(self):
        with pytest.raises(ValueError, match="mtbf, mttr and horizon"):
            FaultSettings(mtbf=1000.0)

    def test_events_and_generator_exclusive(self):
        event = FaultEvent("node_outage", 0, 10.0, 5.0)
        with pytest.raises(ValueError, match="not both"):
            FaultSettings(mtbf=1.0, mttr=1.0, horizon=1.0, events=(event,))

    def test_inactive_resolves_to_nothing(self):
        assert FaultSettings().resolve(tiny_config()) == (None, None)
        assert Scenario().resolved_faults() == (None, None)

    def test_explicit_events_resolve_verbatim(self):
        event = FaultEvent("node_outage", 1, 10.0, 5.0)
        settings = FaultSettings(events=(event,), running="resume", remap=False)
        schedule, policy = settings.resolve(tiny_config())
        assert schedule.events == (event,)
        assert policy.running == "resume" and policy.remap is False

    def test_generator_defaults_to_config_seed_and_nodes(self):
        config = tiny_config(seed=42)
        settings = FaultSettings(mtbf=500.0, mttr=50.0, horizon=2000.0)
        schedule, _ = settings.resolve(config)
        again, _ = settings.resolve(config)
        assert schedule.events == again.events  # deterministic given config
        # All targets drawn from the config's node count.
        assert all(e.target < config.cluster.num_nodes for e in schedule.events)
        # A different master seed draws a different schedule.
        other, _ = settings.resolve(tiny_config(seed=43))
        assert other.events != schedule.events
        # An explicit fault seed pins the schedule across config seeds.
        pinned = FaultSettings(mtbf=500.0, mttr=50.0, horizon=2000.0, seed=7)
        a, _ = pinned.resolve(tiny_config(seed=42))
        b, _ = pinned.resolve(tiny_config(seed=43))
        assert a.events == b.events

    def test_core_scope_counts_the_trial_clusters_cores(self):
        scenario = Scenario(
            seed=5,
            num_tasks=60,
            faults=FaultSettings(
                mtbf=20000.0, mttr=2000.0, horizon=20000.0, scope="core"
            ),
        )
        schedule, _ = scenario.resolved_faults()
        cluster = scenario.build_system().cluster
        assert schedule == FaultSchedule.generate(
            num_targets=cluster.num_cores,
            horizon=20000.0,
            mtbf=20000.0,
            mttr=2000.0,
            seed=5,
            scope="core",
        )
        assert max(e.target for e in schedule.events) >= cluster.num_nodes

    def test_slowdowns_cap_the_fastest_pstate_by_default(self):
        assert FaultSettings().pstate_floor == 1
        slow = FaultSettings(
            mtbf=3000.0, mttr=3000.0, horizon=20000.0, scope="slowdown"
        )
        scenario = Scenario(seed=7, num_tasks=200, faults=slow)
        schedule, _ = scenario.resolved_faults()
        assert schedule.events
        assert all(e.pstate_floor == 1 for e in schedule.events)
        clean = run_scenario(Scenario(seed=7, num_tasks=200))
        assert run_scenario(scenario) != clean


class TestResolvedService:
    def test_trial_scenario_defaults_to_replay(self):
        service = Scenario().resolved_service()
        assert service.traffic == "replay"
        assert service.faults is None and service.shedding is None

    def test_scenario_shedding_folds_into_service(self):
        shedding = SheddingConfig(queue_depth=4.0)
        scenario = Scenario(
            mode="service",
            service=ServiceConfig(traffic="poisson", task_limit=100),
            shedding=shedding,
        )
        resolved = scenario.resolved_service()
        assert resolved.traffic == "poisson"
        assert resolved.shedding == shedding

    def test_scenario_faults_fold_into_service(self):
        event = FaultEvent("node_outage", 0, 10.0, 5.0)
        scenario = Scenario(faults=FaultSettings(events=(event,)))
        resolved = scenario.resolved_service()
        assert resolved.faults.events == (event,)
        assert resolved.fault_policy.running == "lost"

    def test_resolved_ensemble_defaults(self):
        assert Scenario().resolved_ensemble() == EnsembleSettings()
        custom = EnsembleSettings(num_trials=4, n_jobs=2)
        assert Scenario(mode="ensemble", ensemble=custom).resolved_ensemble() is custom


class TestFromDict:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="did you mean 'policy'"):
            Scenario.from_dict({"polcy": {}})

    def test_unknown_policy_key(self):
        with pytest.raises(ScenarioError, match=r"\[policy\]"):
            Scenario.from_dict({"policy": {"heristic": "LL"}})

    def test_unknown_sim_section(self):
        with pytest.raises(ScenarioError, match="did you mean 'workload'"):
            Scenario.from_dict({"sim": {"worload": {}}})

    def test_unknown_nested_key_did_you_mean(self):
        with pytest.raises(ScenarioError, match="did you mean 'num_tasks'"):
            Scenario.from_dict({"sim": {"workload": {"num_taks": 100}}})

    def test_unknown_format_rejected(self):
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            Scenario.from_dict({"format": "repro.scenario/999"})

    def test_enum_values_coerced(self):
        scenario = Scenario.from_dict(
            {"sim": {"workload": {"lambda_mode": "paper"}}}
        )
        assert scenario.config.workload.lambda_mode is LambdaMode("paper")
        with pytest.raises(ScenarioError, match="bad value 'sometimes'"):
            Scenario.from_dict({"sim": {"workload": {"lambda_mode": "sometimes"}}})

    def test_bad_section_values_wrapped(self):
        with pytest.raises(ScenarioError, match=r"invalid \[ensemble\]"):
            Scenario.from_dict({"ensemble": {"num_trials": 0}})
        with pytest.raises(ScenarioError, match="table"):
            Scenario.from_dict({"policy": "LL"})

    def test_fault_events_parsed(self):
        scenario = Scenario.from_dict(
            {
                "faults": {
                    "events": [
                        {"kind": "node_outage", "target": 0, "start": 5.0, "duration": 2.0}
                    ],
                    "running": "resume",
                }
            }
        )
        assert scenario.faults.events == (FaultEvent("node_outage", 0, 5.0, 2.0),)
        assert scenario.faults.running == "resume"


class TestRoundTrip:
    def rich(self) -> Scenario:
        return Scenario(
            "mect",
            "EN+ROB",
            seed=9,
            num_tasks=80,
            config=tiny_config(seed=9),
            name="rich",
            mode="service",
            service=ServiceConfig(traffic="poisson", rate_mult=1.5, task_limit=120),
            faults=FaultSettings(events=(FaultEvent("node_outage", 0, 10.0, 5.0),)),
            shedding=SheddingConfig(queue_depth=4.0, defer=30.0),
        )

    def test_dict_round_trip(self):
        scenario = self.rich()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_toml_round_trip_and_digest(self, tmp_path):
        scenario = self.rich()
        path = scenario.to_file(tmp_path / "rich.toml")
        loaded = Scenario.from_file(path)
        assert loaded == scenario
        assert loaded.digest() == scenario.digest()

    def test_json_round_trip_matches_toml(self, tmp_path):
        scenario = self.rich()
        via_json = Scenario.from_file(scenario.to_file(tmp_path / "rich.json"))
        via_toml = Scenario.from_file(scenario.to_file(tmp_path / "rich.toml"))
        assert via_json == via_toml == scenario
        assert via_json.digest() == via_toml.digest()

    def test_serialization_is_sparse(self):
        data = Scenario(name="sparse").to_dict()
        assert data == {
            "format": SCENARIO_FORMAT,
            "name": "sparse",
            "mode": "trial",
            "policy": {"heuristic": "LL", "filters": "en+rob"},
        }
        # A default-valued config section collapses away entirely.
        toml_text = Scenario(seed=3).to_toml()
        assert tomllib.loads(toml_text) == {
            "format": SCENARIO_FORMAT,
            "mode": "trial",
            "seed": 3,
            "policy": {"heuristic": "LL", "filters": "en+rob"},
        }

    def test_digest_ignores_spelling_not_content(self):
        assert Scenario("mect").digest() == Scenario("MECT").digest()
        assert Scenario("MECT").digest() != Scenario("LL").digest()

    def test_to_json_parses(self):
        payload = json.loads(self.rich().to_json())
        assert payload["format"] == SCENARIO_FORMAT


class TestFromFile:
    def test_invalid_toml_names_the_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("mode = [unclosed\n")
        with pytest.raises(ScenarioError, match="broken.toml.*invalid TOML"):
            Scenario.from_file(path)

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ScenarioError, match="broken.json.*invalid JSON"):
            Scenario.from_file(path)

    def test_semantic_errors_name_the_file(self, tmp_path):
        path = tmp_path / "typo.toml"
        path.write_text('[policy]\nheuristic = "MECTT"\n')
        with pytest.raises(ScenarioError, match="typo.toml.*did you mean 'MECT'"):
            Scenario.from_file(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("mode: trial\n")
        with pytest.raises(ScenarioError, match="use .toml or .json"):
            Scenario.from_file(path)
        with pytest.raises(ScenarioError, match="use .toml or .json"):
            Scenario().to_file(tmp_path / "scenario.yaml")


class TestCommittedExamples:
    def test_examples_load_and_round_trip(self, tmp_path):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
        files = sorted(root.glob("*.toml"))
        assert len(files) >= 3
        for path in files:
            scenario = Scenario.from_file(path)
            assert scenario.mode in MODES
            rewritten = scenario.to_file(tmp_path / path.name)
            assert Scenario.from_file(rewritten) == scenario
