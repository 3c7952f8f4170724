"""Property suite: every representable scenario survives the round trip.

The generator draws from the whole declarative surface — policy spelling
(any case), seed / task-count overrides, config sections, run modes,
ensemble settings, fault layers (episode lists and renewal generators),
and shedding thresholds — and asserts that serialize-then-parse is the
identity and the digest is stable, through the dict form and through
real ``.toml`` / ``.json`` files.
"""

from __future__ import annotations

import tomllib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, SheddingConfig
from repro.registry import HEURISTIC_PLUGINS
from repro.scenario import EnsembleSettings, FaultSettings, Scenario
from tests.conftest import tiny_config


def _any_case(name: str) -> st.SearchStrategy[str]:
    return st.sampled_from([name, name.lower(), name.upper()])


heuristics = st.sampled_from(HEURISTIC_PLUGINS.names()).flatmap(_any_case)
variants = st.sampled_from(["none", "en", "rob", "en+rob", "rob+en"]).flatmap(_any_case)

fault_events = st.sampled_from(
    ["node_outage", "core_outage", "node_slowdown"]
).flatmap(
    lambda kind: st.builds(
        FaultEvent,
        kind=st.just(kind),
        target=st.integers(min_value=0, max_value=2),
        start=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32),
        duration=st.floats(min_value=1.0, max_value=500.0, allow_nan=False, width=32),
        pstate_floor=(
            st.integers(min_value=0, max_value=3)
            if kind == "node_slowdown"
            else st.just(0)
        ),
    )
)

fault_settings = st.one_of(
    st.builds(
        FaultSettings,
        events=st.lists(fault_events, min_size=1, max_size=3).map(tuple),
        running=st.sampled_from(["lost", "resume"]),
        remap=st.booleans(),
    ),
    st.builds(
        FaultSettings,
        mtbf=st.floats(min_value=100.0, max_value=1e5, allow_nan=False, width=32),
        mttr=st.floats(min_value=10.0, max_value=1e4, allow_nan=False, width=32),
        horizon=st.floats(min_value=100.0, max_value=1e5, allow_nan=False, width=32),
        num_targets=st.none() | st.integers(min_value=1, max_value=4),
        scope=st.sampled_from(["node", "core", "slowdown"]),
        seed=st.none() | st.integers(min_value=0, max_value=2**31),
        running=st.sampled_from(["lost", "resume"]),
    ),
)

@st.composite
def shedding_configs(draw) -> SheddingConfig:
    # ``defer`` only together with ``queue_depth``: a defer with no
    # threshold that defers is refused.
    queue_depth = draw(
        st.none() | st.floats(min_value=0.5, max_value=50.0, allow_nan=False, width=32)
    )
    defer = None
    if queue_depth is not None:
        defer = draw(st.none() | st.floats(min_value=1.0, max_value=600.0, allow_nan=False, width=32))
    return SheddingConfig(
        queue_depth=queue_depth,
        dispatch_prob=draw(
            st.none() | st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
        ),
        defer=defer,
        max_defers=draw(st.integers(min_value=0, max_value=5)),
    )

ensembles = st.builds(
    EnsembleSettings,
    num_trials=st.integers(min_value=1, max_value=50),
    base_seed=st.none() | st.integers(min_value=0, max_value=2**31),
    n_jobs=st.integers(min_value=1, max_value=8),
    specs=st.sampled_from([(), ("*/*",), ("ll/*", "SQ/none"), ("Random/EN+ROB",)]),
)


@st.composite
def scenarios(draw) -> Scenario:
    mode = draw(st.sampled_from(["trial", "ensemble", "service"]))
    kwargs = {
        "heuristic": draw(heuristics),
        "filters": draw(variants),
        "seed": draw(st.none() | st.integers(min_value=0, max_value=2**31)),
        "num_tasks": draw(st.none() | st.integers(min_value=1, max_value=2000)),
        "config": draw(st.none() | st.just(tiny_config(seed=draw(st.integers(0, 99))))),
        "name": draw(st.sampled_from(["", "prop-test", 'quo"ted', "back\\slash"])),
        "mode": mode,
    }
    if mode == "ensemble":
        kwargs["ensemble"] = draw(st.none() | ensembles)
        if kwargs["ensemble"] is not None and kwargs["ensemble"].specs:
            # The specs name the cells; a [policy] cell next to them is refused.
            del kwargs["heuristic"], kwargs["filters"]
    else:
        if draw(st.booleans()):
            kwargs["faults"] = draw(fault_settings)
        kwargs["shedding"] = draw(st.none() | shedding_configs())
    return Scenario(**kwargs)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_dict_round_trip_is_identity(scenario):
    assert Scenario.from_dict(scenario.to_dict()) == scenario


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_toml_text_round_trip(scenario):
    parsed = Scenario.from_dict(tomllib.loads(scenario.to_toml()))
    assert parsed == scenario
    assert parsed.digest() == scenario.digest()


@given(scenario=scenarios())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_file_round_trip_both_formats(scenario, tmp_path):
    via_toml = Scenario.from_file(scenario.to_file(tmp_path / "s.toml"))
    via_json = Scenario.from_file(scenario.to_file(tmp_path / "s.json"))
    assert via_toml == scenario
    assert via_json == scenario
    assert via_toml.digest() == via_json.digest() == scenario.digest()


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_digest_depends_only_on_content(scenario):
    clone = Scenario.from_dict(scenario.to_dict())
    assert clone.digest() == scenario.digest()
    assert clone.to_toml() == scenario.to_toml()
