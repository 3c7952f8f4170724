"""The unified plugin registry: registration, lookup, discovery, catalog."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.experiments.runner import VariantSpec, policy_for
from repro.filters.chain import build_filter_chain, canonical_variant
from repro.heuristics.registry import HEURISTICS, build_heuristic
from repro.registry import (
    FILTER_PLUGINS,
    HEURISTIC_PLUGINS,
    PLUGIN_KINDS,
    TRAFFIC_PLUGINS,
    PluginRegistry,
    UnknownPluginError,
    describe_plugins,
    load_entry_point_plugins,
    plugin_table,
    register_heuristic,
    registry_for,
)
from repro.sim.engine import Engine
from tests.conftest import tiny_config


class TestLookup:
    def test_builtin_names_registered(self):
        assert HEURISTIC_PLUGINS.names() == (
            "SQ", "MECT", "LL", "Random", "MET", "OLB", "KPB", "MEEC",
        )
        assert set(FILTER_PLUGINS.names()) == {"en", "rob"}
        assert set(TRAFFIC_PLUGINS.names()) == {
            "poisson", "diurnal", "mmpp", "burst", "replay",
        }
        assert PLUGIN_KINDS == ("heuristic", "filter", "traffic")

    def test_case_insensitive_mect(self):
        """Regression: 'mect' and 'MECT' must resolve to the same plugin."""
        assert HEURISTIC_PLUGINS.canonical("mect") == "MECT"
        assert HEURISTIC_PLUGINS.canonical("MECT") == "MECT"
        assert HEURISTIC_PLUGINS.get("mect") is HEURISTIC_PLUGINS.get("MECT")
        assert type(build_heuristic("mect")) is type(build_heuristic("MECT"))

    def test_case_insensitive_trial_results_identical(self, tiny_system):
        """The canonicalized name reaches the rng labels: results match."""
        lower = Engine(tiny_system, *policy_for(tiny_system, VariantSpec("MECT", "en+rob"))).run()
        # Build the spec the way a case-sloppy caller would.
        spec = VariantSpec(
            HEURISTIC_PLUGINS.canonical("mect"), canonical_variant("EN+ROB")
        )
        upper = Engine(tiny_system, *policy_for(tiny_system, spec)).run()
        assert lower == upper

    def test_unknown_name_is_keyerror_with_suggestion(self):
        with pytest.raises(UnknownPluginError) as info:
            HEURISTIC_PLUGINS.get("MECTT")
        assert isinstance(info.value, KeyError)
        assert info.value.suggestion == "MECT"
        assert "did you mean 'MECT'" in str(info.value)
        with pytest.raises(KeyError):
            build_heuristic("OLBX")

    def test_contains_and_iter(self):
        assert "mect" in HEURISTIC_PLUGINS
        assert "nope" not in HEURISTIC_PLUGINS
        assert list(iter(HEURISTIC_PLUGINS)) == list(HEURISTIC_PLUGINS.names())
        assert list(iter(HEURISTIC_PLUGINS))[: len(HEURISTICS)] == list(HEURISTICS)

    def test_registry_for(self):
        for kind in PLUGIN_KINDS:
            assert registry_for(kind).kind == kind
        with pytest.raises(KeyError):
            registry_for("bogus")


class TestRegistration:
    def test_runtime_registration_and_unregister(self, tiny_system):
        """A third-party heuristic registered at runtime runs end to end."""

        @register_heuristic("greedy-test", summary="test-only heuristic")
        def _make(rng=None):
            return build_heuristic("SQ")  # reuse SQ behavior under a new name

        try:
            assert HEURISTIC_PLUGINS.canonical("GREEDY-TEST") == "greedy-test"
            spec = VariantSpec("greedy-test", "none")
            result = Engine(tiny_system, *policy_for(tiny_system, spec)).run()
            assert result.num_tasks == tiny_system.config.workload.num_tasks
        finally:
            HEURISTIC_PLUGINS.unregister("greedy-test")
        assert "greedy-test" not in HEURISTIC_PLUGINS

    def test_duplicate_rejected_unless_replace(self):
        registry = PluginRegistry("heuristic")
        registry.add("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.add("X", lambda: 2)
        registry.add("x", lambda: 3, replace=True)
        assert registry.create("x") == 3

    def test_reserved_characters_rejected(self):
        registry = PluginRegistry("filter")
        for bad in ("a+b", "a/b", "", "   "):
            with pytest.raises(ValueError):
                registry.add(bad, lambda: None)

    def test_summary_defaults_to_docstring(self):
        registry = PluginRegistry("traffic")

        def factory():
            """First line becomes the summary.

            Not this one.
            """

        registry.add("doc", factory)
        assert registry.info("doc").summary == "First line becomes the summary."


class TestDeprecationShims:
    """The pre-registry shims are gone; the build paths never warn."""

    def test_build_paths_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            build_heuristic("SQ")
            build_filter_chain("en+rob")
        assert caught == []

    def test_random_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            build_heuristic("Random")
        assert build_heuristic("random", np.random.default_rng(1)).name == "Random"


class TestVariants:
    def test_canonical_variant(self):
        assert canonical_variant("EN+ROB") == "en+rob"
        assert canonical_variant("None") == "none"
        assert canonical_variant("rob+en") == "rob+en"  # order preserved

    def test_bad_variant_shapes(self):
        for bad in ("en+en", "en+", "+rob"):
            with pytest.raises(KeyError):
                canonical_variant(bad)
        with pytest.raises(KeyError, match="fast"):
            build_filter_chain("fast")

    def test_chain_construction(self):
        config = tiny_config().filters
        chain = build_filter_chain("en+rob", config)
        assert chain.label == "en+rob"
        assert len(build_filter_chain("none", config)) == 0


class TestDiscovery:
    def test_entry_points_loaded_once(self, monkeypatch):
        """Entry-point discovery imports each hook once and reports errors."""
        import repro.registry as registry_module

        calls = []

        class FakeEntryPoint:
            name = "fake-plugin"

            def load(self):
                def hook():
                    calls.append("loaded")
                    register_heuristic("ep-test", summary="from entry point")(
                        lambda rng=None: build_heuristic("SQ")
                    )
                return hook

        class BrokenEntryPoint:
            name = "broken-plugin"

            def load(self):
                raise ImportError("no such module")

        monkeypatch.setattr(
            registry_module.importlib.metadata,
            "entry_points",
            lambda group: [FakeEntryPoint(), BrokenEntryPoint()],
        )
        try:
            report = load_entry_point_plugins(reload=True)
            assert report == ["fake-plugin", "broken-plugin: no such module"]
            assert calls == ["loaded"]
            assert "ep-test" in HEURISTIC_PLUGINS
            # Memoized: a plain call does not re-run the hooks.
            assert load_entry_point_plugins() == []
            assert calls == ["loaded"]
        finally:
            HEURISTIC_PLUGINS.unregister("ep-test")

    def test_describe_and_table(self):
        rows = describe_plugins()
        kinds = {row["kind"] for row in rows}
        assert kinds == set(PLUGIN_KINDS)
        heuristic_rows = describe_plugins("heuristic")
        assert [r["name"] for r in heuristic_rows] == list(HEURISTIC_PLUGINS.names())
        assert [r["name"] for r in heuristic_rows][: len(HEURISTICS)] == list(HEURISTICS)
        text = plugin_table(rows)
        assert "MECT" in text and "poisson" in text
        assert plugin_table([]) == "(no plugins registered)"


class TestTrafficPlugins:
    def test_replay_is_not_generative(self):
        with pytest.raises(ValueError, match="replay"):
            TRAFFIC_PLUGINS.create("replay", None)

    def test_generative_streams_are_monotone(self, tiny_system):
        from repro.registry import TrafficContext

        for name in ("poisson", "diurnal", "mmpp", "burst"):
            ctx = TrafficContext(
                rng=rng_mod.stream(123, "test", name),
                mean_rate=0.01,
                phase_length=500.0,
                swing=0.5,
                rate_mult=1.0,
                workload=tiny_system.config.workload,
                rates=tiny_system.workload.rates,
            )
            stream = TRAFFIC_PLUGINS.create(name, ctx)
            times = [t for _, t in zip(range(50), stream)]
            assert len(times) == 50
            assert all(b >= a for a, b in zip(times, times[1:])), name
