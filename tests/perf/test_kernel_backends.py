"""Backend resolution, configuration plumbing, and the dispatch seam.

Covers the :mod:`repro.perf.kernels` machinery itself — name
validation, env override, warn-and-fallback, the ``set_kernel_backend``
nesting protocol — plus the ``PerfConfig.backend`` knob and the CLI
flag.  Numerical agreement of the kernels lives in
``test_kernel_equivalence.py``; engine-level parity in
``test_parity.py`` / ``test_ensemble_parity.py``.

Tests that need a *compiled* backend use whichever one
``available_backends`` reports (the cext backend compiles with the host
toolchain) and skip when the environment provides none — that skip is
itself the fallback contract working.
"""

from __future__ import annotations

import warnings

import pytest

from repro.perf import PerfConfig
from repro.perf import kernels as kernels_mod
from repro.perf.kernels import (
    BACKEND_CHOICES,
    available_backends,
    default_backend_name,
    describe_backends,
    resolve_backend,
)
from repro.stoch import ops as ops_mod
from repro.stoch.ops import set_kernel_backend


def compiled_backend_names() -> tuple[str, ...]:
    """The compiled backends runnable in this environment (may be empty)."""
    return tuple(n for n in available_backends() if n != "numpy")


class TestResolution:
    def test_numpy_resolves_to_none(self):
        assert resolve_backend("numpy") is None

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    def test_available_always_includes_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(BACKEND_CHOICES)

    def test_explicit_unavailable_backend_warns_and_falls_back(self, monkeypatch):
        # Mark cext as probed-and-missing, as on a host without a compiler.
        monkeypatch.setitem(kernels_mod._loaded, "cext", False)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert resolve_backend("cext") is None

    def test_auto_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = resolve_backend("auto")
        assert backend is None or backend.compiled

    def test_compiled_backend_loads_and_is_cached(self):
        names = compiled_backend_names()
        if not names:
            pytest.skip("no compiled backend in this environment")
        first = resolve_backend(names[0])
        assert first is not None and first.compiled and first.name == names[0]
        assert resolve_backend(names[0]) is first  # per-process cache

    def test_describe_backends_catalog(self):
        catalog = describe_backends()
        assert catalog["numpy"] == {
            "available": True,
            "compiled": False,
            "warmup_s": 0.0,
        }
        assert set(catalog) == {"numpy", "cext"}
        entry = catalog["cext"]
        assert entry["compiled"] is True
        if entry["available"]:
            assert entry["warmup_s"] >= 0.0
        else:
            assert entry["warmup_s"] is None


class TestEnvOverride:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        assert PerfConfig().backend == "numpy"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_BACKEND", "AUTO")
        assert default_backend_name() == "auto"
        assert PerfConfig().backend == "auto"

    def test_unknown_env_value_warns_and_uses_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_BACKEND", "gpu")
        with pytest.warns(RuntimeWarning, match="REPRO_PERF_BACKEND"):
            assert default_backend_name() == "numpy"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_BACKEND", "auto")
        assert PerfConfig(backend="numpy").backend == "numpy"


class TestPerfConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            PerfConfig(backend="fortran")

    def test_disabled_pins_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_BACKEND", "auto")
        assert PerfConfig.disabled().backend == "numpy"

    def test_make_backend_numpy_is_none(self):
        assert PerfConfig(backend="numpy").make_backend() is None

    def test_make_backend_compiled(self):
        names = compiled_backend_names()
        if not names:
            pytest.skip("no compiled backend in this environment")
        backend = PerfConfig(backend=names[0]).make_backend()
        assert backend is not None and backend.name == names[0]


class TestDispatchSeam:
    def test_set_kernel_backend_nests_and_restores(self):
        sentinel = object()
        previous = set_kernel_backend(sentinel)
        try:
            assert ops_mod._kernel_backend is sentinel
            inner_prev = set_kernel_backend(None)
            assert inner_prev is sentinel
            assert set_kernel_backend(inner_prev) is None
        finally:
            set_kernel_backend(previous)
        assert ops_mod._kernel_backend is previous

    def test_engine_restores_backend_after_run(self):
        names = compiled_backend_names()
        if not names:
            pytest.skip("no compiled backend in this environment")
        from repro import build_trial_system
        from repro.experiments.runner import TrialPlan, VariantSpec
        from tests.conftest import micro_config

        system = build_trial_system(micro_config(seed=5))
        assert ops_mod._kernel_backend is None
        TrialPlan(
            system=system,
            spec=VariantSpec("SQ", "none"),
            perf=PerfConfig(backend=names[0]),
        ).run()
        assert ops_mod._kernel_backend is None


def test_cli_flag_round_trip(capsys):
    """``--perf-backend`` reaches the engine on every run subcommand."""
    from repro.cli import main

    code = main(
        [
            "trial",
            "--tasks",
            "20",
            "--seed",
            "3",
            "--heuristic",
            "SQ",
            "--filters",
            "none",
            "--perf-backend",
            "auto",
        ]
    )
    assert code == 0
    assert "missed" in capsys.readouterr().out
