"""Tests for the live telemetry layer (repro.obs.telemetry + export).

Instruments, the SLO rule grammar and streak machine, the Telemetry hub
(fed as an EngineHooks subscriber through a stub engine), and the export
surfaces (Prometheus text, atomic file, HTTP scrape endpoint).
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.events import AlertFired, AlertResolved
from repro.obs.export import (
    CONTENT_TYPE,
    FileExporter,
    TelemetryServer,
    to_prometheus,
)
from repro.obs import telemetry as telemetry_mod
from repro.obs.telemetry import (
    DEFAULT_QUANTILES,
    AlertRule,
    Counter,
    Ewma,
    EwmaRate,
    Gauge,
    P2Quantile,
    QuantileSet,
    Telemetry,
    parse_rule,
)
from repro.sim.engine import EngineHooks
from repro.sim.metrics import WindowStats
from tests.conftest import StubEngine


def window(index: int, *, on_time: int = 8, late: int = 2, **overrides) -> WindowStats:
    """A plausible closed window for feeding Telemetry.on_window."""
    fields = {
        "start": 10.0 * index,
        "end": 10.0 * (index + 1),
        "mapped": on_time + late,
        "discarded": 0,
        "completed": on_time + late,
        "on_time": on_time,
        "late": late,
        "energy": 500.0,
        "in_system_end": 3,
    }
    fields.update(overrides)
    return WindowStats(**fields)


class TestInstruments:
    def test_counter_goes_up_and_only_up(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_is_nan_until_set(self):
        g = Gauge()
        assert math.isnan(g.value)
        g.set(2)
        assert g.value == 2.0

    @pytest.mark.parametrize("cls", [Ewma, EwmaRate])
    def test_nonpositive_tau_rejected(self, cls):
        with pytest.raises(ValueError, match="tau"):
            cls(0.0)

    def test_ewma_first_observation_is_exact(self):
        e = Ewma(tau=5.0)
        assert math.isnan(e.value)
        e.observe(0.0, 3.0)
        assert e.value == 3.0

    def test_ewma_converges_to_constant_feed(self):
        e = Ewma(tau=2.0)
        for i in range(200):
            e.observe(float(i), 7.0)
        assert e.value == pytest.approx(7.0)

    def test_ewma_long_gap_forgets_the_past(self):
        e = Ewma(tau=1.0)
        e.observe(0.0, 100.0)
        e.observe(1000.0, 0.0)  # ~1000 time constants later
        assert e.value == pytest.approx(0.0, abs=1e-9)

    def test_ewma_rate_converges_to_true_rate(self):
        # Events every 0.5 s -> rate 2/s; tau large enough to smooth.
        r = EwmaRate(tau=20.0)
        for i in range(1000):
            r.observe(0.5 * i)
        assert r.rate() == pytest.approx(2.0, rel=0.05)

    def test_ewma_rate_decays_when_read_later(self):
        r = EwmaRate(tau=1.0)
        r.observe(0.0)
        now = r.rate(0.0)
        later = r.rate(10.0)
        assert later < now / 1000.0
        assert r.rate() == now  # reading never mutates

    def test_ewma_rate_empty_is_zero(self):
        assert EwmaRate(tau=1.0).rate() == 0.0


class TestP2Quantile:
    def test_q_out_of_range_rejected(self):
        for q in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="q must be"):
                P2Quantile(q)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_n_matches_numpy_exactly(self, q, n):
        rng = np.random.default_rng(42 + n)
        xs = rng.normal(10.0, 2.0, size=n)
        est = P2Quantile(q)
        for x in xs:
            est.observe(x)
        assert est.value == float(np.quantile(xs, q, method="linear"))

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_large_n_tracks_smooth_distribution(self, q):
        rng = np.random.default_rng(7)
        xs = rng.normal(10.0, 2.0, size=5000)
        est = P2Quantile(q)
        for x in xs:
            est.observe(x)
        exact = float(np.quantile(xs, q))
        assert est.value == pytest.approx(exact, abs=0.15)

    def test_estimate_stays_within_observed_range(self):
        rng = np.random.default_rng(3)
        xs = rng.exponential(5.0, size=400)
        est = P2Quantile(0.9)
        for x in xs:
            est.observe(x)
        assert xs.min() <= est.value <= xs.max()

    def test_constant_stream_is_exact(self):
        est = P2Quantile(0.5)
        for _ in range(50):
            est.observe(4.0)
        assert est.value == 4.0


class TestQuantileSet:
    def test_empty_reads_are_nan(self):
        qs = QuantileSet()
        assert math.isnan(qs.mean)
        assert math.isnan(qs.min)
        assert math.isnan(qs.max)
        assert all(math.isnan(v) for v in qs.values().values())

    def test_tracks_count_sum_extremes(self):
        qs = QuantileSet()
        for x in (3.0, 1.0, 2.0):
            qs.observe(x)
        assert qs.count == 3
        assert qs.total == 6.0
        assert qs.mean == 2.0
        assert (qs.min, qs.max) == (1.0, 3.0)
        assert tuple(qs.values()) == DEFAULT_QUANTILES
        assert qs.values()[0.5] == 2.0


class TestRuleGrammar:
    @pytest.mark.parametrize(
        "spec,metric,op,threshold,held",
        [
            ("on_time_prob<0.9", "on_time_prob", "<", 0.9, 1),
            ("on_time_prob<0.9:3", "on_time_prob", "<", 0.9, 3),
            ("burn_rate>=1.5:2", "burn_rate", ">=", 1.5, 2),
            ("queue_depth>10", "queue_depth", ">", 10.0, 1),
            ("budget_remaining<=0", "budget_remaining", "<=", 0.0, 1),
        ],
    )
    def test_parse_round_trips_through_spec(self, spec, metric, op, threshold, held):
        rule = parse_rule(spec)
        assert (rule.metric, rule.op, rule.threshold, rule.for_windows) == (
            metric, op, threshold, held,
        )
        assert parse_rule(rule.spec) == rule

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("on_time_prob", "no comparison"),
            ("<0.9", "malformed"),
            ("on_time_prob<", "malformed"),
            ("on_time_prob<ninety", "bad threshold"),
            ("on_time_prob<0.9:soon", "bad window count"),
        ],
    )
    def test_bad_specs_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_rule(spec)

    def test_rule_validates_op_and_windows(self):
        with pytest.raises(ValueError, match="unknown operator"):
            AlertRule(metric="x", op="==", threshold=1.0)
        with pytest.raises(ValueError, match="for_windows"):
            AlertRule(metric="x", op="<", threshold=1.0, for_windows=0)

    def test_breached_semantics(self):
        rule = parse_rule("on_time_prob<0.9")
        assert rule.breached({"on_time_prob": 0.5})
        assert not rule.breached({"on_time_prob": 0.95})
        # nan (no completions) and missing metrics never breach.
        assert not rule.breached({"on_time_prob": math.nan})
        assert not rule.breached({})


class TestTelemetryHub:
    def test_feeds_update_counters_and_streams(self):
        tele = Telemetry()
        tele.configure(window=10.0)
        engine = StubEngine(tele)
        engine.mapped(1.0, queue_depth=0.5)
        engine.completed(2.0, latency=1.0, on_time=True)
        engine.completed(3.0, latency=2.5, on_time=False)
        engine.discarded(4.0)
        engine.shed(5.0, deferred=False)
        engine.shed(6.0, deferred=True)
        counts = {k: c.value for k, c in tele.counters.items()}
        assert counts == {
            "tasks_mapped": 1,
            "tasks_completed": 2,
            "tasks_on_time": 1,
            "tasks_late": 1,
            "tasks_discarded": 1,
            "tasks_shed": 1,
            "tasks_deferred": 1,
            "windows": 0,
        }
        assert tele.latency.count == 2
        assert tele.latency.total == 3.5
        assert tele.queue_depth.count == 1

    def test_is_an_engine_subscriber(self):
        assert isinstance(Telemetry(), EngineHooks)

    def test_arrival_rate_counts_every_settled_arrival(self):
        # Mapped, discarded and shed arrivals are settled; a deferral is
        # a retry still pending and counts when it settles.
        tele = Telemetry()
        tele.configure(window=10.0)
        tau = 30.0  # three windows
        engine = StubEngine(tele)
        engine.mapped(5.0)
        engine.discarded(5.0)
        engine.shed(5.0, deferred=False)
        engine.shed(5.0, deferred=True)
        assert tele.snapshot()["arrival_rate"] == pytest.approx(3.0 / tau)
        # A hub whose window is never configured decays over 60 s.
        unconfigured = Telemetry()
        StubEngine(unconfigured).mapped(5.0)
        assert unconfigured.snapshot()["arrival_rate"] == pytest.approx(1.0 / 60.0)

    def test_window_close_sets_gauges_and_history(self):
        tele = Telemetry()
        tele.configure(window=10.0, budget_rate=100.0)
        tele.on_window(window(0, energy=500.0))
        assert tele.counters["windows"].value == 1
        assert tele.gauges["window_on_time_prob"].value == pytest.approx(0.8)
        assert tele.gauges["window_energy_joules"].value == 500.0
        assert tele.gauges["in_system"].value == 3.0
        # 500 J consumed over a 1000 J allowance (100 W * 10 s) = 0.5.
        assert tele.gauges["burn_rate"].value == pytest.approx(0.5)
        assert len(tele.history) == 1
        assert tele.history[0]["on_time_prob"] == pytest.approx(0.8)

    def test_history_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(telemetry_mod, "HISTORY_CAP", 8)
        tele = Telemetry()
        tele.configure(window=10.0)
        for i in range(11):
            tele.on_window(window(i))
        assert len(tele.history) == 8
        assert tele.history_dropped == 3
        assert tele.snapshot()["history_dropped"] == 3

    def test_rule_fires_after_streak_and_resolves(self):
        tele = Telemetry(rules=["on_time_prob<0.75:2"])
        tele.configure(window=10.0)
        tele.on_window(window(0, on_time=5, late=5))  # breach 1: not firing yet
        assert not tele.firing
        tele.on_window(window(1, on_time=5, late=5))  # breach 2: fires
        assert [s.rule.spec for s in tele.firing] == ["on_time_prob<0.75:2"]
        assert not tele.health()["healthy"]
        tele.on_window(window(2, on_time=10, late=0))  # recovery resolves
        assert not tele.firing
        assert tele.health()["healthy"]
        kinds = [type(e) for e in tele.alerts]
        assert kinds == [AlertFired, AlertResolved]
        fired = tele.alerts[0]
        assert fired.rule == "on_time_prob<0.75:2"
        assert fired.window_index == 1
        assert fired.value == pytest.approx(0.5)
        assert tele.alerts[1].window_index == 2
        assert tele.health()["alerts"] == 2

    def test_nan_metric_never_breaches(self):
        tele = Telemetry(rules=["on_time_prob<0.9"])
        tele.configure(window=10.0)
        # No completions: on_time_prob is nan, which must not breach.
        tele.on_window(window(0, mapped=0, completed=0, on_time=0, late=0))
        assert not tele.firing
        assert tele.rule_states[0].breached_windows == 0

    def test_steady_state_appears_after_enough_windows(self):
        tele = Telemetry()
        tele.configure(window=10.0)
        assert tele.steady_state() == {}
        for i in range(30):
            tele.on_window(window(i))
        steady = tele.steady_state()
        assert set(steady) == {"on_time_prob", "throughput", "power"}
        # A flat series converges with mean at the per-window value.
        assert steady["power"].mean == pytest.approx(50.0)
        assert steady["power"].converged

    def test_exporters_run_on_window_close(self, tmp_path):
        tele = Telemetry()
        tele.configure(window=10.0)
        out = tmp_path / "tele.prom"
        exporter = FileExporter(out, tele)
        tele.exporters.append(exporter)
        tele.on_window(window(0))
        assert exporter.exports == 1
        assert "repro_windows_total 1" in out.read_text()

    def test_snapshot_is_json_serializable(self):
        tele = Telemetry(rules=["queue_depth>100"])
        tele.configure(window=10.0)
        StubEngine(tele).completed(1.0, latency=0.5, on_time=True)
        for i in range(12):
            tele.on_window(window(i))
        doc = json.loads(json.dumps(tele.snapshot(), allow_nan=True))
        assert doc["counters"]["windows"] == 12
        assert doc["health"]["healthy"] is True


class TestPrometheusRendering:
    @pytest.fixture()
    def tele(self) -> Telemetry:
        tele = Telemetry(rules=['on_time_prob<0.75:2'])
        tele.configure(window=10.0, budget_rate=100.0)
        engine = StubEngine(tele)
        for i in range(12):
            engine.completed(10.0 * i + 1.0, latency=1.0 + 0.1 * i, on_time=True)
            engine.mapped(10.0 * i + 0.5, queue_depth=float(i % 3))
            tele.on_window(window(i))
        return tele

    def test_required_families_present(self, tele):
        text = tele.render_prometheus()
        for family in (
            "repro_windows_total",
            "repro_tasks_completed_total",
            "repro_tasks_mapped_total",
            "repro_completion_latency_seconds",
            "repro_warmup_window_index",
            "repro_steady_ci_half_width",
            "repro_healthy",
            "repro_slo_firing",
            "repro_burn_rate",
        ):
            assert f"# TYPE {family} " in text, family

    def test_fresh_hub_still_renders_steady_families(self):
        # A scrape can land before the first window closes; the steady
        # families must already be present (warm-up 0, NaN mean) so the
        # exposed family set is stable over the life of the endpoint.
        text = Telemetry().render_prometheus()
        assert '# TYPE repro_warmup_window_index gauge' in text
        assert 'repro_warmup_window_index{metric="on_time_prob"} 0' in text
        assert 'repro_steady_mean{metric="throughput"} NaN' in text
        assert 'repro_steady_ci_half_width{metric="power"} NaN' in text
        assert 'repro_steady_converged{metric="on_time_prob"} 0' in text

    def test_summary_carries_quantiles_sum_count(self, tele):
        text = tele.render_prometheus()
        assert 'repro_completion_latency_seconds{quantile="0.5"}' in text
        assert 'repro_completion_latency_seconds{quantile="0.99"}' in text
        assert "repro_completion_latency_seconds_count 12" in text
        assert "repro_completion_latency_seconds_sum " in text

    def test_counter_values_render_bare(self, tele):
        text = tele.render_prometheus()
        assert "repro_tasks_completed_total 12" in text
        assert "repro_tasks_on_time_total 12" in text
        assert "repro_tasks_late_total 0" in text

    def test_nan_gauge_renders_as_NaN(self):
        tele = Telemetry()
        text = tele.render_prometheus()
        assert "repro_budget_remaining NaN" in text

    def test_rule_label_is_escaped(self):
        snapshot = {
            "health": {
                "healthy": True,
                "rules": [{"rule": 'odd"rule\\name', "firing": False}],
            }
        }
        text = to_prometheus(snapshot)
        assert 'repro_slo_firing{rule="odd\\"rule\\\\name"} 0' in text

    def test_every_line_is_comment_or_sample(self, tele):
        for line in tele.render_prometheus().splitlines():
            assert line.startswith("#") or " " in line


class TestFileExporter:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        tele = Telemetry()
        out = tmp_path / "metrics.prom"
        exporter = FileExporter(out, tele)
        exporter.export()
        exporter.export()
        assert exporter.exports == 2
        assert "repro_windows_total 0" in out.read_text()
        assert not (tmp_path / "metrics.prom.tmp").exists()


class TestTelemetryServer:
    @pytest.fixture()
    def tele(self) -> Telemetry:
        tele = Telemetry(rules=["queue_depth>4:1"])
        tele.configure(window=10.0)
        tele.on_window(window(0))
        return tele

    def test_scrape_metrics_and_content_type(self, tele):
        with TelemetryServer(tele, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                body = resp.read().decode("utf-8")
        assert "repro_windows_total 1" in body

    def test_health_flips_to_503_while_firing(self, tele):
        with TelemetryServer(tele, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/health", timeout=5) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["healthy"] is True
            # queue_depth (in_system_end) of 5 breaches `queue_depth>4`.
            tele.on_window(window(1, in_system_end=5))
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/health", timeout=5)
            assert err.value.code == 503
            assert json.loads(err.value.read())["healthy"] is False

    def test_unknown_path_is_404(self, tele):
        with TelemetryServer(tele, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            assert err.value.code == 404

    def test_double_start_rejected_and_stop_is_idempotent(self, tele):
        server = TelemetryServer(tele, port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.stop()
        server.stop()  # second stop is a no-op
