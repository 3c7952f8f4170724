"""The repo's scripts must run end-to-end at tiny scale."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestGridCommand:
    def test_tiny_grid_run(self, tmp_path):
        out = tmp_path / "grid.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "grid",
                "--trials", "1", "--tasks", "60", "--seed", "5",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["num_trials"] == 1
        labels = [f"{s['heuristic']}/{s['variant']}" for s in data["specs"]]
        assert len(labels) == 16
        assert "LL/en+rob" in labels
        # The printed report must include every figure's heuristic.
        for token in ("SQ", "MECT", "LL", "Random", "Filtering summary"):
            assert token in proc.stdout


class TestChaosCheck:
    def test_recovery_is_bitwise_clean(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "scripts" / "chaos_check.py"),
                "--tasks",
                "60",
                "--trials",
                "3",
                "--seed",
                "5",
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "bitwise identical" in proc.stdout
        assert "retried=3 quarantined=0" in proc.stdout
        assert "resumed=3" in proc.stdout


class TestTraceCheck:
    SCRIPT = REPO / "scripts" / "trace_check.py"

    def run_check(self, *paths):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *[str(p) for p in paths]],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @staticmethod
    def write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_valid_trace_passes(self, tmp_path):
        good = self.write(
            tmp_path,
            "good.json",
            {
                "traceEvents": [
                    {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                     "args": {"name": "supervisor"}},
                    {"ph": "X", "name": "a", "ts": 0.0, "dur": 5.0, "pid": 0, "tid": 0},
                    {"ph": "X", "name": "b", "ts": 1.0, "dur": 2.0, "pid": 0, "tid": 0},
                ]
            },
        )
        proc = self.run_check(good)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith("ok")

    def test_negative_duration_fails(self, tmp_path):
        bad = self.write(
            tmp_path,
            "bad.json",
            [{"ph": "X", "name": "a", "ts": 0.0, "dur": -1.0, "pid": 0, "tid": 0}],
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "bad dur" in proc.stdout

    def test_backwards_timestamps_fail(self, tmp_path):
        bad = self.write(
            tmp_path,
            "bad.json",
            [
                {"ph": "X", "name": "a", "ts": 9.0, "dur": 1.0, "pid": 0, "tid": 0},
                {"ph": "X", "name": "b", "ts": 3.0, "dur": 1.0, "pid": 0, "tid": 0},
            ],
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "goes backwards" in proc.stdout

    def test_unbalanced_duration_events_fail(self, tmp_path):
        bad = self.write(
            tmp_path,
            "bad.json",
            [{"ph": "B", "name": "open", "ts": 0.0, "pid": 0, "tid": 0}],
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "unclosed" in proc.stdout

    def test_empty_trace_fails(self, tmp_path):
        proc = self.run_check(self.write(tmp_path, "empty.json", {"traceEvents": []}))
        assert proc.returncode == 1
        assert "no span events" in proc.stdout

    def test_one_bad_file_fails_the_batch(self, tmp_path):
        good = self.write(
            tmp_path,
            "good.json",
            [{"ph": "X", "name": "a", "ts": 0.0, "dur": 1.0, "pid": 0, "tid": 0}],
        )
        bad = self.write(tmp_path, "bad.json", {"traceEvents": "nope"})
        proc = self.run_check(good, bad)
        assert proc.returncode == 1
        assert "ok" in proc.stdout and "FAIL" in proc.stdout

    def test_real_profile_passes(self, tmp_path):
        # End to end: the exporter's output satisfies the validator.
        prof = tmp_path / "prof.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "trial",
                "--tasks", "60", "--seed", "5",
                "--profile-out", str(prof),
            ],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        check = self.run_check(prof)
        assert check.returncode == 0, check.stdout


class TestServiceCheck:
    SCRIPT = REPO / "scripts" / "service_check.py"

    def run_check(self, *paths):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *[str(p) for p in paths]],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @staticmethod
    def row(index, start, end, **overrides):
        row = {
            "format": "repro.window/1",
            "index": index,
            "label": "LL/en+rob",
            "seed": 0,
            "traffic": "poisson",
            "start": start,
            "end": end,
            "arrivals": 3,
            "mapped": 2,
            "discarded": 1,
            "completed": 2,
            "on_time": 1,
            "late": 1,
            "energy": 10.0,
            "budget_remaining": 5.0,
            "in_system_end": 1,
        }
        row.update(overrides)
        return row

    def write(self, tmp_path, name, rows):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_valid_windows_pass(self, tmp_path):
        good = self.write(
            tmp_path,
            "good.jsonl",
            [self.row(0, 0.0, 5.0), self.row(1, 5.0, 10.0, budget_remaining=None)],
        )
        proc = self.run_check(good)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith("ok")

    def test_gap_between_windows_fails(self, tmp_path):
        bad = self.write(
            tmp_path, "gap.jsonl", [self.row(0, 0.0, 5.0), self.row(1, 6.0, 10.0)]
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "contiguity" in proc.stdout

    def test_count_identity_fails(self, tmp_path):
        bad = self.write(tmp_path, "sum.jsonl", [self.row(0, 0.0, 5.0, arrivals=99)])
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "mapped + discarded" in proc.stdout

    def test_negative_budget_fails(self, tmp_path):
        bad = self.write(
            tmp_path, "neg.jsonl", [self.row(0, 0.0, 5.0, budget_remaining=-1.0)]
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "budget_remaining" in proc.stdout

    def test_out_of_order_index_fails(self, tmp_path):
        bad = self.write(
            tmp_path, "idx.jsonl", [self.row(0, 0.0, 5.0), self.row(5, 5.0, 10.0)]
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "out of order" in proc.stdout

    def test_empty_file_fails(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        proc = self.run_check(empty)
        assert proc.returncode == 1
        assert "no window rows" in proc.stdout

    def test_v2_row_missing_fault_columns_fails(self, tmp_path):
        bad = self.write(
            tmp_path, "v2.jsonl", [self.row(0, 0.0, 5.0, schema_version=2)]
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "schema v2 requires count shed" in proc.stdout

    def test_v2_row_with_fault_columns_passes(self, tmp_path):
        good = self.write(
            tmp_path,
            "v2.jsonl",
            [
                self.row(
                    0, 0.0, 5.0, schema_version=2, arrivals=4,
                    shed=1, deferred=0, orphaned=2, remapped=1, lost=1,
                )
            ],
        )
        proc = self.run_check(good)
        assert proc.returncode == 0, proc.stdout

    def test_bad_schema_version_fails(self, tmp_path):
        for version in (0, -1, "two", True):
            bad = self.write(
                tmp_path, "ver.jsonl", [self.row(0, 0.0, 5.0, schema_version=version)]
            )
            proc = self.run_check(bad)
            assert proc.returncode == 1, version
            assert "schema_version" in proc.stdout

    def test_v2_remapped_exceeding_orphaned_fails(self, tmp_path):
        bad = self.write(
            tmp_path,
            "remap.jsonl",
            [
                self.row(
                    0, 0.0, 5.0, schema_version=2, arrivals=3,
                    shed=0, deferred=0, orphaned=1, remapped=2, lost=0,
                )
            ],
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "remapped" in proc.stdout

    def test_schema_version_must_be_constant(self, tmp_path):
        fault_cols = dict(shed=0, deferred=0, orphaned=0, remapped=0, lost=0)
        bad = self.write(
            tmp_path,
            "mixed.jsonl",
            [
                self.row(0, 0.0, 5.0, schema_version=2, **fault_cols),
                self.row(1, 5.0, 10.0, schema_version=3, **fault_cols),
            ],
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "schema_version" in proc.stdout

    def test_real_serve_output_passes(self, tmp_path):
        # End to end: `repro serve --windows-out` satisfies the validator.
        out = tmp_path / "windows.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--tasks", "60", "--seed", "5",
                "--traffic", "poisson", "--task-limit", "120",
                "--windows-out", str(out),
            ],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        check = self.run_check(out)
        assert check.returncode == 0, check.stdout

    def test_truncation_trailer_is_tolerated(self, tmp_path):
        rows = [self.row(0, 0.0, 5.0), self.row(1, 5.0, 10.0)]
        trailer = {
            "format": "repro.window_trailer/1",
            "truncated": True,
            "windows": 2,
            "makespan": 10.0,
        }
        path = self.write(tmp_path, "trunc.jsonl", rows + [trailer])
        proc = self.run_check(path)
        assert proc.returncode == 0, proc.stdout

    def test_trailer_with_wrong_count_fails(self, tmp_path):
        trailer = {
            "format": "repro.window_trailer/1",
            "truncated": True,
            "windows": 5,
            "makespan": 5.0,
        }
        path = self.write(tmp_path, "bad.jsonl", [self.row(0, 0.0, 5.0), trailer])
        proc = self.run_check(path)
        assert proc.returncode == 1
        assert "trailer" in proc.stdout


class TestFaultsCheck:
    SCRIPT = REPO / "scripts" / "faults_check.py"

    def run_check(self, *args):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *[str(a) for a in args]],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @staticmethod
    def row(index, start, end, **overrides):
        row = {
            "format": "repro.window/1",
            "index": index,
            "label": "LL/en+rob",
            "seed": 0,
            "traffic": "poisson",
            "start": start,
            "end": end,
            "arrivals": 4,
            "mapped": 2,
            "discarded": 1,
            "shed": 1,
            "deferred": 0,
            "orphaned": 2,
            "remapped": 1,
            "lost": 1,
            "completed": 2,
            "on_time": 1,
            "late": 1,
            "energy": 10.0,
            "budget_remaining": 5.0,
            "in_system_end": 1,
        }
        row.update(overrides)
        return row

    def write(self, tmp_path, name, rows):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return path

    def test_valid_fault_columns_pass(self, tmp_path):
        good = self.write(
            tmp_path, "good.jsonl", [self.row(0, 0.0, 5.0), self.row(1, 5.0, 10.0)]
        )
        proc = self.run_check(good)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith("ok")

    def test_missing_fault_field_fails(self, tmp_path):
        row = self.row(0, 0.0, 5.0)
        del row["orphaned"]
        bad = self.write(tmp_path, "missing.jsonl", [row])
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "orphaned" in proc.stdout

    def test_negative_count_fails(self, tmp_path):
        bad = self.write(tmp_path, "neg.jsonl", [self.row(0, 0.0, 5.0, lost=-1)])
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "lost" in proc.stdout

    def test_remapped_exceeding_orphaned_fails(self, tmp_path):
        bad = self.write(
            tmp_path, "remap.jsonl", [self.row(0, 0.0, 5.0, remapped=3, orphaned=2)]
        )
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "remapped" in proc.stdout

    def test_shed_breaks_arrival_identity_fails(self, tmp_path):
        # shed counts toward arrivals: dropping it from the sum must fail.
        bad = self.write(tmp_path, "sum.jsonl", [self.row(0, 0.0, 5.0, shed=2)])
        proc = self.run_check(bad)
        assert proc.returncode == 1
        assert "arrivals" in proc.stdout

    def test_expect_faults_rejects_quiet_file(self, tmp_path):
        quiet = self.write(
            tmp_path,
            "quiet.jsonl",
            [self.row(0, 0.0, 5.0, arrivals=3, shed=0, deferred=0,
                      orphaned=0, remapped=0, lost=0)],
        )
        assert self.run_check(quiet).returncode == 0
        proc = self.run_check("--expect-faults", quiet)
        assert proc.returncode == 1
        assert "no fault activity" in proc.stdout

    def test_trailer_is_tolerated(self, tmp_path):
        trailer = {
            "format": "repro.window_trailer/1",
            "truncated": True,
            "windows": 1,
            "makespan": 5.0,
        }
        path = self.write(tmp_path, "trunc.jsonl", [self.row(0, 0.0, 5.0), trailer])
        proc = self.run_check(path)
        assert proc.returncode == 0, proc.stdout

    def test_real_degraded_serve_output_passes(self, tmp_path):
        # End to end: a degraded `repro serve` run satisfies the
        # validator including --expect-faults.
        out = tmp_path / "windows.jsonl"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--tasks", "60", "--seed", "5",
                "--traffic", "poisson", "--task-limit", "120",
                "--fault-mtbf", "4000", "--fault-mttr", "1500",
                "--fault-horizon", "20000", "--fault-scope", "node",
                "--shed-queue-depth", "4",
                "--windows-out", str(out),
            ],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        check = self.run_check("--expect-faults", out)
        assert check.returncode == 0, check.stdout + proc.stdout


class TestTelemetryCheck:
    SCRIPT = REPO / "scripts" / "telemetry_check.py"

    def run_check(self, *paths):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *[str(p) for p in paths]],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @staticmethod
    def real_scrape() -> str:
        # A genuine rendering from a fed Telemetry hub, built in-process.
        import sys as _sys

        _sys.path.insert(0, str(REPO / "src"))
        try:
            from repro.obs.telemetry import Telemetry
            from repro.sim.metrics import WindowStats
            from tests.conftest import StubEngine

            tele = Telemetry(rules=["on_time_prob<0.5:3"])
            tele.configure(window=10.0)
            engine = StubEngine(tele)
            for i in range(12):
                engine.mapped(10.0 * i + 0.5, queue_depth=1.0)
                engine.completed(10.0 * i + 2.0, latency=1.5, on_time=True)
                tele.on_window(
                    WindowStats(
                        start=10.0 * i, end=10.0 * (i + 1), mapped=1,
                        completed=1, on_time=1, energy=100.0, in_system_end=0,
                    )
                )
            return tele.render_prometheus()
        finally:
            _sys.path.pop(0)

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_real_rendering_passes(self, tmp_path):
        proc = self.run_check(self.write(tmp_path, "good.prom", self.real_scrape()))
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.startswith("ok")

    def test_missing_required_family_fails(self, tmp_path):
        text = self.real_scrape().replace("repro_warmup_window_index", "repro_renamed")
        proc = self.run_check(self.write(tmp_path, "missing.prom", text))
        assert proc.returncode == 1
        assert "repro_warmup_window_index" in proc.stdout

    def test_negative_counter_fails(self, tmp_path):
        text = self.real_scrape().replace(
            "repro_tasks_discarded_total 0", "repro_tasks_discarded_total -3"
        )
        proc = self.run_check(self.write(tmp_path, "neg.prom", text))
        assert proc.returncode == 1
        assert "negative" in proc.stdout

    def test_untyped_family_fails(self, tmp_path):
        text = self.real_scrape().replace(
            "# TYPE repro_windows_total counter\n", ""
        )
        proc = self.run_check(self.write(tmp_path, "untyped.prom", text))
        assert proc.returncode == 1
        assert "no # TYPE" in proc.stdout

    def test_broken_accounting_fails(self, tmp_path):
        text = self.real_scrape().replace(
            "repro_tasks_on_time_total 12", "repro_tasks_on_time_total 11"
        )
        proc = self.run_check(self.write(tmp_path, "sum.prom", text))
        assert proc.returncode == 1
        assert "on_time" in proc.stdout

    def test_garbage_line_fails(self, tmp_path):
        proc = self.run_check(
            self.write(tmp_path, "junk.prom", "!!! not a metric line\n")
        )
        assert proc.returncode == 1
        assert "unparseable" in proc.stdout

    def test_stdin_dash_input(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT), "-"],
            input=self.real_scrape(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout
        assert "<stdin>" in proc.stdout

    def test_real_serve_telemetry_out_passes(self, tmp_path):
        # End to end: `repro serve --telemetry-out` satisfies the validator.
        out = tmp_path / "tele.prom"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--tasks", "60", "--seed", "5",
                "--traffic", "poisson", "--task-limit", "120",
                "--telemetry-out", str(out),
                "--slo", "on_time_prob<0.9:3",
            ],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        check = self.run_check(out)
        assert check.returncode == 0, check.stdout


class TestRssProfile:
    def test_three_non_decreasing_stages(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "rss_profile.py")],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [row[0] for row in rows] == ["import", "build", "candidates"]
        peaks = [float(row[1]) for row in rows]
        assert all(row[2] == "MB" for row in rows)
        assert 0.0 < peaks[0] <= peaks[1] <= peaks[2]
