"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import socket

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.experiments.runner import VariantSpec, run_ensemble
from repro.io.results_io import ensemble_to_dict, save_json
from repro.obs.manifest import build_manifest
from tests.conftest import tiny_config

TINY = ["--tasks", "60", "--seed", "123"]
REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def saved_ensemble(tmp_path_factory):
    specs = (VariantSpec("LL", "none"), VariantSpec("LL", "en+rob"))
    ensemble = run_ensemble(specs, tiny_config(), num_trials=3, base_seed=1)
    path = tmp_path_factory.mktemp("cli") / "ensemble.json"
    save_json(ensemble_to_dict(ensemble), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trial_defaults(self):
        args = build_parser().parse_args(["trial"])
        assert args.heuristic == "LL"
        assert args.filters == "en+rob"

    def test_rejects_unknown_heuristic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trial", "-H", "XYZ"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    def test_retired_kernel_flag_is_rejected(self):
        # numpy is the only kernel path; scripts still passing the old
        # flag fail loudly instead of silently running something else.
        with pytest.raises(SystemExit) as exc:
            main(["trial", "--perf-backend", "numpy"])
        assert exc.value.code == 2


class TestCommands:
    def test_calibrate(self, capsys):
        assert main(["calibrate", *TINY]) == 0
        out = capsys.readouterr().out
        assert "cores=" in out

    def test_trial(self, capsys):
        # The tiny workload keeps the burst proportions valid at 60 tasks.
        assert main(["trial", "-H", "SQ", "-F", "en", "--tasks", "60", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "SQ/en" in out
        assert "missed" in out

    def test_trial_names_a_literature_baseline(self, capsys):
        # MET/OLB/KPB/MEEC share the paper's heuristic namespace, any case.
        assert main(["trial", "-H", "met", "-F", "en+rob", "--tasks", "30"]) == 0
        assert "MET/en+rob: missed" in capsys.readouterr().out

    def test_plugin_catalog_lists_eight_heuristics(self, capsys):
        assert main(["scenarios", "plugins", "--kind", "heuristic"]) == 0
        rows = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                if line.startswith("heuristic ")]
        assert rows == ["SQ", "MECT", "LL", "Random", "MET", "OLB", "KPB", "MEEC"]

    def test_figure_with_output(self, capsys, tmp_path):
        out_json = tmp_path / "fig.json"
        svg_dir = tmp_path / "figs"
        code = main(
            [
                "figure",
                "fig2",
                *TINY,
                "--trials",
                "2",
                "--out",
                str(out_json),
                "--svg-dir",
                str(svg_dir),
            ]
        )
        assert code == 0
        assert out_json.exists()
        assert (svg_dir / "sq_misses.svg").exists()
        data = json.loads(out_json.read_text())
        assert data["format"] == "repro.ensemble/1"
        out = capsys.readouterr().out
        assert "SQ" in out

    def test_report_from_saved(self, capsys, saved_ensemble):
        assert main(["report", str(saved_ensemble)]) == 0
        out = capsys.readouterr().out
        assert "LL" in out and "en+rob" in out

    def test_compare_from_saved(self, capsys, saved_ensemble):
        code = main(["compare", str(saved_ensemble), "LL/none", "LL/en+rob"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p=" in out
        assert "significant" in out

    def test_compare_rejects_bad_spec(self, saved_ensemble):
        with pytest.raises(SystemExit):
            main(["compare", str(saved_ensemble), "LLnone", "LL/en+rob"])

    def test_trial_with_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "trial",
                "--tasks", "60", "--seed", "5",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events" in out
        from repro.io.trace_io import load_trace

        events = load_trace(trace)
        assert events[0].kind == "trial_started"
        assert events[-1].kind == "trial_finished"
        data = json.loads(metrics.read_text())
        assert data["format"] == "repro.metrics/1"
        assert data["counters"]["trials_run"] == 1

    def test_metrics_out_is_byte_identical_across_runs(self, capsys, tmp_path):
        # Wall time goes to --profile-out only: two identical runs write
        # the same metrics file byte for byte.
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            assert main(["trial", "--tasks", "60", "--metrics-out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                *TINY,
                "--multipliers",
                "0.5",
                "2.0",
                "--specs",
                "MECT/none",
                "--trials",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget_mult" in out
        assert "MECT/none" in out


def _json(document):
    """A document as its saved JSON reads back (tuples become lists)."""
    return json.loads(json.dumps(document))


def _ensemble_file(tmp_path, name, specs, *, trials, tasks, seed):
    """A scenario file naming one ensemble; returns its path."""
    path = tmp_path / f"{name}.toml"
    path.write_text(
        f'mode = "ensemble"\nseed = {seed}\nnum_tasks = {tasks}\n\n'
        f"[ensemble]\nnum_trials = {trials}\nspecs = {json.dumps(specs)}\n"
    )
    return path


class TestOneSpelling:
    """``figure``/``grid``/``sweep`` build a Scenario from their flags and
    run it through the api: the flag form and a scenario file give the
    same ensemble, manifest and sweep table, and a spec name has one
    spelling in every subcommand."""

    @pytest.fixture(scope="class")
    def fig4(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fig4") / "fig4.json"
        argv = ["figure", "fig4", "--trials", "2", "--tasks", "60", "--seed", "3",
                "--out", str(out)]
        assert main(argv) == 0
        return out

    @pytest.mark.parametrize(
        "argv, specs, trials",
        [
            (["figure", "fig4", "--trials", "2"], ["LL/*"], 2),
            (["grid", "--trials", "1"], ["*/*"], 1),
        ],
        ids=["figure", "grid"],
    )
    def test_flag_form_matches_file_form(self, tmp_path, capsys, argv, specs, trials):
        out = tmp_path / "flags.json"
        assert main([*argv, "--tasks", "60", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        path = _ensemble_file(tmp_path, "file", specs, trials=trials, tasks=60, seed=3)
        scenario = api.Scenario.from_file(path)
        ensemble = api.run_scenario(path)
        assert json.loads(out.read_text()) == _json(ensemble_to_dict(ensemble))
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest == _json(
            build_manifest(ensemble, scenario.resolved_config()).to_dict()
        )

    def test_sweep_flag_form_matches_budget_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--trials", "2", "--tasks", "60", "--seed", "3",
                "--multipliers", "0.85", "1.0", "--specs", "MECT/none", "ll/*"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        path = _ensemble_file(
            tmp_path, "sweep", ["MECT/none", "LL/*"], trials=2, tasks=60, seed=3
        )
        sweep = api.budget_sweep(api.Scenario.from_file(path), [0.85, 1.0])
        assert printed == sweep.table(num_tasks=60) + "\n"
        assert [s.label for s in sweep.specs][:2] == ["MECT/none", "LL/none"]

    def test_sweep_spec_case_does_not_change_the_random_stream(self, capsys):
        tables = []
        for label in ("random/none", "Random/none", "RANDOM/NONE"):
            argv = ["sweep", "--trials", "2", "--tasks", "60", "--multipliers",
                    "1.0", "--specs", label]
            assert main(argv) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]
        assert "Random/none" in tables[0]

    def test_run_prints_what_figure_prints(self, tmp_path, capsys):
        assert main(["figure", "fig2", *TINY, "--trials", "2"]) == 0
        flags = capsys.readouterr().out
        path = _ensemble_file(tmp_path, "fig2", ["sq/*"], trials=2, tasks=60, seed=123)
        assert main(["run", "--scenario", str(path)]) == 0
        header, _, body = capsys.readouterr().out.partition("\n")
        assert header.startswith("scenario fig2: SQ/*, mode ensemble")
        assert body == flags

    def test_compare_folds_spec_case(self, capsys, fig4):
        assert main(["compare", str(fig4), "ll/none", "LL/EN+ROB"]) == 0
        assert "LL/en+rob vs LL/none" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ("SQ/none", "SQ/none is not in "),
            ("LL/*", "give one spec, not the pattern 'LL/*'"),
        ],
        ids=["absent", "pattern"],
    )
    def test_compare_of_a_spec_not_in_the_file_exits_1(self, capsys, fig4, spec, reason):
        with pytest.raises(SystemExit) as info:
            main(["compare", str(fig4), "LL/none", spec])
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro compare: {reason}")
        assert capsys.readouterr().out == ""


class TestManifests:
    @pytest.fixture(scope="class")
    def figure_run(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("manifest")
        out_json = outdir / "fig.json"
        metrics = outdir / "metrics.json"
        code = main(
            [
                "figure", "fig2", *TINY,
                "--trials", "2",
                "--out", str(out_json),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        return out_json, out_json.with_suffix(".manifest.json"), metrics

    def test_figure_writes_manifest_and_metrics(self, figure_run):
        out_json, manifest_path, metrics = figure_run
        assert manifest_path.exists()
        assert json.loads(manifest_path.read_text())["format"] == "repro.manifest/1"
        assert json.loads(metrics.read_text())["counters"]["trials_run"] > 0

    def test_inspect_manifest(self, capsys, figure_run):
        _out_json, manifest_path, _metrics = figure_run
        assert main(["inspect-manifest", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "base seed" in out

    def test_inspect_manifest_verifies_matching_results(self, capsys, figure_run):
        out_json, manifest_path, _metrics = figure_run
        code = main(
            ["inspect-manifest", str(manifest_path), "--results", str(out_json)]
        )
        assert code == 0
        assert "results match" in capsys.readouterr().out

    def test_inspect_manifest_flags_mismatch(self, capsys, figure_run, tmp_path):
        out_json, manifest_path, _metrics = figure_run
        doc = json.loads(manifest_path.read_text())
        doc["trial_digests"] = {
            k: ["0" * 64] * len(v) for k, v in doc["trial_digests"].items()
        }
        tampered = tmp_path / "tampered.manifest.json"
        tampered.write_text(json.dumps(doc))
        code = main(["inspect-manifest", str(tampered), "--results", str(out_json)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_inspect_manifest_with_trace(self, capsys, figure_run, tmp_path):
        _out_json, manifest_path, _metrics = figure_run
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trial", "--tasks", "60", "--seed", "5",
                    "--trace-out", str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["inspect-manifest", str(manifest_path), "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tasks mapped" in out


class TestResilienceFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["figure", "fig2"])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.trial_timeout is None
        assert args.max_retries == 2

    def test_flags_on_every_ensemble_subcommand(self):
        for cmd in (["figure", "fig2"], ["grid"], ["sweep"]):
            args = build_parser().parse_args(
                [*cmd, "--checkpoint", "c.jsonl", "--resume",
                 "--trial-timeout", "30", "--max-retries", "1"]
            )
            assert args.checkpoint == "c.jsonl"
            assert args.resume is True
            assert args.trial_timeout == 30.0
            assert args.max_retries == 1

    def test_figure_checkpoint_and_resume(self, capsys, tmp_path):
        shard = tmp_path / "fig.ckpt.jsonl"
        base = ["figure", "fig2", *TINY, "--trials", "2",
                "--checkpoint", str(shard)]
        assert main(base) == 0
        assert shard.exists()
        first_out = capsys.readouterr().out
        assert main([*base, "--resume", "--metrics-out",
                     str(tmp_path / "m.json")]) == 0
        resumed_out = capsys.readouterr().out
        # Resume reprints the same tables from checkpointed trials.
        assert first_out.splitlines()[0] in resumed_out
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["counters"]["executor.trials_resumed"] == 2

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit, match="^repro figure: .*checkpoint"):
            main(["figure", "fig2", *TINY, "--trials", "2", "--resume"])

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["figure", "fig2", "--jobs", "0"], "n_jobs must be a positive"),
            (["grid", "--trials", "0"], "need at least one trial"),
            (["calibrate", "--tasks", "-5"], "num_tasks must be >= 1"),
            (["sweep", "--specs", "LL/xx"], "unknown filter 'xx'"),
            (["sweep", "--specs", "XX/en"], "unknown heuristic 'XX'"),
            (["sweep", "--specs", "LL"], "spec must look like 'LL/en+rob'"),
            (["figure", "fig2", "--trial-timeout", "-3"], "trial_timeout must be positive"),
            (["figure", "fig2", "--max-retries", "-1"], "max_retries must be >= 0"),
            (["grid", "--max-retries", "-1", "--jobs", "2"], "max_retries must be >= 0"),
            (["trial", "--timeline-out", "t.json", "--timeline-dt", "0"],
             "timeline dt must be positive"),
            (["serve", "--task-limit", "10", "--timeline-out", "t.json",
              "--timeline-cap", "0"], "timeline capacity must be positive"),
            (["trial", "--tasks", "30", "--timeline-dt", "-5"],
             "timeline dt must be positive"),
            (["figure", "fig2", "--tasks", "20", "--trials", "1", "--timeline-dt", "0"],
             "timeline dt must be positive"),
            (["serve", "--task-limit", "10", "--timeline-cap", "0"],
             "timeline capacity must be positive"),
            (["serve", "--task-limit", "10", "--slo", "bogus"], "--slo: "),
        ],
        ids=[
            "jobs-0", "trials-0", "tasks-negative", "unknown-filter",
            "unknown-heuristic", "malformed-spec", "timeout-negative",
            "retries-negative", "retries-negative-parallel",
            "timeline-dt-0", "timeline-cap-0", "timeline-dt-negative-no-out",
            "figure-timeline-dt-0-no-out", "timeline-cap-0-no-out", "slo-bogus",
        ],
    )
    def test_bad_flag_values_exit_with_one_line(self, capsys, argv, reason):
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro {argv[0]}: {reason}")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cmd", [["figure", "fig2"], ["grid"]], ids=["figure", "grid"])
    def test_no_completed_trials_saves_results_and_exits_1(self, capsys, tmp_path, cmd):
        # Every trial overruns its timeout and is quarantined: nothing to
        # tabulate, but the (empty) results and manifest are still saved.
        out = tmp_path / "f.json"
        with pytest.raises(SystemExit) as info:
            main([*cmd, *TINY, "--trials", "2", "--trial-timeout", "0.001",
                  "--max-retries", "0", "--out", str(out)])
        assert info.value.code == f"repro {cmd[0]}: no completed trials"
        text = capsys.readouterr().out
        assert "WARNING: only 0 of 2 trials completed" in text
        assert "no completed trials" in text
        assert out.exists()
        manifest = out.with_suffix(".manifest.json")
        assert manifest.exists()
        assert main(["inspect-manifest", str(manifest), "--results", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["report", str(out)])
        assert info.value.code == "repro report: no completed trials"
        assert "no completed trials" in capsys.readouterr().out
        spec_a, spec_b = (s["heuristic"] + "/" + s["variant"]
                          for s in json.loads(out.read_text())["specs"][:2])
        with pytest.raises(SystemExit) as info:
            main(["compare", str(out), spec_a, spec_b])
        assert info.value.code == "repro compare: no completed trials"

    def test_sweep_with_no_completed_trials_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", *TINY, "--trials", "1", "--multipliers", "1.0",
                  "--specs", "LL/en+rob", "--trial-timeout", "0.001",
                  "--max-retries", "0"])
        assert info.value.code == "repro sweep: no completed trials"
        assert "no completed trials" in capsys.readouterr().out


class TestProfilingFlags:
    def test_parser_defaults(self):
        for cmd in (["trial"], ["figure", "fig2"], ["grid"]):
            args = build_parser().parse_args(cmd)
            assert args.profile_out is None
            assert args.timeline_out is None
            assert args.timeline_dt == 60.0

    @pytest.fixture(scope="class")
    def profiled_trial(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("profiled")
        prof = outdir / "prof.json"
        tl = outdir / "tl.json"
        code = main(
            [
                "trial", "--tasks", "60", "--seed", "5",
                "--profile-out", str(prof),
                "--timeline-out", str(tl),
                "--timeline-dt", "30",
            ]
        )
        assert code == 0
        return prof, tl

    def test_trial_writes_chrome_trace(self, profiled_trial):
        prof, _tl = profiled_trial
        doc = json.loads(prof.read_text())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for e in spans:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        names = {e["name"] for e in spans}
        assert {"engine.arrival", "filters.chain", "heuristic.LL"} <= names

    def test_trial_writes_timeline(self, profiled_trial):
        _prof, tl = profiled_trial
        doc = json.loads(tl.read_text())
        assert doc["format"] == "repro.timeline/1"
        assert doc["dt"] == 30.0
        (stream,) = doc["streams"]
        assert stream["t"] == sorted(stream["t"])
        assert len(stream["t"]) > 1

    def test_trace_check_script_accepts_profile(self, profiled_trial):
        import pathlib
        import subprocess
        import sys

        prof, _tl = profiled_trial
        repo = pathlib.Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(repo / "scripts" / "trace_check.py"), str(prof)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok" in proc.stdout

    def test_profile_command_renders_table(self, capsys, profiled_trial):
        prof, tl = profiled_trial
        assert main(["profile", str(prof), "--timeline", str(tl)]) == 0
        out = capsys.readouterr().out
        assert "| span" in out
        assert "engine.arrival" in out
        assert "| timeline" in out

    def test_profile_command_writes_svgs(self, capsys, profiled_trial, tmp_path):
        prof, tl = profiled_trial
        svg_dir = tmp_path / "svgs"
        assert main(
            ["profile", str(prof), "--timeline", str(tl), "--svg-dir", str(svg_dir)]
        ) == 0
        capsys.readouterr()
        svgs = list(svg_dir.glob("timeline_*.svg"))
        assert len(svgs) == 1
        assert svgs[0].read_text().startswith("<svg")

    def test_figure_profile_round_trip(self, capsys, tmp_path):
        prof = tmp_path / "fig.prof.json"
        tl = tmp_path / "fig.tl.json"
        code = main(
            [
                "figure", "fig2", *TINY, "--trials", "2",
                "--profile-out", str(prof),
                "--timeline-out", str(tl),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(prof.read_text())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        # Supervisor stream + one per trial.
        assert {m["args"]["name"] for m in meta} == {
            "supervisor", "trial-0", "trial-1",
        }
        tl_doc = json.loads(tl.read_text())
        # fig2 runs 4 specs x 2 trials.
        assert len(tl_doc["streams"]) == 8


class TestInspectManifestMetrics:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("companions")
        code = main(
            [
                "figure", "fig2", *TINY, "--trials", "2",
                "--out", str(outdir / "fig.json"),
                "--metrics-out", str(outdir / "fig.metrics.json"),
                "--profile-out", str(outdir / "fig.prof.json"),
            ]
        )
        assert code == 0
        return outdir

    def test_metrics_flag_defaults_to_sibling(self, capsys, run_dir):
        manifest = run_dir / "fig.manifest.json"
        assert main(["inspect-manifest", str(manifest), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "## Counters" in out
        assert "trials_run" in out

    def test_metrics_flag_accepts_profile_path(self, capsys, run_dir):
        manifest = run_dir / "fig.manifest.json"
        code = main(
            [
                "inspect-manifest", str(manifest),
                "--metrics", str(run_dir / "fig.prof.json"),
            ]
        )
        assert code == 0
        assert "| span" in capsys.readouterr().out

    def test_unrecognized_companion_rejected(self, run_dir, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "repro.other/1"}))
        with pytest.raises(SystemExit):
            main(
                [
                    "inspect-manifest", str(run_dir / "fig.manifest.json"),
                    "--metrics", str(bogus),
                ]
            )


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.traffic == "poisson"
        assert args.rate_mult == 1.0
        assert args.horizon is None and args.task_limit is None
        assert args.timeline_cap is None

    def test_rejects_unknown_traffic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--traffic", "bursty"])

    def test_unbounded_generative_traffic_exits(self):
        with pytest.raises(SystemExit, match="unbounded"):
            main(["serve", *TINY, "--traffic", "poisson"])

    def test_poisson_run_prints_windows(self, capsys, tmp_path):
        out = tmp_path / "w.jsonl"
        code = main(
            [
                "serve", *TINY,
                "--traffic", "poisson", "--task-limit", "80",
                "--windows-out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "80 arrivals" in text
        assert "allowance drawn" in text
        assert f"wrote {out}" in text
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(row["format"] == "repro.window/1" for row in rows)
        assert sum(row["arrivals"] for row in rows) == 80

    def test_replay_prints_batch_equivalent_score(self, capsys):
        assert main(["serve", *TINY, "--traffic", "replay"]) == 0
        text = capsys.readouterr().out
        assert "batch-equivalent score" in text
        assert "60 arrivals" in text

    def test_ring_timeline_output(self, capsys, tmp_path):
        out = tmp_path / "tl.json"
        code = main(
            [
                "serve", *TINY,
                "--traffic", "diurnal", "--task-limit", "60",
                "--timeline-out", str(out), "--timeline-dt", "50",
                "--timeline-cap", "7",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        (stream,) = data["streams"]
        assert len(stream["t"]) <= 7


class TestServeTelemetryFlags:
    def test_parser_defaults_leave_telemetry_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.telemetry_port is None
        assert args.telemetry_out is None
        assert args.slo is None
        assert args.telemetry_linger == 0.0

    def test_bad_slo_spec_exits(self):
        with pytest.raises(SystemExit, match="--slo"):
            main(
                [
                    "serve", *TINY, "--traffic", "replay",
                    "--slo", "on_time_prob",
                ]
            )

    def test_telemetry_out_writes_scrape_and_summary(self, capsys, tmp_path):
        out = tmp_path / "tele.prom"
        code = main(
            [
                "serve", *TINY,
                "--traffic", "poisson", "--task-limit", "80",
                "--telemetry-out", str(out),
                "--slo", "on_time_prob<0.5:3",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "SLO health:" in text
        assert "on_time_prob<0.5:3" in text
        assert f"wrote {out}" in text
        scrape_text = out.read_text()
        assert "repro_tasks_completed_total" in scrape_text
        assert 'repro_completion_latency_seconds{quantile="0.5"}' in scrape_text

    def test_telemetry_port_serves_scrapes(self, capsys):
        # Ephemeral port; the endpoint lives only during the run, so the
        # printed URL is the observable contract here.
        code = main(
            [
                "serve", *TINY, "--traffic", "replay",
                "--telemetry-port", "0",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "telemetry: scrape http://127.0.0.1:" in text
        assert "steady state (MSER-5 warm-up, batch-means CI)" in text

    def test_busy_telemetry_port_exits_with_one_line(self):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            port = held.getsockname()[1]
            with pytest.raises(SystemExit) as info:
                main(
                    [
                        "serve", *TINY, "--traffic", "replay",
                        "--telemetry-port", str(port),
                    ]
                )
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro serve: --telemetry-port {port}: ")


class TestMonitorCommand:
    def test_single_shot_render(self, capsys, tmp_path):
        windows = tmp_path / "w.jsonl"
        code = main(
            [
                "serve", *TINY,
                "--traffic", "poisson", "--task-limit", "120",
                "--windows-out", str(windows),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["monitor", str(windows), "--tail", "4"]) == 0
        text = capsys.readouterr().out
        assert "LL/en+rob [poisson]" in text
        assert "on-time" in text

    def test_monitor_with_slo_rules(self, capsys, tmp_path):
        windows = tmp_path / "w.jsonl"
        main(
            [
                "serve", *TINY,
                "--traffic", "poisson", "--task-limit", "80",
                "--windows-out", str(windows),
            ]
        )
        capsys.readouterr()
        assert main(["monitor", str(windows), "--slo", "queue_depth>1e9"]) == 0
        text = capsys.readouterr().out
        assert "SLO health: OK" in text

    def test_missing_file_exits(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["monitor", "/nonexistent/windows.jsonl"])

    def test_reports_unparseable_rows(self, capsys, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("{not json\n[1, 2]\n")
        assert main(["monitor", str(path)]) == 0
        assert "2 unparseable rows skipped" in capsys.readouterr().out

    def test_bad_rule_exits(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="--slo"):
            main(["monitor", str(path), "--slo", "nonsense"])


class TestRunPathPins:
    """What ``trial`` / ``serve`` produce, pinned against the library calls."""

    def test_core_scope_faults_cover_every_core(self, capsys, tmp_path):
        from repro import SimulationConfig, build_trial_system
        from repro.faults import FaultSchedule
        from repro.io.faults_io import load_faults

        path = tmp_path / "schedule.json"
        code = main(
            [
                "trial", "--tasks", "60", "--seed", "5",
                "--fault-scope", "core", "--fault-mtbf", "20000",
                "--fault-mttr", "2000", "--fault-horizon", "20000",
                "--shed-queue-depth", "6",
                "--faults-out", str(path),
            ]
        )
        assert code == 0
        assert f"wrote {path}" in capsys.readouterr().out
        system = build_trial_system(SimulationConfig(seed=5))
        expected = FaultSchedule.generate(
            num_targets=system.cluster.num_cores,
            horizon=20000.0,
            mtbf=20000.0,
            mttr=2000.0,
            seed=5,
            scope="core",
        )
        saved = load_faults(path)
        assert saved == expected
        assert max(e.target for e in saved.events) >= system.cluster.num_nodes

    def test_poisson_serve_windows_match_serve_system(self, capsys, tmp_path):
        from repro import SimulationConfig, build_trial_system
        from repro.faults import FaultPolicy, FaultSchedule, SheddingConfig
        from repro.service import ServiceConfig, serve_system, write_windows_jsonl

        cli_out = tmp_path / "cli.jsonl"
        code = main(
            [
                "serve", "--tasks", "60", "--seed", "5",
                "--traffic", "poisson", "--rate-mult", "4", "--task-limit", "150",
                "--fault-mtbf", "4000", "--fault-mttr", "1500",
                "--fault-horizon", "20000", "--fault-running", "resume",
                "--shed-queue-depth", "2", "--shed-defer", "60",
                "--windows-out", str(cli_out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        config = SimulationConfig(seed=5)
        workload = config.workload.with_num_tasks(60)
        system = build_trial_system(dataclasses.replace(config, workload=workload))
        service = ServiceConfig(
            traffic="poisson",
            rate_mult=4.0,
            task_limit=150,
            faults=FaultSchedule.generate(
                num_targets=system.cluster.num_nodes,
                horizon=20000.0,
                mtbf=4000.0,
                mttr=1500.0,
                seed=5,
                scope="node",
            ),
            fault_policy=FaultPolicy(running="resume"),
            shedding=SheddingConfig(queue_depth=2.0, defer=60.0),
        )
        result = serve_system(system, VariantSpec("LL", "en+rob"), service)
        lib_out = tmp_path / "lib.jsonl"
        write_windows_jsonl(result, lib_out)
        assert result.totals.lost > 0 and result.totals.deferred > 0
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_trial_trace_matches_run_trial(self, capsys, tmp_path):
        from repro import api

        cli_trace = tmp_path / "cli.jsonl"
        code = main(
            [
                "trial", "-H", "MECT", "-F", "en+rob", "--tasks", "60",
                "--seed", "5", "--trace-out", str(cli_trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lib_trace = tmp_path / "lib.jsonl"
        sink = api.JsonlSink(lib_trace)
        try:
            api.run_trial(
                api.Scenario("MECT", "en+rob", seed=5, num_tasks=60), sinks=(sink,)
            )
        finally:
            sink.close()
        assert cli_trace.read_bytes() == lib_trace.read_bytes()
        assert cli_trace.read_bytes().count(b"\n") > 60


class TestFaultFileErrors:
    """A malformed ``--faults FILE`` exits 1 with one line, no traceback."""

    @pytest.mark.parametrize(
        "content, match",
        [
            (None, "No such file"),
            ("{not json", "Expecting property name"),
            (
                '{"format": "repro.faults/1", "events": '
                '[{"kind": "node_outage", "target": 0, "duration": 5.0}]}',
                "'start'",
            ),
        ],
        ids=["missing", "not-json", "no-start"],
    )
    @pytest.mark.parametrize("command", ["trial", "serve"])
    def test_bad_faults_file_exits_with_one_line(self, tmp_path, command, content, match):
        path = tmp_path / "faults.json"
        if content is not None:
            path.write_text(content)
        argv = [command, *TINY, "--faults", str(path)]
        if command == "serve":
            argv += ["--traffic", "replay"]
        with pytest.raises(SystemExit, match=match) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro {command}: ")


class TestShedDeferErrors:
    """``--shed-defer`` without a threshold that defers is refused."""

    @pytest.mark.parametrize("extra", [[], ["--shed-min-prob", "0.1"]], ids=["alone", "min-prob"])
    @pytest.mark.parametrize("command", ["trial", "serve"])
    def test_shed_defer_needs_a_deferring_threshold(self, command, extra):
        argv = [command, *TINY, "--shed-defer", "5", *extra]
        if command == "serve":
            argv += ["--traffic", "replay"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == (
            f"repro {command}: --shed-defer needs --shed-queue-depth or --shed-budget-frac"
        )


class TestInputFileErrors:
    """A missing, non-JSON or wrong-format input file exits 1 with one line."""

    BAD = {
        "missing": None,
        "not-json": "{not json",
        "list": "[1, 2]",
        "empty-object": "{}",
    }
    # Command lines reading FILE; a Chrome profile may be a bare JSON
    # array, so the list document is valid input where one is accepted.
    COMMANDS = {
        "report": (["report", "FILE"], ()),
        "compare": (["compare", "FILE", "LL/none", "LL/en+rob"], ()),
        "inspect-manifest": (["inspect-manifest", "FILE"], ()),
        "inspect-manifest-results": (["inspect-manifest", "MANIFEST", "--results", "FILE"], ()),
        "inspect-manifest-trace": (["inspect-manifest", "MANIFEST", "--trace", "FILE"], ()),
        "inspect-manifest-metrics": (
            ["inspect-manifest", "MANIFEST", "--metrics", "FILE"], ("list",)
        ),
        "profile-timeline": (["profile", "PROFILE", "--timeline", "FILE"], ()),
        "profile": (["profile", "FILE"], ("list",)),
    }

    @pytest.fixture
    def valid(self, tmp_path):
        from repro.obs.manifest import RunManifest, save_manifest

        manifest = RunManifest("0" * 64, 1, 1, "0", None, ("LL/none",), {"LL/none": ("0" * 64,)})
        profile = tmp_path / "profile.json"
        profile.write_text('{"traceEvents": []}')
        return {
            "MANIFEST": str(save_manifest(manifest, tmp_path / "run.manifest.json")),
            "PROFILE": str(profile),
        }

    @pytest.mark.parametrize("content", list(BAD), ids=list(BAD))
    @pytest.mark.parametrize("case", list(COMMANDS), ids=list(COMMANDS))
    def test_bad_file_exits_with_one_line(self, tmp_path, capsys, valid, case, content):
        argv, accepts = self.COMMANDS[case]
        path = tmp_path / "bad.json"
        if self.BAD[content] is not None:
            path.write_text(self.BAD[content])
        argv = [{**valid, "FILE": str(path)}.get(arg, arg) for arg in argv]
        if content in accepts:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"repro {argv[0]}: ")
        assert str(path) in message


class TestDegradedServiceExample:
    def test_serve_flags_and_scenario_file_print_the_same_summary(self, capsys):
        assert main(
            [
                "serve", "--tasks", "200", "--seed", "7",
                "--traffic", "poisson", "--rate-mult", "1.5", "--task-limit", "600",
                "--fault-mtbf", "6000", "--fault-mttr", "2000",
                "--fault-horizon", "40000", "--fault-scope", "node",
                "--fault-running", "resume",
                "--shed-queue-depth", "4", "--shed-defer", "60",
            ]
        ) == 0
        flags = capsys.readouterr().out
        scenario = REPO / "examples" / "scenarios" / "degraded_service.toml"
        assert main(["run", "--scenario", str(scenario)]) == 0
        header, summary = capsys.readouterr().out.split("\n", 1)
        assert header.startswith("scenario degraded-service: LL/en+rob, mode service")
        assert "outages" in summary and "deferred" in summary
        assert summary == flags
