"""Tests for the afraid-sim command-line interface."""

import pytest

from repro.cli import main
from repro.traces import make_trace, write_trace_csv


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "afraid-sim" in out
        assert repro.__version__ in out


class TestServiceParsers:
    """The serve/submit/status subcommands parse; end-to-end coverage
    lives in tests/service/ and the CI service smoke job."""

    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8642)
        assert (args.jobs, args.queue_limit) == (2, 1024)

    def test_submit_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["submit", "hplajw", "--wait"])
        assert args.workloads == ["hplajw"]
        assert args.url == "http://127.0.0.1:8642"
        assert args.wait

    def test_submit_mttdl_policy_takes_its_targets(self):
        from repro.cli import _submit_payload, build_parser
        from repro.harness import PolicySpec
        from repro.service import parse_cell

        args = build_parser().parse_args(
            ["submit", "hplajw", "--policy", "mttdl", "--targets", "1e6", "1e7"]
        )
        cells = [parse_cell(cell) for cell in _submit_payload(args)["cells"]]
        assert [cell.policy for cell in cells] == [
            PolicySpec("mttdl", 1e6), PolicySpec("mttdl", 1e7)
        ]

    def test_submit_mttdl_policy_without_targets_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "hplajw", "--policy", "mttdl"])
        assert excinfo.value.code == 2
        assert "argument --targets: mttdl policy needs mttdl_target" in capsys.readouterr().err

    def test_status_accepts_optional_job_id(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["status"]).job_id is None
        assert parser.parse_args(["status", "job-000001"]).job_id == "job-000001"

    def test_serve_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", "0"])


class TestSweepCacheCap:
    def test_cache_max_bytes_prunes_after_sweep(self, tmp_path, capsys):
        assert main(["sweep", "hplajw", "--targets", "1e7", "--duration", "2",
                     "--cache-dir", str(tmp_path), "--cache-max-bytes", "1"]) == 0
        err = capsys.readouterr().err
        assert "cache pruned" in err
        assert list(tmp_path.glob("*.json")) == []

    def test_generous_cap_keeps_entries(self, tmp_path, capsys):
        assert main(["sweep", "hplajw", "--targets", "1e7", "--duration", "2",
                     "--cache-dir", str(tmp_path),
                     "--cache-max-bytes", str(1 << 30)]) == 0
        assert len(list(tmp_path.glob("*.json"))) > 0


class TestWorkloads:
    def test_lists_all_ten(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("hplajw", "snake", "cello-usr", "cello-news", "netware",
                     "ATT", "AS400-1", "AS400-2", "AS400-3", "AS400-4"):
            assert name in out


class TestRun:
    def test_afraid_run(self, capsys):
        assert main(["run", "hplajw", "--duration", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean I/O time" in out
        assert "disk MTTDL" in out

    def test_mttdl_policy_needs_target(self):
        with pytest.raises(SystemExit):
            main(["run", "hplajw", "--policy", "mttdl", "--duration", "5"])

    def test_mttdl_policy_with_target(self, capsys):
        assert main(["run", "hplajw", "--policy", "mttdl", "--mttdl-target", "1e7",
                     "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "MTTDL_1e+07" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuch"])

    def test_json_output_parses(self, capsys):
        import json

        assert main(["run", "AS400-4", "--duration", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "AS400-4"
        assert payload["policy"] == "afraid"
        assert payload["mean_io_time_s"] > 0
        assert 0.0 <= payload["unprotected_fraction"] <= 1.0


class TestCompare:
    def test_three_models(self, capsys):
        assert main(["compare", "AS400-4", "--duration", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        for model in ("raid0", "afraid", "raid5"):
            assert model in out
        assert "vs RAID5" in out


class TestAnalyze:
    def test_catalog_workload(self, capsys):
        assert main(["analyze", "snake", "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "write fraction" in out
        assert "duty cycle" in out

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "capture.csv"
        write_trace_csv(make_trace("AS400-3", duration_s=10.0, seed=4), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "capture" in out


class TestProfile:
    def test_hot_path_table(self, capsys):
        assert main(["profile", "hplajw", "--duration", "3", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: hplajw under afraid" in out
        assert "sorted by cumulative" in out
        assert "run_experiment" in out
        # top 5 rows plus the two header lines and the summary line
        assert len(out.strip().splitlines()) == 8

    def test_pstats_dump(self, tmp_path, capsys):
        dump = tmp_path / "replay.pstats"
        assert main([
            "profile", "hplajw", "--duration", "2", "--sort", "tottime",
            "--dump", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert "sorted by tottime" in out
        import pstats

        assert pstats.Stats(str(dump)).total_calls > 0


class TestAvailability:
    def test_calculator(self, capsys):
        assert main(["availability", "--fraction", "0.1", "--years", "3"]) == 0
        out = capsys.readouterr().out
        assert "RAID 5 disk MTTDL" in out
        assert "P(loss in 3 years)" in out

    def test_reproduces_eq1(self, capsys):
        main(["availability", "--fraction", "0.0"])
        out = capsys.readouterr().out
        assert "4.2e+09 h" in out


class TestStatsFlag:
    def test_run_stats_table(self, capsys):
        assert main(["run", "hplajw", "--duration", "5", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "events_dispatched" in out

    def test_run_stats_json(self, capsys):
        import json

        assert main(["run", "hplajw", "--duration", "5", "--json", "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["perf"]["counts"]["events_dispatched"] > 0

    def test_sweep_stats(self, capsys, tmp_path):
        assert main(["sweep", "hplajw", "--targets", "1e7",
                     "--duration", "2", "--cache-dir", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "cells_simulated" in out


class TestTrace:
    def test_trace_writes_loadable_chrome_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "hplajw", "--duration", "5", "--seed", "3",
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert "read" in names or "write" in names
        assert "scrub_stripe" in names
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "dirty_stripes" in counters
        assert "parity_lag_bytes" in counters
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out

    def test_trace_jsonl_and_histogram_export(self, tmp_path, capsys):
        import json

        hist_path = tmp_path / "hists.json"
        jsonl_path = tmp_path / "trace.jsonl"
        assert main(["trace", "hplajw", "--duration", "5",
                     "--out", str(tmp_path / "t.json"),
                     "--jsonl", str(jsonl_path),
                     "--hist-out", str(hist_path)]) == 0
        payload = json.loads(hist_path.read_text())
        assert payload["workload"] == "hplajw"
        assert "client_write" in payload["histograms"]["classes"]
        first = json.loads(jsonl_path.read_text().splitlines()[0])
        assert first["kind"] in ("span", "instant", "counter")

    def test_unknown_workload_falls_back_to_generic(self, tmp_path, capsys):
        assert main(["trace", "uncompressed", "--duration", "2",
                     "--out", str(tmp_path / "t.json")]) == 0
        err = capsys.readouterr().err
        assert "generic" in err

    def test_percentile_table_printed(self, tmp_path, capsys):
        assert main(["trace", "hplajw", "--duration", "5",
                     "--out", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "p95" in out
        assert "client_write" in out


class TestReport:
    def test_report_runs_workload(self, capsys):
        assert main(["report", "hplajw", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "client_read" in out

    def test_report_from_exported_histograms(self, tmp_path, capsys):
        hist_path = tmp_path / "hists.json"
        assert main(["trace", "hplajw", "--duration", "5",
                     "--out", str(tmp_path / "t.json"),
                     "--hist-out", str(hist_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--from", str(hist_path)]) == 0
        out = capsys.readouterr().out
        assert "client_write" in out

    def test_report_needs_a_source(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_from_missing_file_fails_clearly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--from", "/no/such/file.json"])
        message = str(excinfo.value)
        assert "/no/such/file.json" in message
        assert "afraid-sim trace --hist-out" in message

    def test_report_from_truncated_file_fails_clearly(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"histograms": {"min_lat')  # cut mid-write
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--from", str(path)])
        message = str(excinfo.value)
        assert str(path) in message
        assert "not valid JSON" in message

    def test_report_from_wrong_shape_fails_clearly(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"some": "other payload"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--from", str(path)])
        assert "wrong shape" in str(excinfo.value)


class TestAvailabilityJson:
    def test_json_format(self, capsys):
        import json

        assert main(["availability", "--fraction", "0.1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unprotected_fraction"] == 0.1
        assert payload["afraid_mttdl_h"] > 0
        assert 0.0 <= payload["loss_probability"] <= 1.0

    def test_json_encodes_infinity_as_string(self, capsys):
        import json

        # Zero exposure with zero disks is degenerate; instead pin the
        # raid5 field, which is finite, and check the encoder via types.
        assert main(["availability", "--fraction", "0.0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["raid5_mttdl_h"], (int, float))


class TestSloFlags:
    def test_run_with_breached_slo(self, capsys):
        assert main(["run", "hplajw", "--duration", "3",
                     "--slo", "parity_lag_bytes < 1"]) == 0
        out = capsys.readouterr().out
        assert "SLOs" in out
        assert "BREACH" in out

    def test_run_slo_json_payload(self, capsys):
        import json

        assert main(["run", "hplajw", "--duration", "3", "--json",
                     "--slo", "parity_lag_bytes < 1",
                     "--slo", "dirty_stripes <= 1e9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["breached"] is True
        assert "parity_lag_bytes < 1" in payload["slo"]["rules"]
        assert payload["slo"]["events"][0]["kind"] == "breach"

    def test_bad_slo_rule_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "hplajw", "--duration", "2", "--slo", "not a rule"])
        assert "--slo" in str(excinfo.value)

    def test_compare_with_slo_column(self, capsys):
        assert main(["compare", "hplajw", "--duration", "2",
                     "--slo", "parity_lag_bytes < 1"]) == 0
        out = capsys.readouterr().out
        assert "SLO breaches" in out
        # raid5 never accrues parity lag, so its engine stays clean.
        assert "raid5:" in out


class TestExposure:
    def test_table_output(self, capsys):
        assert main(["exposure", "hplajw", "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "windowed_mttdl_h" in out
        assert "windowed estimators vs eq. (2c)" in out
        assert "dirty_dwell" in out

    def test_windowed_column_matches_analytic_at_small_horizon(self, capsys):
        """With window >= horizon the windowed estimator covers the whole
        run, so both MTTDL columns agree."""
        assert main(["exposure", "hplajw", "--duration", "3",
                     "--window", "10"]) == 0
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines() if row.startswith("achieved MTTDL"))
        cells = [c for c in line.split("  ") if c.strip()]
        assert cells[1].strip() == cells[2].strip()

    def test_prom_and_jsonl_export(self, tmp_path, capsys):
        from repro.obs import parse_prometheus_text, read_jsonl_snapshots

        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "snaps.jsonl"
        assert main(["exposure", "hplajw", "--duration", "2",
                     "--prom", str(prom), "--jsonl", str(jsonl)]) == 0
        parsed = parse_prometheus_text(prom.read_text())
        assert parsed["types"]["parity_lag_bytes"] == "gauge"
        assert "stripe_dirty_dwell_seconds" in parsed["histograms"]
        snaps = read_jsonl_snapshots(jsonl)
        assert len(snaps) == 40  # 2 s at the default 50 ms period
        assert snaps[0]["time_s"] == 0.0

    def test_json_output(self, capsys):
        import json

        assert main(["exposure", "hplajw", "--duration", "2", "--json",
                     "--slo", "parity_lag_bytes < 1e12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["windowed_mttdl_h"] > 0
        assert payload["slo"]["breached"] is False
        assert payload["result"]["workload"] == "hplajw"
        assert payload["snapshots"] == 40

    def test_fail_on_breach_exit_code(self, capsys):
        assert main(["exposure", "hplajw", "--duration", "2",
                     "--slo", "parity_lag_bytes < 1",
                     "--fail-on-breach"]) == 1
        assert main(["exposure", "hplajw", "--duration", "2",
                     "--slo", "parity_lag_bytes < 1e12",
                     "--fail-on-breach"]) == 0


class TestReportFromEventLog:
    """``report --from`` also accepts service NDJSON event logs."""

    @staticmethod
    def _event_log(tmp_path):
        import json

        lines = [
            {"event": "submitted", "job": "job-000001"},
            {"event": "cell_completed", "cell": "hplajw/afraid", "latency_s": 0.012},
            {"event": "cell_completed", "cell": "hplajw/afraid", "latency_s": 0.034},
            {"event": "cell_completed", "cell": "hplajw/raid0", "latency_s": 0.002},
            {"event": "job_completed", "job": "job-000001"},
        ]
        path = tmp_path / "events.ndjson"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    def test_report_from_ndjson_event_log(self, tmp_path, capsys):
        assert main(["report", "--from", str(self._event_log(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "service event log" in out
        assert "hplajw/afraid" in out
        assert "hplajw/raid0" in out

    def test_single_event_line_is_treated_as_a_log(self, tmp_path, capsys):
        path = tmp_path / "one.ndjson"
        path.write_text('{"event": "cell_completed", "cell": "c", "latency_s": 0.01}\n')
        assert main(["report", "--from", str(path)]) == 0
        assert "service event log" in capsys.readouterr().out

    def test_bad_line_names_both_formats(self, tmp_path):
        path = tmp_path / "mixed.ndjson"
        path.write_text('{"event": "submitted"}\nnot json at all\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--from", str(path)])
        message = str(excinfo.value)
        assert "line 2" in message
        assert "afraid-sim trace --hist-out" in message
        assert "GET /jobs/<id>/events" in message

    def test_non_event_lines_fail_clearly(self, tmp_path):
        path = tmp_path / "noevents.ndjson"
        path.write_text('{"foo": 1}\n{"bar": 2}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--from", str(path)])
        assert "not a service event" in str(excinfo.value)


class TestNemesis:
    QUICK = ["nemesis", "snake", "--duration", "6", "--seed", "3",
             "--disk-failures", "1", "--nvram-losses", "1", "--latent-errors", "1"]

    def test_defaults_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["nemesis"])
        assert args.workload == "snake"
        assert args.duration == 30.0
        assert args.slo is None  # falls back to DEFAULT_NEMESIS_SLOS

    def test_smoke_prints_tables(self, capsys):
        assert main(self.QUICK) == 0
        out = capsys.readouterr().out
        assert "fault kind" in out
        assert "injection gate:" in out
        assert "timeline:" in out
        assert "INVARIANT VIOLATION" not in out

    def test_json_summary(self, capsys):
        import json

        assert main([*self.QUICK, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nemesis"]["seed"] == 3
        assert payload["invariants"]["ok"] is True

    def test_report_dir_and_fail_on_violation(self, tmp_path, capsys):
        report = tmp_path / "nemesis-run"
        assert main([*self.QUICK, "--report", str(report),
                     "--fail-on-violation"]) == 0
        for name in ("timeline.jsonl", "trace.json", "metrics.prom",
                     "incident.md", "summary.json"):
            assert (report / name).is_file(), name
        first = (report / "timeline.jsonl").read_bytes()
        rerun = tmp_path / "nemesis-rerun"
        assert main([*self.QUICK, "--report", str(rerun)]) == 0
        assert (rerun / "timeline.jsonl").read_bytes() == first

    def test_bad_spec_fails_clearly(self):
        with pytest.raises(SystemExit):
            main(["nemesis", "--duration", "0"])

    def test_custom_slo_rules(self, capsys):
        assert main([*self.QUICK, "--slo", "degraded_disks < 2"]) == 0
        assert "degraded_disks < 2" in capsys.readouterr().out


class TestNumericFlags:
    """Out-of-range numeric flags are argparse usage errors (exit 2),
    never a traceback or a silently wrong run."""

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a run the parser let through writes

    @staticmethod
    def _assert_usage_error(capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {flag}" in err

    @pytest.mark.parametrize("value", ["0", "-3", "nan"])
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "snake"], ["compare", "snake"], ["analyze", "snake"],
            ["profile", "snake"], ["sweep", "hplajw", "--no-cache"],
            ["trace", "snake"], ["report", "snake"],
            ["exposure", "snake"], ["replay", "snake"], ["nemesis", "snake"],
        ],
    )
    def test_duration_must_be_positive_and_finite(self, capsys, command, value):
        self._assert_usage_error(capsys, [*command, "--duration", value], "--duration")

    def test_infinity_is_not_a_duration(self):
        import argparse

        from repro.cli import _positive_float

        for text in ("inf", "-inf", "1e999"):
            with pytest.raises(argparse.ArgumentTypeError):
                _positive_float(text)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_shards_must_be_at_least_one(self, capsys, value):
        self._assert_usage_error(
            capsys, ["replay", "snake", "--duration", "1", "--shards", value], "--shards"
        )

    def test_store_byte_caps_must_not_be_negative(self, tmp_path, capsys):
        self._assert_usage_error(
            capsys,
            ["replay", "snake", "--duration", "1", "--checkpoint-dir", str(tmp_path / "ck"),
             "--checkpoint-max-bytes", "-1"],
            "--checkpoint-max-bytes",
        )
        self._assert_usage_error(
            capsys,
            ["sweep", "hplajw", "--targets", "1e7", "--duration", "1",
             "--cache-dir", str(tmp_path / "cache"), "--cache-max-bytes", "-1"],
            "--cache-max-bytes",
        )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "snake", "--policy", "mttdl", "--mttdl-target", "-1"], "--mttdl-target"),
            (["sweep", "hplajw", "--no-cache", "--targets", "0"], "--targets"),
            (["trace", "snake", "--sample-period", "0"], "--sample-period"),
            (["exposure", "snake", "--window", "0"], "--window"),
            (["exposure", "snake", "--period", "0"], "--period"),
        ],
    )
    def test_periods_and_targets_must_be_positive(self, capsys, argv, flag):
        self._assert_usage_error(capsys, [*argv, "--duration", "1"], flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["trace", "snake", "--duration", "1", "--max-records", "0"], "--max-records"),
            (["faults", "--seeds", "-1"], "--seeds"),
            (["nemesis", "snake", "--duration", "3", "--spares", "-1"], "--spares"),
        ],
    )
    def test_counts_must_be_in_range(self, capsys, argv, flag):
        self._assert_usage_error(capsys, argv, flag)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["availability", "--fraction", "2"], "--fraction"),
            (["availability", "--fraction", "-0.5"], "--fraction"),
            (["availability", "--fraction", "nan"], "--fraction"),
            (["availability", "--fraction", "1e400"], "--fraction"),
            (["availability", "--years", "-1"], "--years"),
            (["availability", "--years", "nan"], "--years"),
            (["analyze", "snake", "--duration", "1", "--gap", "-1"], "--gap"),
            (["analyze", "snake", "--duration", "1", "--gap", "nan"], "--gap"),
            (["profile", "snake", "--duration", "1", "--top", "-3"], "--top"),
        ],
    )
    def test_calculator_and_table_flags_are_bounded(self, capsys, argv, flag):
        self._assert_usage_error(capsys, argv, flag)


class TestOrganizationFlags:
    """Every run command takes --organization/--ndisks, as the service does."""

    def test_replay_digest_matches_the_library(self, capsys):
        from repro.harness.sharding import run_sharded_replay

        assert main(["replay", "snake", "--duration", "2", "--organization", "raid10",
                     "--shards", "3", "--digest"]) == 0
        _, digest = run_sharded_replay("snake", duration_s=2.0, organization="raid10")
        assert capsys.readouterr().out.strip() == digest

    def test_exposure_runs_the_organization(self, capsys):
        import json

        assert main(["exposure", "hplajw", "--duration", "2", "--organization", "raid1",
                     "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["organization"], result["ndisks"]) == ("raid1", 2)

    @pytest.mark.parametrize("command", ["report", "profile", "trace"])
    def test_titles_name_the_array(self, tmp_path, capsys, command):
        argv = [command, "hplajw", "--duration", "2", "--organization", "raid15"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t.json")]
        assert main(argv) == 0
        assert "[raid15, 6 disks]" in capsys.readouterr().out
