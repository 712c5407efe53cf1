import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from semo import LogRecord, rate_to_power, read_battery_sample, save_scenario, table1_scenario, write_log
from semo.cli import main
from semo.recorder import record_to_json

from _helpers import make_record, write_source_dir

MIN = 60_000


@pytest.fixture
def healthy_source(tmp_path):
    return write_source_dir(tmp_path / "bat")


@pytest.fixture
def low_battery_source(tmp_path):
    return write_source_dir(tmp_path / "bat", capacity="14")


@pytest.fixture
def sample_log(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [
        make_record(0, 100, apps=()),
        make_record(60 * MIN, 98, apps=("A",)),
        make_record(120 * MIN, 93, apps=("B",)),
        make_record(180 * MIN, 86, apps=("A", "B")),
        make_record(240 * MIN, 76, apps=()),
    ]
    write_log(path, records)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_healthy_battery_exits_zero(self, capsys, healthy_source):
        code, out, err = run_cli(capsys, "inspect", "--source-root", str(healthy_source))
        assert code == 0
        assert "level: 80%" in out
        assert "warning" not in out

    def test_low_battery_exits_two(self, capsys, low_battery_source):
        code, out, _ = run_cli(capsys, "inspect", "--source-root", str(low_battery_source))
        assert code == 2
        assert "warning LowBattery:" in out

    def test_json_output(self, capsys, low_battery_source):
        code, out, _ = run_cli(capsys, "inspect", "--json", "--source-root", str(low_battery_source))
        assert code == 2
        payload = json.loads(out)
        assert payload["sample"]["level_pct"] == 14
        assert payload["warnings"][0]["kind"] == "LowBattery"
        assert payload["warnings"][0]["threshold"] == 15
        # the sample is the log record without apps, in the same key order
        read = replace(read_battery_sample(low_battery_source), ts_ms=payload["sample"]["ts_ms"])
        logged = json.loads(record_to_json(LogRecord(read, ("game",))))
        del logged["apps"]
        assert list(payload["sample"].items()) == list(logged.items())

    def test_env_var_source_root(self, capsys, healthy_source, monkeypatch):
        monkeypatch.setenv("SEMO_SOURCE_ROOT", str(healthy_source))
        code, out, _ = run_cli(capsys, "inspect")
        assert code == 0

    def test_missing_source_is_diagnostic(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "inspect", "--source-root", str(tmp_path / "nope"))
        assert code == 1
        assert out == ""
        assert "error" in err


class TestCurve:
    def test_csv_rows(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "curve", str(sample_log))
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "ts_ms,level_pct"
        assert lines[1] == "0,100"
        assert len(lines) == 6

    def test_tail(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "curve", str(sample_log), "--tail", "2")
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[-1].endswith(",76")

    def test_json(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "curve", str(sample_log), "--json")
        payload = json.loads(out)
        assert payload["series"][0] == [0, 100]
        assert len(payload["series"]) == 5


class TestAnalyze:
    def test_missing_log_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", str(tmp_path / "missing.jsonl"))
        assert code == 1
        assert out == ""
        assert "missing.jsonl" in err

    def test_table_output(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "analyze", str(sample_log))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rank", "group", "rate_pct_per_h", "flags"]
        assert lines[1].split()[:2] == ["1", "B"]
        assert any(line.startswith("baseline:") for line in lines)
        assert any(line.startswith("residual rms:") for line in lines)

    def test_table_with_power_column(self, capsys, sample_log):
        code, out, _ = run_cli(
            capsys, "analyze", str(sample_log), "--capacity-mah", "1000", "--voltage-mv", "3700"
        )
        assert code == 0
        header = out.splitlines()[0].split()
        assert "power_mw" in header

    def test_json_output_mirrors_result_fields(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"baseline_pct_per_h", "groups", "unobserved", "residual_rms", "ranking"}
        assert payload["ranking"][0]["apps"] == ["B"]
        assert payload["baseline_pct_per_h"] == pytest.approx(2.0, abs=1e-9)

    def test_json_with_power(self, capsys, sample_log):
        code, out, _ = run_cli(
            capsys, "analyze", str(sample_log), "--json",
            "--capacity-mah", "1000", "--voltage-mv", "3700",
        )
        payload = json.loads(out)
        assert payload["ranking"][0]["power_mw"] == pytest.approx(5.0 / 100 * 1000 * 3.7, abs=1e-6)

    def test_power_agrees_across_formats(self, capsys, sample_log):
        constants = ("--capacity-mah", "1000", "--voltage-mv", "3700")
        _, out, _ = run_cli(capsys, "analyze", str(sample_log), "--json", *constants)
        payload = json.loads(out)
        for entry in payload["groups"] + payload["ranking"]:
            assert entry["power_mw"] == rate_to_power(entry["rate_pct_per_h"], 1000, 3700)
        assert payload["baseline_power_mw"] == rate_to_power(payload["baseline_pct_per_h"], 1000, 3700)
        power = {";".join(entry["apps"]): entry["power_mw"] for entry in payload["ranking"]}

        _, out, _ = run_cli(capsys, "analyze", str(sample_log), *constants)
        lines = out.splitlines()
        table = {line.split()[1]: line.split()[3] for line in lines[1 : 1 + len(power)]}
        assert table == {label: f"{mw:.1f}" for label, mw in power.items()}
        assert f"({payload['baseline_power_mw']:.1f} mW)" in lines[1 + len(power)]

        _, out, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "csv", *constants)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {row[0]: row[2] for row in rows} == {label: f"{mw:.3f}" for label, mw in power.items()}

    @pytest.mark.parametrize("constant", [("--capacity-mah", "1000"), ("--voltage-mv", "3700")])
    def test_one_constant_shows_no_power(self, capsys, sample_log, constant):
        _, out, _ = run_cli(capsys, "analyze", str(sample_log), *constant)
        assert "power_mw" not in out.splitlines()[0]
        assert "mW" not in out
        _, out, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "csv", *constant)
        assert all(row[2] == "" for row in list(csv.reader(io.StringIO(out)))[1:])
        _, out, _ = run_cli(capsys, "analyze", str(sample_log), "--json", *constant)
        payload = json.loads(out)
        assert "baseline_power_mw" not in payload
        assert not any("power_mw" in entry for entry in payload["groups"] + payload["ranking"])

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "constants,message",
        [
            (("--capacity-mah", "-5"), "capacity_mah must be positive"),
            (("--voltage-mv", "0"), "nominal_voltage_mv must be positive"),
            (("--capacity-mah", "0", "--voltage-mv", "3700"), "capacity_mah must be positive"),
            (("--capacity-mah", "inf", "--voltage-mv", "3700"), "capacity_mah must be finite: inf"),
            (("--voltage-mv", "inf"), "nominal_voltage_mv must be finite: inf"),
            (("--capacity-mah", "nan", "--voltage-mv", "3700"), "capacity_mah must be positive: nan"),
        ],
    )
    def test_bad_constant_fails_before_any_output(self, capsys, sample_log, fmt, constants, message):
        code, out, err = run_cli(capsys, "analyze", str(sample_log), "--format", fmt, *constants)
        assert (code, out) == (1, "")
        assert f"error: {message}" in err

    @pytest.mark.parametrize("json_flag", [("--format", "json"), ("--json",)])
    def test_power_overflow_is_not_written_as_json(self, capsys, sample_log, json_flag):
        constants = ("--capacity-mah", "1e308", "--voltage-mv", "1e308")
        code, out, err = run_cli(capsys, "analyze", str(sample_log), *json_flag, *constants)
        assert (code, out) == (1, "")
        assert err.startswith("error: Out of range float values are not JSON compliant")

    def test_zero_counter_at_the_top_level(self, capsys, tmp_path):
        path = tmp_path / "zero.jsonl"
        write_log(path, [
            make_record(0, 90, charge_uah=0),
            make_record(60 * MIN, 80, charge_uah=500),
            make_record(120 * MIN, 79, charge_uah=400),
        ])
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0, err
        assert "baseline: 16.0000 pct/h" in out

    def test_csv_output(self, capsys, sample_log):
        code, out, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["group", "rate_pct_per_h", "power_mw", "flags"]
        assert len(rows) == 3

    def test_degenerate_log_exits_two(self, capsys, tmp_path):
        path = tmp_path / "tiny.jsonl"
        write_log(path, [make_record(0, 80)])
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "degenerate" in err

    def test_forced_charge_counter_without_data(self, capsys, tmp_path):
        path = tmp_path / "lvl.jsonl"
        write_log(path, [make_record(0, 80, apps=("A",)), make_record(MIN, 79, apps=("A",))])
        code, out, err = run_cli(capsys, "analyze", str(path), "--use-charge-counter", "on")
        assert code == 1
        assert out == ""

    def test_malformed_log_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"nope": 1}\n')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("field", ["status", "health"])
    @pytest.mark.parametrize("value", [[], {}], ids=["list", "dict"])
    def test_non_string_status_or_health_reports_line(self, capsys, sample_log, field, value):
        append_bad_enum(sample_log, field, value)
        code, out, err = run_cli(capsys, "analyze", str(sample_log))
        assert (code, out) == (1, "")
        assert err.startswith("error: log line 6: unknown status/health: ")

    def test_integer_over_the_digit_limit_reports_line(self, capsys, sample_log):
        with open(sample_log, "a", encoding="utf-8") as fh:
            fh.write('{"ts_ms":' + "1" * 5000 + ',"level_pct":7}\n')
        code, out, err = run_cli(capsys, "analyze", str(sample_log))
        assert code == 1
        assert out == ""
        assert err.startswith("error: log line 6: invalid JSON: ")

    def test_torn_final_line_is_ignored(self, capsys, caplog, sample_log):
        _, whole, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "json")
        with open(sample_log, "a", encoding="utf-8") as fh:
            fh.write('{"ts_ms":18000000,"level_pct":7')
        code, out, _ = run_cli(capsys, "analyze", str(sample_log), "--format", "json")
        assert code == 0
        assert out == whole
        assert "unterminated final line 6 of the log (31 bytes)" in caplog.text


class TestExport:
    def test_records_csv(self, capsys, sample_log, tmp_path):
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "export", str(sample_log), "--csv", str(out_csv))
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "ts_ms,level_pct,voltage_mv,temp_dc,charge_uah,status,apps"
        assert len(rows) == 6

    def test_json_summary(self, capsys, sample_log, tmp_path):
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "export", str(sample_log), "--csv", str(out_csv), "--json")
        assert json.loads(out) == {"rows": 5, "csv": str(out_csv)}


class TestSimulateCommand:
    def test_simulate_writes_log(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(), scenario_path)
        log_path = tmp_path / "sim.jsonl"
        code, out, _ = run_cli(capsys, "simulate", str(scenario_path), "--out", str(log_path), "--json")
        assert code == 0
        assert json.loads(out)["records_written"] == 181

    def test_invalid_scenario_exits_one(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text('{"capacity_mah": -1}')
        code, out, err = run_cli(capsys, "simulate", str(scenario_path), "--out", str(tmp_path / "x"))
        assert code == 1
        assert out == ""

    def test_pipeline_simulate_then_analyze(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(), scenario_path)
        log_path = tmp_path / "sim.jsonl"
        assert main(["simulate", str(scenario_path), "--out", str(log_path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "analyze", str(log_path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ranking"][0]["apps"] == ["file download"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert out == ""

    def test_invalid_interval_is_clean_diagnostic(self, capsys, tmp_path, healthy_source):
        code, out, err = run_cli(
            capsys, "record", "--out", str(tmp_path / "x.jsonl"),
            "--interval", "0", "--source-root", str(healthy_source),
        )
        assert code == 1
        assert out == ""
        assert "interval" in err

    def test_negative_tail_is_clean_diagnostic(self, capsys, sample_log):
        code, out, err = run_cli(capsys, "curve", str(sample_log), "--tail", "-1")
        assert code == 1
        assert out == ""
        assert "tail" in err

    def test_unknown_flag(self, capsys, sample_log):
        code, out, err = run_cli(capsys, "curve", str(sample_log), "--sideways")
        assert code == 1

    def test_no_arguments(self, capsys):
        code, out, err = run_cli(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0


def test_every_json_mode_emits_single_document(capsys, tmp_path, healthy_source, sample_log):
    scenario_path = tmp_path / "scenario.json"
    save_scenario(table1_scenario(), scenario_path)
    invocations = [
        ("inspect", "--source-root", str(healthy_source), "--json"),
        ("curve", str(sample_log), "--json"),
        ("analyze", str(sample_log), "--json"),
        ("export", str(sample_log), "--csv", str(tmp_path / "e.csv"), "--json"),
        ("simulate", str(scenario_path), "--out", str(tmp_path / "s.jsonl"), "--json"),
    ]
    for argv in invocations:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        json.loads(out)  # exactly one parseable document


def append_bad_enum(path, field, value):
    """Append a record whose status or health is value, which is no string."""
    payload = json.loads(record_to_json(make_record(300 * MIN, 70)))
    payload[field] = value
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def test_record_onto_a_log_with_a_non_string_status_reports_line(tmp_path, sample_log):
    append_bad_enum(sample_log, "status", [])
    before = sample_log.read_bytes()
    proc = subprocess.run(
        [
            sys.executable, "-m", "semo", "record",
            "--out", str(sample_log), "--source-root", str(write_source_dir(tmp_path / "bat")),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "error: log line 6: unknown status/health: []/'Good'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sample_log.read_bytes() == before


def test_record_subprocess_smoke(tmp_path):
    source = write_source_dir(tmp_path / "bat")
    log_path = tmp_path / "rec.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "semo", "record",
            "--out", str(log_path), "--interval", "1",
            "--source-root", str(source), "--json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    time.sleep(2.5)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=10)
    assert proc.returncode == 0, err
    payload = json.loads(out)
    assert payload["records_written"] >= 1
    assert log_path.exists()
    lines = log_path.read_text().splitlines()
    assert len(lines) == payload["records_written"]


def test_record_stops_promptly_on_sigint(tmp_path):
    source = write_source_dir(tmp_path / "bat")
    log_path = tmp_path / "rec.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "semo", "record",
            "--out", str(log_path), "--interval", "30",
            "--source-root", str(source), "--json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 20
        while not (log_path.exists() and log_path.read_bytes().endswith(b"\n")):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "no record written"
            time.sleep(0.05)
        sent = time.monotonic()
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        stopped_after = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert stopped_after < 5, f"exit took {stopped_after:.1f} s after SIGINT"
    assert json.loads(out)["records_written"] == 1
