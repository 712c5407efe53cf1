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

from semo import (
    TABLE1_APPS,
    BatteryStatus,
    FileTreeSource,
    LogRecord,
    WarningKind,
    rate_to_power,
    save_scenario,
    simulate,
    table1_scenario,
    write_log,
)
from semo.cli import main
from semo.recorder import record_to_json
from semo.simulator import MAX_SAMPLES

from _helpers import LINUX_FAULTS, make_record, write_source_dir

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
        read = replace(FileTreeSource(low_battery_source).read_battery_sample(), ts_ms=payload["sample"]["ts_ms"])
        logged = json.loads(record_to_json(LogRecord(read, ("game",))))
        del logged["apps"]
        assert list(payload["sample"].items()) == list(logged.items())

    def test_json_every_warning_with_its_threshold(self, capsys, tmp_path):
        source = write_source_dir(
            tmp_path / "bat", capacity="10", temp="460", health="Overheat", voltage_now="2900000"
        )
        code, out, _ = run_cli(capsys, "inspect", "--json", "--source-root", str(source))
        assert code == 2
        warnings = json.loads(out)["warnings"]
        assert [w["kind"] for w in warnings] == [kind.value for kind in WarningKind]
        assert [w["threshold"] for w in warnings] == [15, 450, None, 3000]

    def test_unspecified_failure_exits_two(self, capsys, tmp_path):
        source = write_source_dir(tmp_path / "bat", health="Unspecified failure")
        code, out, _ = run_cli(capsys, "inspect", "--json", "--source-root", str(source))
        assert code == 2
        payload = json.loads(out)
        assert payload["sample"]["health"] == "UnspecifiedFailure"
        assert [(w["kind"], w["message"]) for w in payload["warnings"]] == [
            ("UnhealthyBattery", "battery health is unspecified failure")
        ]

    @pytest.mark.parametrize("health", LINUX_FAULTS)
    def test_linux_fault_exits_two(self, capsys, tmp_path, health):
        source = write_source_dir(tmp_path / "bat", health=health)
        code, out, _ = run_cli(capsys, "inspect", "--json", "--source-root", str(source))
        assert code == 2
        payload = json.loads(out)
        assert payload["sample"]["health"] == "UnspecifiedFailure"
        assert [w["kind"] for w in payload["warnings"]] == ["UnhealthyBattery"]

    def test_hot_battery_is_unhealthy(self, capsys, tmp_path):
        # the JEITA state Hot reads as Overheat even when the temperature reading is mild
        source = write_source_dir(tmp_path / "bat", health="Hot", temp="300")
        code, out, _ = run_cli(capsys, "inspect", "--json", "--source-root", str(source))
        assert code == 2
        payload = json.loads(out)
        assert payload["sample"]["health"] == "Overheat"
        assert [w["kind"] for w in payload["warnings"]] == ["UnhealthyBattery"]

    def test_temperature_past_float_range_warns(self, capsys, tmp_path):
        source = write_source_dir(tmp_path / "bat", temp="4" * 400)
        code, out, err = run_cli(capsys, "inspect", "--json", "--source-root", str(source))
        assert (code, err) == (2, "")
        assert [w["kind"] for w in json.loads(out)["warnings"]] == ["Overheat"]
        code, out, err = run_cli(capsys, "inspect", "--source-root", str(source))
        assert (code, err) == (2, "")
        assert f"temperature: {'4' * 399}.4 °C" in out.splitlines()

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

    @pytest.mark.parametrize(
        "bad_line,message",
        [
            (record_to_json(make_record(MIN, 99, apps=("ab",))).encode().replace(b"ab", b"a\xffb"), "invalid UTF-8"),
            (b"[1,2]", "record must be a JSON object"),
            (
                record_to_json(make_record(MIN, 99, apps=("ab",))).encode().replace(b"ab", b"\\ud800"),
                "app names must be valid UTF-8 text",
            ),
        ],
        ids=["utf8-in-apps", "array", "lone-surrogate-in-apps"],
    )
    def test_unreadable_line_exits_one(self, capsys, tmp_path, bad_line, message):
        path = tmp_path / "log.jsonl"
        path.write_bytes(record_to_json(make_record(0, 100)).encode() + b"\n" + bad_line + b"\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out, err) == (1, "", f"error: log line 2: {message}\n")

    @pytest.mark.parametrize("mode", ["auto", "on"])
    def test_counter_past_float_range_names_the_sample_and_the_way_round(self, capsys, tmp_path, mode):
        # the full charge inferred from a 400-digit counter is no float;
        # the sample it comes from is the one at the highest level
        path = tmp_path / "log.jsonl"
        records = [make_record((i + 1) * MIN, 90 - i, charge_uah=10**400 - i, apps=("a",) * (i % 2)) for i in range(6)]
        write_log(path, records)
        code, out, err = run_cli(capsys, "analyze", str(path), "--use-charge-counter", mode)
        want = (
            f"error: charge_uah of the sample at ts_ms {MIN} is too large for a float;"
            " analyze with --use-charge-counter off to use levels alone\n"
        )
        assert (code, out, err) == (1, "", want)
        code, out, err = run_cli(capsys, "analyze", str(path), "--use-charge-counter", "off")
        assert (code, err) == (0, "")

    def test_table_names_unobserved_apps(self, capsys, tmp_path):
        # "fleeting" runs in one discharging sample, the last before a
        # charge, so it starts no usable interval; apps seen only while
        # charging are outside the universe and not listed.
        path = tmp_path / "log.jsonl"
        charging = BatteryStatus.CHARGING
        write_log(path, [
            make_record(0, 100, apps=("A",)),
            make_record(MIN, 99, apps=("A",)),
            make_record(2 * MIN, 99, apps=("A", "fleeting"), status=charging),
            make_record(3 * MIN, 99, apps=("A", "fleeting")),
            make_record(4 * MIN, 99, apps=("A", "plugged"), status=charging),
            make_record(5 * MIN, 99, apps=("A",)),
            make_record(6 * MIN, 98, apps=("A",)),
        ])
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert out.splitlines()[-3:] == [
            "baseline: 60.0000 pct/h",
            "residual rms: 0.000000 pct/h",
            "unobserved: fleeting",
        ]

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

    @pytest.mark.parametrize(
        "fmt",
        [("--format", "table"), ("--format", "csv"), ("--format", "json"), ("--json",)],
        ids=["table", "csv", "json", "json-flag"],
    )
    def test_power_overflow_fails_before_any_output(self, capsys, sample_log, fmt):
        constants = ("--capacity-mah", "1e308", "--voltage-mv", "1e308")
        code, out, err = run_cli(capsys, "analyze", str(sample_log), *fmt, *constants)
        assert (code, out) == (1, "")
        assert err.startswith("error: power_mw is not finite: ")

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


@pytest.fixture(scope="module")
def table1_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("table1") / "log.jsonl"
    write_log(path, simulate(table1_scenario()))
    return path


WITH_POWER = ("--capacity-mah", "1500", "--voltage-mv", "3700")

# Both formats print fixed decimals, so these bytes hold on any BLAS build.
TABLE1_OUTPUT = {
    ("table", ()): """\
rank  group            rate_pct_per_h  flags
   1  file download           18.0180
   2  video streaming         13.5135
   3  play games               9.3694
   4  web browsing             5.9459
   5  text message             3.2433
baseline: 2.5225 pct/h
residual rms: 0.000069 pct/h
""",
    ("table", WITH_POWER): """\
rank  group            rate_pct_per_h    power_mw  flags
   1  file download           18.0180      1000.0
   2  video streaming         13.5135       750.0
   3  play games               9.3694       520.0
   4  web browsing             5.9459       330.0
   5  text message             3.2433       180.0
baseline: 2.5225 pct/h (140.0 mW)
residual rms: 0.000069 pct/h
""",
    ("csv", ()): (
        "group,rate_pct_per_h,power_mw,flags\r\n"
        "file download,18.017967,,\r\n"
        "video streaming,13.513491,,\r\n"
        "play games,9.369406,,\r\n"
        "web browsing,5.945897,,\r\n"
        "text message,3.243278,,\r\n"
    ),
    ("csv", WITH_POWER): (
        "group,rate_pct_per_h,power_mw,flags\r\n"
        "file download,18.017967,999.997,\r\n"
        "video streaming,13.513491,749.999,\r\n"
        "play games,9.369406,520.002,\r\n"
        "web browsing,5.945897,329.997,\r\n"
        "text message,3.243278,180.002,\r\n"
    ),
}


class TestAnalyzeTable1:
    """`semo analyze` on the log of table1_scenario(), in every format."""

    @pytest.mark.parametrize("fmt, constants", list(TABLE1_OUTPUT), ids=["table", "table-mw", "csv", "csv-mw"])
    def test_output_bytes_pinned(self, capsys, table1_log, fmt, constants):
        code, out, err = run_cli(capsys, "analyze", str(table1_log), "--format", fmt, *constants)
        assert (code, err) == (0, "")
        assert out == TABLE1_OUTPUT[fmt, constants]

    @pytest.mark.parametrize("constants", [(), WITH_POWER], ids=["plain", "mw"])
    def test_json_keys_in_order(self, capsys, table1_log, constants):
        code, out, _ = run_cli(capsys, "analyze", str(table1_log), "--json", *constants)
        assert code == 0
        payload = json.loads(out)
        power = ["power_mw"] if constants else []
        keys = ["baseline_pct_per_h", "groups", "unobserved", "residual_rms", "ranking"]
        assert list(payload) == keys + (["baseline_power_mw"] if constants else [])
        for entry in payload["groups"] + payload["ranking"]:
            assert list(entry) == ["apps", "rate_pct_per_h", "flags"] + power
        assert [entry["apps"] for entry in payload["ranking"]] == [[name] for name in TABLE1_APPS]

    def test_power_overflow_fails_alike_in_every_format(self, capsys, table1_log):
        constants = ("--capacity-mah", "1e308", "--voltage-mv", "1e308")
        results = {
            fmt: run_cli(capsys, "analyze", str(table1_log), *fmt, *constants)
            for fmt in [("--format", "table"), ("--format", "csv"), ("--format", "json"), ("--json",)]
        }
        assert {(code, out) for code, out, _ in results.values()} == {(1, "")}
        assert len({err for _, _, err in results.values()}) == 1


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

    def test_every_field_written_as_pinned(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        write_log(log, [
            make_record(0, 100, apps=()),
            make_record(MIN, 99, apps=('say "hi", all',), charge_uah=3_000_000),
            make_record(2 * MIN, 99, apps=("a", "b"), charge_uah=3_010_000, status=BatteryStatus.CHARGING),
            make_record(10**29, 98, apps=("b",), charge_uah=2_990_000, voltage_mv=3850, temp_dc=-5),
        ])
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "export", str(log), "--csv", str(out_csv))
        assert (code, out) == (0, "")
        assert out_csv.read_bytes() == (
            b"ts_ms,level_pct,voltage_mv,temp_dc,charge_uah,status,apps\r\n"
            b"0,100,3900,310,,Discharging,\r\n"
            b'60000,99,3900,310,3000000,Discharging,"say ""hi"", all"\r\n'
            b"120000,99,3900,310,3010000,Charging,a;b\r\n"
            b"100000000000000000000000000000,98,3850,-5,2990000,Discharging,b\r\n"
        )


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

    def test_non_object_scenario_exits_one(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text("[1]")
        code, out, err = run_cli(capsys, "simulate", str(scenario_path), "--out", str(tmp_path / "x"))
        assert (code, out) == (1, "")
        assert "scenario must be a JSON object" in err

    def test_nested_too_deep_is_one_error_line(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "simulate", str(scenario_path), "--out", str(tmp_path / "x"))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: scenario file is not valid JSON: ")

    def test_lone_surrogate_app_is_refused_before_the_log_opens(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(), scenario_path)
        payload = json.loads(scenario_path.read_text())
        payload["apps"]["\ud800"] = 10.0  # json.dumps writes it as the escape \ud800
        scenario_path.write_text(json.dumps(payload))
        log_path = tmp_path / "sim.jsonl"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path), "--out", str(log_path))
        assert (code, out, err) == (1, "", "error: app names must be valid UTF-8 text\n")
        assert not log_path.exists()

    def test_run_over_the_sample_cap_is_refused_before_the_log_opens(self, capsys, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(), scenario_path)
        payload = json.loads(scenario_path.read_text())
        payload["duration_s"] = 10**100  # a 101-digit integer
        scenario_path.write_text(json.dumps(payload))
        log_path = tmp_path / "sim.jsonl"
        code, out, err = run_cli(capsys, "simulate", str(scenario_path), "--out", str(log_path))
        assert (code, out) == (1, "")
        assert err == f"error: the run would hold {10**100 // 60 + 1} samples, more than the cap of {MAX_SAMPLES}\n"
        assert not log_path.exists()

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

    def test_interval_past_the_longest_wait_is_clean_diagnostic(self, capsys, tmp_path, healthy_source):
        # Event.wait cannot wait longer than threading.TIMEOUT_MAX: refused before any record
        out_path = tmp_path / "x.jsonl"
        code, out, err = run_cli(
            capsys, "record", "--out", str(out_path),
            "--interval", "100000000000000000000", "--source-root", str(healthy_source),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: interval_s must be in [1, ") and err.count("\n") == 1
        assert not out_path.exists()

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


class TestRecordSignalHandlers:
    """`semo record` stops on SIGINT and SIGTERM only while it records, and
    leaves the handlers it found in place when it returns."""

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def record(self, capsys, tmp_path, monkeypatch, loop):
        monkeypatch.setattr("semo.cli.run_loop", loop)
        source = write_source_dir(tmp_path / "bat")
        return run_cli(capsys, "record", "--out", str(tmp_path / "rec.jsonl"), "--source-root", str(source), "--json")

    @pytest.mark.parametrize("sig", SIGNALS, ids=["SIGINT", "SIGTERM"])
    def test_a_signal_while_recording_stops_the_loop(self, capsys, tmp_path, monkeypatch, sig):
        before = {s: signal.getsignal(s) for s in self.SIGNALS}
        stopped = []

        def loop(config, source, stop):
            assert all(signal.getsignal(s) is not before[s] for s in self.SIGNALS)
            os.kill(os.getpid(), sig)
            stopped.append(stop.wait(5))
            return 0

        code, out, _ = self.record(capsys, tmp_path, monkeypatch, loop)
        assert (code, stopped, json.loads(out)["records_written"]) == (0, [True], 0)
        assert {s: signal.getsignal(s) for s in self.SIGNALS} == before

    def test_handlers_restored_when_the_loop_fails(self, capsys, tmp_path, monkeypatch):
        def own(signum, frame):
            pass

        def loop(config, source, stop):
            raise OSError(28, "No space left on device")

        before = {s: signal.signal(s, own) for s in self.SIGNALS}
        try:
            code, out, err = self.record(capsys, tmp_path, monkeypatch, loop)
            assert all(signal.getsignal(s) is own for s in self.SIGNALS)
        finally:
            for s, handler in before.items():
                signal.signal(s, handler)
        assert (code, out) == (1, "") and "No space left on device" in err


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")], ids=["unset", "user-set"])
def test_import_pins_blas_threads_unless_set(given, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = "import os, semo, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")
