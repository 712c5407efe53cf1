"""Tests of the benchmark itself: its checks pass on right outputs and fail on wrong ones.

Run from the root of the repository with `python3 -m pytest bench`.
The churn workload and the record-level checks run at a small size.
The phone workload's rate check runs at its benchmark size, because its
tolerance shrinks with the square root of the logged minutes and only
reaches below 1 % of every rate at that size.
"""

import json
import math
from dataclasses import replace

import pytest

from semo import LogRecord, load_log, simulate, write_log

import harness
from checks import analysis_error, curve_error, resume_error, ticks_bad
from harness import CURVE_TAIL, Tally, Tracer, run_end_to_end, run_traced, semo, set_up
from hostspeed import REFERENCE_S, Scaler
from workloads import WORKLOADS, churn, phone

BENCHMARK_JSON = harness.OUT_DIR.parent.parent / "BENCHMARK.json"
SMALL = {"phone": lambda seed: phone(10_000, seed), "churn": lambda seed: churn(2_000, seed)}


def analyze_payload(workload, log):
    _, error, stdout = semo("analyze", log, "--format", "json")
    assert error is None
    return json.loads(stdout)


def away_from_truth(workload, name, rate):
    """The rate moved by 1 % of itself, in the direction of its error."""
    return rate + math.copysign(0.01 * rate, rate - workload.truth[name])


def perturbed(payload, name, rate):
    payload = json.loads(json.dumps(payload))
    if name == "baseline":
        payload["baseline_pct_per_h"] = rate
    for group in payload["groups"] + payload["ranking"]:
        if group["apps"] == [name]:
            group["rate_pct_per_h"] = rate
    return payload


@pytest.fixture(scope="module")
def churn_log(tmp_path_factory):
    workload = SMALL["churn"](3)
    path = tmp_path_factory.mktemp("churn") / "log.jsonl"
    records = simulate(workload.scenario)
    write_log(path, records)
    return workload, records, path


@pytest.fixture(scope="module")
def phone_full(tmp_path_factory):
    workload = WORKLOADS["phone-100k"](3)
    path = tmp_path_factory.mktemp("phone") / "log.jsonl"
    write_log(path, simulate(workload.scenario))
    return workload, analyze_payload(workload, path)


def test_churn_rates_exact_and_every_rate_perturbed_by_1pct_fails(churn_log):
    workload, _, path = churn_log
    payload = analyze_payload(workload, path)
    assert analysis_error(workload, payload) is None
    estimates = {"baseline": payload["baseline_pct_per_h"]}
    estimates.update({g["apps"][0]: g["rate_pct_per_h"] for g in payload["groups"]})
    for name, rate in estimates.items():
        assert analysis_error(workload, perturbed(payload, name, away_from_truth(workload, name, rate))) is not None


def test_churn_analysis_with_a_dropped_record_fails(churn_log, tmp_path):
    workload, records, _ = churn_log
    path = tmp_path / "dropped.jsonl"
    # an app toggles at every even minute: without sample 1002 the pair
    # (1001, 1003) charges minute 1002's drop to the apps of minute 1001
    write_log(path, records[:1002] + records[1003:])
    assert analysis_error(workload, analyze_payload(workload, path)) is not None


def test_churn_ranking_swap_fails(churn_log):
    workload, _, path = churn_log
    payload = analyze_payload(workload, path)
    payload["ranking"][0], payload["ranking"][1] = payload["ranking"][1], payload["ranking"][0]
    assert analysis_error(workload, payload) is not None


def test_phone_tolerance_below_1pct_of_every_rate_at_benchmark_size():
    for seed in range(5):
        workload = WORKLOADS["phone-100k"](seed)
        assert all(workload.tolerance[name] < 0.01 * rate for name, rate in workload.truth.items())


def test_phone_rates_within_tolerance_and_every_rate_perturbed_by_1pct_fails(phone_full):
    workload, payload = phone_full
    assert analysis_error(workload, payload) is None
    estimates = {"baseline": payload["baseline_pct_per_h"]}
    estimates.update({g["apps"][0]: g["rate_pct_per_h"] for g in payload["groups"]})
    assert estimates.keys() == workload.truth.keys()
    for name, rate in estimates.items():
        assert analysis_error(workload, perturbed(payload, name, away_from_truth(workload, name, rate))) is not None


def test_curve_with_a_dropped_record_fails(churn_log, tmp_path):
    workload, records, _ = churn_log
    path = tmp_path / "dropped.jsonl"
    write_log(path, records[:-10] + records[-9:])
    _, error, stdout = semo("curve", path, "--tail", CURVE_TAIL)
    assert error is None
    assert curve_error(records[-CURVE_TAIL:], CURVE_TAIL, stdout) is not None


def test_resume_with_a_dropped_record_fails(churn_log):
    workload, records, _ = churn_log
    assert resume_error(workload, records[-1].sample.ts_ms) is None
    assert resume_error(workload, records[-2].sample.ts_ms) is not None


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_workload_runs_clean_end_to_end_and_a_dropped_tick_fails(kind, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TICKS", 20)
    scaler = Scaler()
    setup = set_up(SMALL[kind](5), tmp_path, scaler)
    tally = Tally()
    metrics = run_end_to_end(setup, scaler, 0.0, tally)
    assert (tally.correct, tally.failed) == (True, 0)
    assert tally.attempted == 1 + 3 + 20  # peak pass, then one round
    assert all(value > 0 for value, _ in metrics.values())

    before = load_log(setup.log)
    start = setup.last.sample.ts_ms + setup.interval_ms
    ticks = [
        LogRecord(sample=replace(setup.last.sample, ts_ms=start + i * setup.interval_ms), apps=setup.last.apps)
        for i in range(3)
    ]
    assert ticks_bad(before + ticks, len(before), setup.last, start, setup.interval_ms, 3) == 0
    assert ticks_bad(before + ticks[:2], len(before), setup.last, start, setup.interval_ms, 3) == 3
    assert ticks_bad(before + ticks[1:] + ticks[:1], len(before), setup.last, start, setup.interval_ms, 3) == 3


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_run_reports_every_per_layer_metric_with_repeatable_counts(kind, tmp_path):
    per_layer = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    runs = []
    for _ in range(2):
        tracer = Tracer()
        setup = set_up(SMALL[kind](7), tmp_path, Scaler(), tracer)
        tally = Tally()
        runs.append(run_traced(setup, tracer, 0.0, tally))
        assert (tally.correct, tally.failed) == (True, 0)
    assert {name: unit for name, (_, unit) in runs[0].items()} == per_layer
    counts = [{n: v for n, (v, unit) in run.items() if unit == "count"} for run in runs]
    assert counts[0] == counts[1]


def test_end_to_end_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TICKS", 5)
    end_to_end = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    scaler = Scaler()
    metrics = run_end_to_end(set_up(SMALL["churn"](1), tmp_path, scaler), scaler, 0.0, Tally())
    assert {name: unit for name, (_, unit) in metrics.items()} == end_to_end


def test_scaler_scales_each_batch_by_the_probes_around_it(monkeypatch):
    probes = iter([0.01, 0.03, 0.01])
    monkeypatch.setattr("hostspeed.probe", lambda: next(probes))
    scaler = Scaler()
    scaler.add("x_s", [1.0, 2.0])  # probes 0.01 before, 0.03 after: mean 0.02
    scaler.add("x_s", [4.0])  # probes 0.03 before, 0.01 after: mean 0.02
    assert scaler.raw["x_s"] == [1.0, 2.0, 4.0]
    assert scaler.adjusted["x_s"] == pytest.approx([s * REFERENCE_S / 0.02 for s in (1.0, 2.0, 4.0)])
    assert scaler.median("x_s") == pytest.approx(2.0 * REFERENCE_S / 0.02)
