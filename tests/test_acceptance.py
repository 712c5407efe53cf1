"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import gc
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from semo import (
    EventKind,
    LogRecord,
    NoiseModel,
    RecorderConfig,
    Scenario,
    ScheduleEvent,
    SimulatedClock,
    WarningKind,
    attribute,
    evaluate,
    load_log,
    run_loop,
    simulate,
    solve_nnls,
    table1_scenario,
    write_log,
)
from semo.recorder import record_to_json
from semo.simulator import TABLE1_APPS
from semo.sources import BatteryStatus, make_app_set

from _helpers import (
    ReplaySource,
    make_record,
    make_sample,
    nnls_oracle,
    random_exact_scenario,
    segments_to_schedule,
    weighted_sse,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance criterion {number} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_table1_ranking():
    scenario = table1_scenario()
    truth_order = sorted(scenario.apps, key=lambda a: (-scenario.apps[a], a))

    start = time.perf_counter()
    records = simulate(scenario)
    result = attribute(records)
    elapsed = time.perf_counter() - start

    ranking = [group.apps[0] for group in result.ranking]
    ok = (
        ranking[0] == "file download"
        and ranking == truth_order == list(TABLE1_APPS)
        and elapsed < 1.0
    )
    report(1, "table-1 ranking", ok, f"order={ranking}, {elapsed:.3f}s")


def test_criterion_2_exact_recovery():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    failures = 0
    for _ in range(100):
        scenario, truth = random_exact_scenario(rng)
        result = attribute(simulate(scenario), use_charge_counter="on")
        errs = [abs(result.baseline_pct_per_h - truth["baseline"])]
        for group in result.groups:
            assert len(group.apps) == 1
            errs.append(abs(group.rate_pct_per_h - truth[group.apps[0]]))
        worst = max(worst, max(errs))
        if max(errs) > 1e-6:
            failures += 1
    report(2, "exact recovery", failures == 0, f"100 scenarios, worst |err|={worst:.2e}")


def test_criterion_3_noisy_recovery():
    segments = [
        (3600, ()),
        (7200, ("alpha",)),
        (7200, ("beta",)),
        (7200, ("gamma",)),
        (3600, ("alpha", "gamma")),
    ]
    schedule, duration = segments_to_schedule(segments)
    assert duration == 8 * 3600
    powers = {"alpha": 1000.0, "beta": 700.0, "gamma": 480.0}
    baseline_mw = 150.0
    capacity_mah, voltage_mv = 2200.0, 3700
    e_full = capacity_mah * voltage_mv / 1000.0

    on_s = {a: sum(d for d, apps in segments if a in apps) for a in powers}
    mean_power = (baseline_mw * duration + sum(powers[a] * on_s[a] for a in powers)) / duration
    sigma_mw = 0.05 * mean_power

    truth = {a: powers[a] / e_full * 100.0 for a in powers}
    truth_order = sorted(powers, key=lambda a: (-powers[a], a))

    successes = 0
    for seed in range(100):
        scenario = Scenario(
            capacity_mah=capacity_mah,
            nominal_voltage_mv=voltage_mv,
            baseline_mw=baseline_mw,
            apps=powers,
            schedule=schedule,
            duration_s=duration,
            sample_interval_s=60,
            noise=NoiseModel(sigma_mw=sigma_mw, seed=seed),
            initial_level_pct=100.0,
        )
        # level quantization only: the 1% counter is the point of this criterion
        result = attribute(simulate(scenario), use_charge_counter="off")
        rates = {g.apps[0]: g.rate_pct_per_h for g in result.groups}
        rel_ok = all(abs(rates[a] - truth[a]) / truth[a] <= 0.15 for a in powers)
        rank_ok = [g.apps[0] for g in result.ranking] == truth_order
        if rel_ok and rank_ok:
            successes += 1
    report(3, "noisy recovery", successes >= 95, f"{successes}/100 seeded trials ok")


def test_criterion_4_nnls_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            X = rng.normal(size=(m, n))
        else:
            X = np.column_stack(
                [np.ones(m)] + [rng.integers(0, 2, size=m).astype(float) for _ in range(n - 1)]
            )
        if np.any(np.linalg.norm(X, axis=0) == 0):
            X[0, :] = 1.0
        y = rng.normal(size=m) * 10.0
        w = rng.uniform(0.1, 10.0, size=m)
        beta = solve_nnls(X, y, weights=w)
        objective = weighted_sse(X, y, beta, w)
        oracle_objective, _ = nnls_oracle(X, y, w)
        worst = max(worst, abs(objective - oracle_objective))
    report(4, "nnls oracle equivalence", worst <= 1e-9, f"1000 instances, worst gap {worst:.2e}")


def test_criterion_5_inspector_threshold():
    at_14 = evaluate(make_sample(0, 14))
    at_15 = evaluate(make_sample(0, 15))
    ok = [w.kind for w in at_14] == [WarningKind.LOW_BATTERY] and at_15 == []
    report(5, "inspector threshold", ok, "14% warns, 15% quiet")


def test_criterion_6_recorder_defaults_and_determinism(tmp_path):
    default_ok = RecorderConfig(out_path=tmp_path / "x").interval_s == 60

    def recorded_bytes(run: int) -> bytes:
        clock = SimulatedClock(0)
        stop = threading.Event()
        clock.on_advance = lambda now: stop.set() if now > 300_000 else None
        path = tmp_path / f"run{run}.jsonl"
        source_records = [
            make_record(1 + i * 60_000, 100 - i, apps=("app",)) for i in range(10)
        ]
        run_loop(RecorderConfig(out_path=path), ReplaySource(source_records), clock, stop)
        return path.read_bytes()

    first = recorded_bytes(0)
    second = recorded_bytes(1)
    records = load_log(tmp_path / "run0.jsonl")
    fence_post_ok = len(records) == 6
    timestamps_ok = [r.sample.ts_ms for r in records] == [0, 60_000, 120_000, 180_000, 240_000, 300_000]
    reserialized = "".join(record_to_json(r) + "\n" for r in records).encode()
    round_trip_ok = reserialized == first and first == second

    ok = default_ok and fence_post_ok and timestamps_ok and round_trip_ok
    report(6, "recorder defaults and determinism", ok, f"{len(records)} records, byte-stable")


def test_criterion_7_charging_exclusion_equivalence():
    schedule = (
        ScheduleEvent(0, EventKind.START, "worker"),
        ScheduleEvent(3600, EventKind.PLUG_IN),
        ScheduleEvent(3660, EventKind.START, "plugger"),
        ScheduleEvent(5340, EventKind.STOP, "plugger"),
        ScheduleEvent(5400, EventKind.PLUG_OUT),
        ScheduleEvent(9000, EventKind.STOP, "worker"),
    )
    scenario = Scenario(
        capacity_mah=2000.0,
        nominal_voltage_mv=3700,
        baseline_mw=150.0,
        apps={"worker": 600.0, "plugger": 300.0},
        schedule=schedule,
        duration_s=10_800,
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=20.0, seed=4),
        initial_level_pct=80.0,
    )
    records = simulate(scenario)
    statuses = {r.sample.status for r in records}
    assert BatteryStatus.CHARGING in statuses  # the span really is there
    pruned = [r for r in records if r.sample.status is not BatteryStatus.CHARGING]

    ok = True
    for mode in ("auto", "off"):
        ok = ok and attribute(records, mode) == attribute(pruned, mode)
    report(7, "charging-exclusion equivalence", ok, "auto and off modes, field for field")


def _busy_log(n_records: int, n_apps: int) -> list[LogRecord]:
    rng = np.random.default_rng(88)
    pool = [f"app{i:02d}" for i in range(n_apps)]
    active = set(rng.choice(n_apps, size=5, replace=False).tolist())
    records = []
    energy_pct = 100.0
    for i in range(n_records):
        if i % 5 == 0:
            j = int(rng.integers(n_apps))
            active.symmetric_difference_update({j})
        energy_pct = max(0.0, energy_pct - (0.004 + 0.0005 * len(active)))
        sample = make_sample(
            ts_ms=i * 60_000 + 1,
            level=math.floor(energy_pct),
            charge_uah=round(energy_pct * 20_000),
        )
        records.append(LogRecord(sample=sample, apps=make_app_set(pool[k] for k in active)))
    return records


def test_criterion_8_performance(tmp_path):
    # analyze 10k records / 50 apps in under a second
    path = tmp_path / "big.jsonl"
    write_log(path, _busy_log(10_000, 50))
    start = time.perf_counter()
    result = attribute(load_log(path))
    elapsed = time.perf_counter() - start
    analyze_ok = elapsed < 1.0 and result.groups

    # recorder steady state holds no per-tick history
    class SyntheticSource:
        def read_battery_sample(self, clock=None):
            return make_sample(clock.now_ms(), 50)

        def read_running_apps(self):
            return ("app",)

    def run_ticks(n: int, out_path) -> int:
        clock = SimulatedClock(1)
        stop = threading.Event()
        end = n * 60_000
        clock.on_advance = lambda now: stop.set() if now > end else None
        run_loop(RecorderConfig(out_path=out_path), SyntheticSource(), clock, stop)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        baseline_mem = run_ticks(500, tmp_path / "warm.jsonl")
        grown_mem = run_ticks(5000, tmp_path / "long.jsonl")
    finally:
        tracemalloc.stop()
    growth = grown_mem - baseline_mem
    memory_ok = growth < 64 * 1024

    ok = bool(analyze_ok and memory_ok)
    report(8, "performance", ok, f"analyze {elapsed:.3f}s, loop growth {growth} B over 10x ticks")
