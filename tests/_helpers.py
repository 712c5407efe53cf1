"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from semo import (
    AppSet,
    BatteryHealth,
    BatterySample,
    BatteryStatus,
    EventKind,
    LogRecord,
    NoiseModel,
    Scenario,
    ScheduleEvent,
    make_app_set,
)
from semo.simulator import CHARGE_RATE_MW, SIM_TEMP_DC


def make_sample(
    ts_ms: int,
    level: int,
    status: BatteryStatus = BatteryStatus.DISCHARGING,
    charge_uah: int | None = None,
    voltage_mv: int = 3900,
    temp_dc: int = 310,
    health: BatteryHealth = BatteryHealth.GOOD,
) -> BatterySample:
    return BatterySample(
        ts_ms=ts_ms,
        level_pct=level,
        voltage_mv=voltage_mv,
        temp_dc=temp_dc,
        charge_uah=charge_uah,
        status=status,
        health=health,
    )


def make_record(ts_ms: int, level: int, apps=(), **kwargs) -> LogRecord:
    return LogRecord(sample=make_sample(ts_ms, level, **kwargs), apps=make_app_set(apps))


# Linux power-supply health strings beyond Android's BatteryManager values: faults that warn
LINUX_FAULTS = ("Over current", "Watchdog timer expire", "Safety timer expire", "Calibration required", "No battery")


def write_source_dir(
    root: Path,
    capacity="80",
    voltage_now="3900000",
    temp="310",
    status="Discharging",
    health="Good",
    charge_now=None,
    apps=("browser", "game"),
) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    fields = {
        "capacity": capacity,
        "voltage_now": voltage_now,
        "temp": temp,
        "status": status,
        "health": health,
    }
    if charge_now is not None:
        fields["charge_now"] = charge_now
    for name, value in fields.items():
        if value is not None:
            (root / name).write_text(f"{value}\n")
    if apps is not None:
        (root / "running_apps").write_text("".join(f"{a}\n" for a in apps))
    return root


class ReplaySource:
    """A fake source that feeds records back, one per sampling tick.

    read_battery_sample(clock) gives the next record's sample, re-stamped
    from the clock; read_running_apps() gives that record's apps.
    """

    def __init__(self, records):
        self._records = iter(records)
        self._record = None

    def read_battery_sample(self, clock):
        self._record = next(self._records)
        return replace(self._record.sample, ts_ms=clock.now_ms())

    def read_running_apps(self):
        return self._record.apps


def weighted_sse(X, y, beta, weights=None) -> float:
    """Objective value sum_i w_i * (y_i - X_i . beta)^2."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    residual = y - X @ beta
    if weights is None:
        return float(residual @ residual)
    w = np.asarray(weights, dtype=float)
    return float(w @ (residual * residual))


def nnls_oracle(X, y, weights=None):
    """Exhaustive reference for small NNLS problems.

    Tries every support set (columns allowed off their zero bound), keeps
    the feasible unconstrained minimizer with the lowest weighted
    objective.  Exact for any column count, affordable for <= ~10.
    """
    A = np.asarray(X, dtype=float)
    b = np.asarray(y, dtype=float)
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float))
        A = A * sw[:, None]
        b = b * sw
    n = A.shape[1]
    best_obj = float(b @ b)
    best_x = np.zeros(n)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if np.any(sol < -1e-12):
                continue
            x = np.zeros(n)
            x[cols] = np.clip(sol, 0.0, None)
            r = b - A @ x
            obj = float(r @ r)
            if obj < best_obj:
                best_obj = obj
                best_x = x
    return best_obj, best_x


def segments_to_schedule(segments) -> tuple[tuple[ScheduleEvent, ...], int]:
    """Turn [(duration_s, app_set), ...] into start/stop events."""
    events = []
    t = 0
    running: set[str] = set()
    for duration_s, apps in segments:
        target = set(apps)
        for app in sorted(running - target):
            events.append(ScheduleEvent(t, EventKind.STOP, app))
        for app in sorted(target - running):
            events.append(ScheduleEvent(t, EventKind.START, app))
        running = target
        t += duration_s
    return tuple(events), t


def random_exact_scenario(rng: np.random.Generator):
    """Random full-rank, noise-free scenario whose log carries exact drops.

    Exactness recipe: 1000 mV nominal voltage and powers in multiples of
    60 mW make each 60 s integration step consume an integer number of
    mWh, so the emitted µAh counter is exact; starting at level 100 pins
    the full-scale inference.  Ground-truth rates are power / capacity
    in pct/h.  Returns (scenario, truth) with truth mapping 'baseline'
    and each app name to its rate.
    """
    n_apps = int(rng.integers(1, 6))
    names = [f"app{i}" for i in range(n_apps)]
    powers = {name: 60.0 * int(rng.integers(1, 41)) for name in names}
    baseline = 60.0 * int(rng.integers(0, 11))

    segments = [frozenset()]
    segments += [frozenset([name]) for name in names]
    for _ in range(int(rng.integers(0, 4))):
        subset = frozenset(name for name in names if rng.random() < 0.5)
        segments.append(subset)
    order = rng.permutation(len(segments))
    segments = [segments[i] for i in order]

    seg_list = [(int(rng.integers(2, 6)) * 60, apps) for apps in segments]
    schedule, duration_s = segments_to_schedule(seg_list)

    total_mwh = sum(
        (baseline + sum(powers[a] for a in apps)) * dur / 3600.0 for dur, apps in seg_list
    )
    capacity_mah = max(2000, math.ceil(total_mwh / 0.85))

    scenario = Scenario(
        capacity_mah=float(capacity_mah),
        nominal_voltage_mv=1000,
        baseline_mw=baseline,
        apps=powers,
        schedule=schedule,
        duration_s=duration_s,
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=0.0, seed=0),
        initial_level_pct=100.0,
    )
    e_full = scenario.full_energy_mwh
    truth = {name: power / e_full * 100.0 for name, power in powers.items()}
    truth["baseline"] = baseline / e_full * 100.0
    return scenario, truth


def churn_scenario(n_records: int, n_apps: int, seed: int, capacity_share: float) -> tuple[Scenario, dict]:
    """Noise-free churn: one of n_apps toggles every 2 minutes, sampled each minute.

    The exactness recipe of random_exact_scenario (1000 mV, powers in
    multiples of 60 mW, a start at 100 %) with nearly one distinct
    active set per interval.  Capacity is the schedule's energy times
    capacity_share, so a share below 1 empties the battery before the
    log ends.  Returns (scenario, truth) like random_exact_scenario.
    """
    rng = np.random.default_rng([seed, 2])
    names = [f"app{i:03d}" for i in range(n_apps)]
    powers = dict(zip(names, map(float, 60.0 * (rng.choice(400, size=n_apps, replace=False) + 1))))
    baseline = 60.0 * int(rng.integers(1, 11))
    n_min = n_records - 1
    events = []
    running: set[str] = set()
    total_mwh = 0.0
    for k in range(0, n_min, 2):
        app = names[int(rng.integers(n_apps))]
        events.append(ScheduleEvent(k * 60, EventKind.STOP if app in running else EventKind.START, app))
        running ^= {app}
        total_mwh += (baseline + sum(powers[a] for a in running)) * min(2, n_min - k) / 60.0
    scenario = Scenario(
        capacity_mah=float(math.ceil(total_mwh * capacity_share)),
        nominal_voltage_mv=1000,
        baseline_mw=baseline,
        apps=powers,
        schedule=tuple(events),
        duration_s=n_min * 60,
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=0.0, seed=seed),
        initial_level_pct=100.0,
    )
    e_full = scenario.full_energy_mwh
    truth = {name: power / e_full * 100.0 for name, power in powers.items()}
    truth["baseline"] = baseline / e_full * 100.0
    return scenario, truth


def reference_simulate(scenario: Scenario) -> list[LogRecord]:
    """simulate, one step at a time: the scalar loop that simulate's array
    passes must match float for float.

    Each step from one sample to the next is integrated piece by piece,
    applying each event it holds; the app powers are summed in sorted
    order, as simulate sums them.
    """
    e_full = scenario.full_energy_mwh
    energy = e_full * scenario.initial_level_pct / 100.0
    voltage_mv = scenario.nominal_voltage_mv
    interval = scenario.sample_interval_s
    n_steps = scenario.duration_s // interval
    rng = np.random.Generator(np.random.PCG64(scenario.noise.seed))
    # noise[k] jitters the step that ends at sample k; no step ends at t=0
    noise = [0.0, *rng.normal(0.0, abs(scenario.noise.sigma_mw), n_steps).tolist()]
    events = scenario.schedule
    running: set[str] = set()
    plugged = False
    apps = AppSet()
    load_mw = scenario.baseline_mw
    seg_start = idx = 0
    records = []
    for k in range(n_steps + 1):
        t, eps = k * interval, noise[k]
        while True:
            due = idx < len(events) and events[idx].t_s <= t
            seg_end = events[idx].t_s if due else t
            if seg_end > seg_start:
                rate_mw = CHARGE_RATE_MW if plugged else -(load_mw + eps)
                energy = min(e_full, max(0.0, energy + rate_mw * ((seg_end - seg_start) / 3600.0)))
                seg_start = seg_end
            if not due:
                break
            event = events[idx]
            idx += 1
            if event.kind in (EventKind.START, EventKind.STOP):  # a Scenario's schedule is valid
                running ^= {event.app}
                apps = make_app_set(running)
                load_mw = scenario.baseline_mw + sum(scenario.apps[a] for a in apps)
            else:
                plugged = event.kind is EventKind.PLUG_IN
        sample = BatterySample(
            ts_ms=t * 1000,
            level_pct=max(0, min(100, math.floor(energy * 100.0 / e_full))),
            voltage_mv=voltage_mv,
            temp_dc=SIM_TEMP_DC,
            charge_uah=round(energy * 1e6 / voltage_mv),
            status=BatteryStatus.CHARGING if plugged else BatteryStatus.DISCHARGING,
            health=BatteryHealth.GOOD,
        )
        records.append(LogRecord(sample=sample, apps=apps))
        if energy == 0.0:  # the device powers off: no sample and no event after this one
            break
    return records
