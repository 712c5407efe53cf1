"""Seeded benchmark scenarios and their ground truth.

Each workload is a `semo.Scenario` built from the seed alone, plus what
the checks need to judge the program's output without consulting the
analyzer: the true rate of every app (power / E_full x 100, in pct/h),
the true ranking, and, for the noisy workload, a per-rate tolerance
derived from the scenario's own design (see README.md, "Tolerance").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semo import EventKind, NoiseModel, Scenario, ScheduleEvent

MINUTE_S = 60

PHONE_APPS = (
    "browser", "camera", "chat", "email", "game", "maps",
    "music", "navigation", "photos", "social", "video", "weather",
)
PHONE_CAPACITY_MAH = 4000.0
PHONE_VOLTAGE_MV = 3850
PHONE_BASELINE_MW = 150.0
PHONE_SIGMA_MW = 25.0
PHONE_DAY_MIN = 16 * 60  # unplugged from 07:00 to 23:00, then charging overnight
PHONE_SESSIONS_END_MIN = 15 * 60  # the last session ends by 22:00
PHONE_DAY_BUDGET = 0.7  # share of E_full that one day's schedule may use
SIGMAS = 5.0  # tolerance width in standard errors of the WLS estimate

CHURN_APPS = 100
CHURN_TOGGLE_MIN = 2
CHURN_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    scenario: Scenario
    truth: dict[str, float]  # "baseline" and each app -> true rate, pct/h
    tolerance: dict[str, float]  # "baseline" and each app -> largest allowed |error|, pct/h
    observed: frozenset[str]  # apps running in at least one usable discharge interval

    def true_order(self) -> list[str]:
        apps = sorted(self.observed)
        return sorted(apps, key=lambda a: (-self.truth[a], a))


def _truth(scenario: Scenario) -> dict[str, float]:
    e_full = scenario.full_energy_mwh
    truth = {name: power / e_full * 100.0 for name, power in scenario.apps.items()}
    truth["baseline"] = scenario.baseline_mw / e_full * 100.0
    return truth


def _minute_design(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-minute app incidence and usable-minute mask, from the schedule alone.

    Row k describes the minute [k, k+1): which apps run in it, and
    whether the samples at both of its ends are discharging (the only
    minutes the analyzer can use).  Events fall on minute boundaries, so
    the state is constant inside each minute.
    """
    n_min = scenario.duration_s // MINUTE_S
    names = sorted(scenario.apps)
    col = {name: j for j, name in enumerate(names)}
    running = np.zeros((n_min + 1, len(names)), dtype=bool)
    plugged = np.zeros(n_min + 1, dtype=bool)
    on_since: dict[str, int] = {}
    plug_since = None
    for event in scenario.schedule:
        k = event.t_s // MINUTE_S
        if event.kind is EventKind.START:
            on_since[event.app] = k
        elif event.kind is EventKind.STOP:
            running[on_since.pop(event.app):k, col[event.app]] = True
        elif event.kind is EventKind.PLUG_IN:
            plug_since = k
        else:
            plugged[plug_since:k] = True
            plug_since = None
    for app, k in on_since.items():
        running[k:, col[app]] = True
    if plug_since is not None:
        plugged[plug_since:] = True
    usable = ~plugged[:-1] & ~plugged[1:]
    return running[:-1], usable


def _observed(scenario: Scenario) -> frozenset[str]:
    running, usable = _minute_design(scenario)
    names = sorted(scenario.apps)
    return frozenset(names[j] for j in np.flatnonzero(running[usable].any(axis=0)))


def phone(n_records: int, seed: int) -> Workload:
    """A phone with a charge counter: daytime app sessions, charging overnight."""
    rng = np.random.default_rng([seed, 1])
    powers = rng.choice(np.arange(6, 25) * 50.0, size=len(PHONE_APPS), replace=False)
    apps = dict(zip(PHONE_APPS, map(float, powers)))
    e_full = PHONE_CAPACITY_MAH * PHONE_VOLTAGE_MV / 1000.0
    duration_s = (n_records - 1) * MINUTE_S
    events: list[ScheduleEvent] = []
    day = 0
    while day * 1440 * MINUTE_S < duration_s:
        t0 = day * 1440
        spent_mwh = PHONE_BASELINE_MW * PHONE_DAY_MIN / 60.0
        t = t0 + int(rng.integers(5, 61))
        while True:
            length = int(rng.integers(10, 61))
            members = sorted(map(str, rng.choice(PHONE_APPS, size=1 + int(rng.random() < 0.4), replace=False)))
            cost = sum(apps[a] for a in members) * length / 60.0
            if t + length > t0 + PHONE_SESSIONS_END_MIN or spent_mwh + cost > PHONE_DAY_BUDGET * e_full:
                break
            events += [ScheduleEvent(t * MINUTE_S, EventKind.START, a) for a in members]
            events += [ScheduleEvent((t + length) * MINUTE_S, EventKind.STOP, a) for a in members]
            spent_mwh += cost
            t += length + int(rng.integers(5, 61))
        events.append(ScheduleEvent((t0 + PHONE_DAY_MIN) * MINUTE_S, EventKind.PLUG_IN))
        events.append(ScheduleEvent((t0 + 1440) * MINUTE_S, EventKind.PLUG_OUT))
        day += 1
    events.sort(key=lambda e: (e.t_s, e.kind is EventKind.START))
    scenario = Scenario(
        capacity_mah=PHONE_CAPACITY_MAH,
        nominal_voltage_mv=PHONE_VOLTAGE_MV,
        baseline_mw=PHONE_BASELINE_MW,
        apps=apps,
        schedule=tuple(events),
        duration_s=duration_s,
        sample_interval_s=MINUTE_S,
        noise=NoiseModel(sigma_mw=PHONE_SIGMA_MW, seed=seed),
        initial_level_pct=100.0,
    )
    return Workload(scenario, _truth(scenario), phone_tolerance(scenario), _observed(scenario))


def phone_tolerance(scenario: Scenario) -> dict[str, float]:
    """Absolute tolerance per rate: SIGMAS standard errors plus rounding.

    The analyzer's fit is duration-weighted least squares over one-minute
    rows whose drops carry independent N(0, sigma) power noise, so the
    estimate's covariance is (100 sigma / E_full)^2 (X'X)^-1 with X the
    per-minute incidence of baseline and apps.  The µAh counter's
    rounding (+-0.5 µAh per sample) adds a variance of 1/6 µAh^2 per
    minute's drop, and the full-scale estimate, taken at a sample at
    exactly full charge, is off by at most 0.5 µAh relative to the full
    counter.
    """
    running, usable = _minute_design(scenario)
    X = np.column_stack([np.ones(int(usable.sum())), running[usable]]).astype(float)
    cov = np.linalg.inv(X.T @ X)
    e_full = scenario.full_energy_mwh
    full_uah = e_full * 1e6 / scenario.nominal_voltage_mv
    round_mw = math.sqrt(1.0 / 6.0) * scenario.nominal_voltage_mv / 1e6 * 60.0
    sigma_rate = 100.0 * math.hypot(scenario.noise.sigma_mw, round_mw) / e_full
    truth = _truth(scenario)
    names = ["baseline", *sorted(scenario.apps)]
    return {
        name: SIGMAS * sigma_rate * math.sqrt(cov[j, j]) + truth[name] * 0.5 / full_uah
        for j, name in enumerate(names)
    }


def churn(n_records: int, seed: int) -> Workload:
    """100 apps, one toggling every 2 minutes; noise-free with an exact counter.

    The recipe of the exact-recovery acceptance tests: 1000 mV nominal
    voltage and powers in multiples of 60 mW make each one-minute step
    consume a whole number of mWh, so the µAh counter is exact, and the
    start at 100 % pins the full-scale inference.  Capacity covers the
    schedule's energy with 15 % to spare, so the battery never empties.
    """
    rng = np.random.default_rng([seed, 2])
    names = [f"app{i:03d}" for i in range(CHURN_APPS)]
    powers = 60.0 * (rng.choice(400, size=CHURN_APPS, replace=False) + 1)
    apps = dict(zip(names, map(float, powers)))
    baseline = 60.0 * int(rng.integers(1, 11))
    duration_s = (n_records - 1) * MINUTE_S
    events = []
    running: set[str] = set()
    total_mwh = 0.0
    for k in range(0, duration_s // MINUTE_S, CHURN_TOGGLE_MIN):
        app = names[int(rng.integers(CHURN_APPS))]
        kind = EventKind.STOP if app in running else EventKind.START
        running ^= {app}
        events.append(ScheduleEvent(k * MINUTE_S, kind, app))
        span = min(CHURN_TOGGLE_MIN, duration_s // MINUTE_S - k)
        total_mwh += (baseline + sum(apps[a] for a in running)) * span / 60.0
    scenario = Scenario(
        capacity_mah=float(math.ceil(total_mwh / 0.85)),
        nominal_voltage_mv=1000,
        baseline_mw=baseline,
        apps=apps,
        schedule=tuple(events),
        duration_s=duration_s,
        sample_interval_s=MINUTE_S,
        noise=NoiseModel(sigma_mw=0.0, seed=seed),
        initial_level_pct=100.0,
    )
    truth = _truth(scenario)
    tolerance = {name: CHURN_REL_TOL * rate for name, rate in truth.items()}
    return Workload(scenario, truth, tolerance, _observed(scenario))


WORKLOADS = {
    "phone-100k": lambda seed: phone(100_000, seed),
    "churn-100app": lambda seed: churn(10_000, seed),
}
