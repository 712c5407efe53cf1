"""Synthetic log generation with known ground-truth per-app power draw.

State of charge integrates piecewise between schedule events:

    dE/dt = -(baseline_mw + sum of running app powers + eps)   unplugged
    dE/dt = +5000 mW                                           plugged

The running set, the plug state and the summed app power change only
when an event applies; an event at a sample time applies before that
sample.  eps is one gaussian(0, sigma_mw) value per sampling step, all
drawn by one call at the start of the run (the same stream as one draw
per step), so noise enters as power jitter and zero-noise level series
stay monotone.  Energy is clamped to [0, full] after every piece, plugged
or not.  A device whose energy reads 0 at a sample time powers off: that
sample is the log's last, and later events are not simulated.  Emitted
samples quantize the state exactly like a real device would:
level_pct = floor(100 * E / E_full) and
charge_uah = round(E / (nominal_voltage_mv/1000) * 1000).

Determinism: the gaussian stream is numpy's PCG64 generator seeded from
the scenario, which is stable across platforms, so equal scenarios give
byte-identical logs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ScenarioInvalid
from .recorder import LogRecord, _apps_error
from .sources import BatteryHealth, BatterySample, BatteryStatus, make_app_set

CHARGE_RATE_MW = 5000.0
SIM_TEMP_DC = 250  # emitted temperature: fixed nominal 25.0 °C


class EventKind(Enum):
    START = "start"
    STOP = "stop"
    PLUG_IN = "plug_in"
    PLUG_OUT = "plug_out"


@dataclass(frozen=True)
class ScheduleEvent:
    t_s: int
    kind: EventKind
    app: str | None = None


@dataclass(frozen=True)
class NoiseModel:
    sigma_mw: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    capacity_mah: float
    nominal_voltage_mv: int
    baseline_mw: float
    apps: dict[str, float]
    schedule: tuple[ScheduleEvent, ...]
    duration_s: int
    sample_interval_s: int = 60
    noise: NoiseModel = field(default_factory=NoiseModel)
    initial_level_pct: float = 100.0

    @property
    def full_energy_mwh(self) -> float:
        return self.capacity_mah * self.nominal_voltage_mv / 1000.0


def validate_scenario(scenario: Scenario) -> None:
    """Raise ScenarioInvalid with a reason on the first violated invariant.

    The one check of a scenario, built in Python or loaded from JSON; types
    are checked, never coerced.  Integer fields must be exactly int, as in
    the log: a float, bool or numpy integer there makes records no writer
    accepts.  Other numbers must be a finite int or float, never a bool.
    """

    def bad(reason: str):
        raise ScenarioInvalid(reason)

    if not all(type(name) is str for name in scenario.apps):
        bad(f"app names must be strings: {list(scenario.apps)!r}")
    if (reason := _apps_error(sorted(scenario.apps))) is not None:
        bad(reason)  # the log's own name rule: a name it would rewrite would merge two apps
    integers = (  # (key, value, least value allowed)
        ("nominal_voltage_mv", scenario.nominal_voltage_mv, 1),
        ("duration_s", scenario.duration_s, 1),
        ("sample_interval_s", scenario.sample_interval_s, 1),
        ("noise seed", scenario.noise.seed, 0),
    )
    for key, value, least in integers:
        if type(value) is not int or value < least:
            bad(f"{key} must be an integer >= {least}: {value!r}")
    numbers = {
        "capacity_mah": scenario.capacity_mah,
        "nominal_voltage_mv": scenario.nominal_voltage_mv,
        "baseline_mw": scenario.baseline_mw,
        "noise sigma_mw": scenario.noise.sigma_mw,
        "initial_level_pct": scenario.initial_level_pct,
        **{f"power of app {name!r}": power for name, power in scenario.apps.items()},
    }
    for key, value in numbers.items():
        # the bound refuses nan, inf and an int that no float can hold
        if not (type(value) in (int, float) and 0 <= value <= sys.float_info.max):
            bad(f"{key} must be a non-negative finite number: {value!r}")
    if not 0 < scenario.full_energy_mwh * 1e6 / scenario.nominal_voltage_mv < math.inf:  # the full charge in µAh
        bad(f"full charge must be positive and finite: {scenario.capacity_mah!r} mAh")
    if not 0 < scenario.initial_level_pct <= 100:
        bad(f"initial_level_pct must be in (0, 100]: {scenario.initial_level_pct}")

    running: set[str] = set()
    plugged = False
    last_t = 0
    for event in scenario.schedule:
        if type(event.t_s) is not int or event.t_s < last_t:  # last_t starts at 0
            bad(f"schedule times must be non-negative, non-decreasing integers: {event.t_s!r} after {last_t}")
        if not isinstance(event.kind, EventKind):
            bad(f"schedule event kind must be an EventKind: {event.kind!r}")
        if not (event.app is None or type(event.app) is str):
            bad(f"schedule app must be a string or None: {event.app!r}")
        last_t = event.t_s
        if event.kind in (EventKind.START, EventKind.STOP):
            if event.app is None:
                bad(f"{event.kind.value} event needs an app name")
            if event.app not in scenario.apps:
                bad(f"schedule references unknown app: {event.app!r}")
            if event.kind is EventKind.START:
                if event.app in running:
                    bad(f"app started twice without stop: {event.app!r}")
                running.add(event.app)
            else:
                if event.app not in running:
                    bad(f"stop for app that is not running: {event.app!r}")
                running.remove(event.app)
        elif event.kind is EventKind.PLUG_IN:
            if plugged:
                bad("plug_in while already plugged")
            plugged = True
        elif event.kind is EventKind.PLUG_OUT:
            if not plugged:
                bad("plug_out while not plugged")
            plugged = False


def simulate(scenario: Scenario) -> list[LogRecord]:
    """Run a scenario and return its sampled log, first sample at t=0."""
    validate_scenario(scenario)
    e_full = scenario.full_energy_mwh
    energy = e_full * scenario.initial_level_pct / 100.0
    voltage_mv = scenario.nominal_voltage_mv
    interval = scenario.sample_interval_s
    n_steps = scenario.duration_s // interval
    rng = np.random.Generator(np.random.PCG64(scenario.noise.seed))
    # noise[k] jitters the step that ends at sample k; no step ends at t=0
    noise = [0.0, *rng.normal(0.0, abs(scenario.noise.sigma_mw), n_steps).tolist()]  # numpy refuses -0.0
    events = scenario.schedule
    running: set[str] = set()
    plugged = False
    apps: tuple[str, ...] = ()
    load_mw = scenario.baseline_mw
    seg_start = idx = 0
    records = []
    for k in range(n_steps + 1):
        t, eps = k * interval, noise[k]
        # Integrate the step that ends at t piece by piece, applying each event it holds.
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
            if event.kind is EventKind.START:
                running.add(event.app)
            elif event.kind is EventKind.STOP:
                running.discard(event.app)
            else:
                plugged = event.kind is EventKind.PLUG_IN
                continue
            apps = make_app_set(running)
            load_mw = scenario.baseline_mw + sum(scenario.apps[a] for a in running)
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


_TABLE1_POWERS_MW = {
    "file download": 1000.0,
    "video streaming": 750.0,
    "play games": 520.0,
    "web browsing": 330.0,
    "text message": 180.0,
}
TABLE1_APPS = tuple(_TABLE1_POWERS_MW)


def table1_scenario() -> Scenario:
    """Five named workloads with strictly decreasing powers.

    The schedule runs an idle warm-up, one solo segment per workload and
    pairwise overlaps, which keeps every app's on/off pattern distinct
    and the regression design full column rank.
    """
    events: list[ScheduleEvent] = []
    t = 1200
    for name in TABLE1_APPS:
        events.append(ScheduleEvent(t, EventKind.START, name))
        events.append(ScheduleEvent(t + 1200, EventKind.STOP, name))
        t += 1200
    for a, b in zip(TABLE1_APPS, TABLE1_APPS[1:]):
        events.append(ScheduleEvent(t, EventKind.START, a))
        events.append(ScheduleEvent(t, EventKind.START, b))
        events.append(ScheduleEvent(t + 900, EventKind.STOP, a))
        events.append(ScheduleEvent(t + 900, EventKind.STOP, b))
        t += 900
    return Scenario(
        capacity_mah=1500.0,
        nominal_voltage_mv=3700,
        baseline_mw=140.0,
        apps=dict(_TABLE1_POWERS_MW),
        schedule=tuple(events),
        duration_s=t,
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=0.0, seed=0),
        initial_level_pct=100.0,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "capacity_mah": scenario.capacity_mah,
        "nominal_voltage_mv": scenario.nominal_voltage_mv,
        "baseline_mw": scenario.baseline_mw,
        "apps": dict(scenario.apps),
        "schedule": [
            {"t_s": e.t_s, "event": e.kind.value, **({"app": e.app} if e.app is not None else {})}
            for e in scenario.schedule
        ],
        "duration_s": scenario.duration_s,
        "sample_interval_s": scenario.sample_interval_s,
        "noise": {"sigma_mw": scenario.noise.sigma_mw, "seed": scenario.noise.seed},
        "initial_level_pct": scenario.initial_level_pct,
    }


_REQUIRED_KEYS = {"capacity_mah", "nominal_voltage_mv", "baseline_mw", "apps", "schedule", "duration_s"}
_OPTIONAL_KEYS = {"sample_interval_s", "noise", "initial_level_pct"}


def scenario_from_dict(payload: dict) -> Scenario:
    """Map a JSON document onto a Scenario; values pass through uncoerced
    and validate_scenario judges them."""
    if not isinstance(payload, dict):
        raise ScenarioInvalid("scenario must be a JSON object")
    missing = _REQUIRED_KEYS - payload.keys()
    unknown = payload.keys() - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if missing:
        raise ScenarioInvalid(f"scenario missing keys: {sorted(missing)}")
    if unknown:
        raise ScenarioInvalid(f"scenario has unknown keys: {sorted(unknown)}")

    try:
        noise = payload.get("noise", {})
        scenario = Scenario(
            capacity_mah=payload["capacity_mah"],
            nominal_voltage_mv=payload["nominal_voltage_mv"],
            baseline_mw=payload["baseline_mw"],
            apps=dict(payload["apps"].items()),
            schedule=tuple(ScheduleEvent(e["t_s"], EventKind(e["event"]), e.get("app")) for e in payload["schedule"]),
            duration_s=payload["duration_s"],
            sample_interval_s=payload.get("sample_interval_s", 60),
            noise=NoiseModel(sigma_mw=noise.get("sigma_mw", 0.0), seed=noise.get("seed", 0)),
            initial_level_pct=payload.get("initial_level_pct", 100.0),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioInvalid(f"scenario does not match the schema: {exc}") from None
    validate_scenario(scenario)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioInvalid(f"scenario file is not valid JSON: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # invalid UTF-8, too many digits, nesting too deep
            raise ScenarioInvalid(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(payload)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, ensure_ascii=False)
        fh.write("\n")
