"""Synthetic log generation with known ground-truth per-app power draw.

State of charge integrates piecewise between schedule events:

    dE/dt = -(baseline_mw + sum of running app powers + eps)   unplugged
    dE/dt = +5000 mW                                           plugged

The running set, the plug state and the summed app power change only
when an event applies; an event at a sample time applies before that
sample.  The app powers are summed in sorted name order, never in the
order of a set, which would hang on the string hash seed.  eps is one
gaussian(0, sigma_mw) value per sampling step, all drawn by one call at
the start of the run (the same stream as one draw per step), so noise
enters as power jitter and zero-noise level series stay monotone.
Energy is clamped to [0, full] after every segment, plugged or not.  A
device whose energy reads 0 at a sample time powers off: that sample is
the log's last, and later events are not simulated.  Emitted samples
quantize the state exactly like a real device would:
level_pct = floor(100 * E / E_full) and
charge_uah = round(E / (nominal_voltage_mv/1000) * 1000).

simulate runs in three passes.  A walk over the schedule, one step per
event, gives the event times and the state after each: the plug state,
and the running apps as flags over the scenario's sorted names, checked
once as an AppSet, with the load taken from the flagged powers.  Time
is cut into segments at every sample time and every event time
strictly inside a step; each runs in the state at its start with the
noise of its step.  Their energy changes, -(load + eps) * dt_h or
5000 * dt_h with dt_h = (t1 - t0) / 3600.0, are summed left to right
by np.add.accumulate: each partial sum is the float that adding one
segment at a time gives, since the same IEEE operations run in the
same order.  The sum is clamped where it first leaves (0, full], goes
on from the clamped value, and stops only at a sample that reads 0.
A last pass, simulate_columns, quantizes the energies at the samples
and builds the log's columns, a LogColumns in which each distinct set
of flags gets one set id, the ids of the flagged names.  LogColumns
checks the rows and the sets once, when built; simulate is their
records(), which only fills the records one field at a time.

Determinism: the gaussian stream is numpy's PCG64 generator seeded from
the scenario, which is stable across platforms, so equal scenarios give
byte-identical logs.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ScenarioInvalid
from .recorder import HEALTHS, STATUSES, LogColumns, LogRecord
from .sources import AppSet, BatteryHealth, BatteryStatus

CHARGE_RATE_MW = 5000.0
SIM_TEMP_DC = 250  # emitted temperature: fixed nominal 25.0 °C
# status and health codes of the emitted samples
_CHARGING, _DISCHARGING = STATUSES.index(BatteryStatus.CHARGING), STATUSES.index(BatteryStatus.DISCHARGING)
_GOOD = HEALTHS.index(BatteryHealth.GOOD)


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


# the most samples one run may hold.  Per sample (tracemalloc, phone-100k), simulate_columns peaks
# at about 96 bytes, its per-segment arrays and columns, and returns about 53; simulate's
# records keep about 240 (2.4 GB at the cap) and peak at about 363
MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class Scenario:
    """A run to simulate, which checks itself when built.

    Building one, in Python, from JSON or by dataclasses.replace, raises
    ScenarioInvalid with a reason on the first violated invariant, so
    every Scenario can be simulated.  Types are checked, never coerced.
    Integer fields must be exactly int, as in the log: a float, bool or
    numpy integer there makes samples that BatterySample refuses.  Other
    numbers must be a finite int or float, never a bool, and the int
    baseline and app powers must sum to a float.  sample_interval_s is
    at most the largest float, so that a step's hours are a float.  noise must be
    a NoiseModel and schedule a tuple of ScheduleEvents.  apps is kept
    as a read-only copy, so the check keeps holding.
    """

    capacity_mah: float
    nominal_voltage_mv: int
    baseline_mw: float
    apps: Mapping[str, float]
    schedule: tuple[ScheduleEvent, ...]
    duration_s: int
    sample_interval_s: int = 60
    noise: NoiseModel = field(default_factory=NoiseModel)
    initial_level_pct: float = 100.0

    @property
    def full_energy_mwh(self) -> float:
        return self.capacity_mah * self.nominal_voltage_mv / 1000.0

    def __post_init__(self):
        def bad(reason: str):
            raise ScenarioInvalid(reason)

        if not isinstance(self.apps, Mapping):
            bad(f"apps must be a mapping of app names to powers: {self.apps!r}")
        object.__setattr__(self, "apps", MappingProxyType(dict(self.apps)))
        if not all(type(name) is str for name in self.apps):
            bad(f"app names must be strings: {list(self.apps)!r}")
        try:
            AppSet(sorted(self.apps))  # the log's own name rule: a name it would rewrite would merge two apps
        except ValueError as exc:
            raise ScenarioInvalid(str(exc)) from None
        if type(self.noise) is not NoiseModel:
            bad(f"noise must be a NoiseModel: {self.noise!r}")
        if type(self.schedule) is not tuple or not all(type(event) is ScheduleEvent for event in self.schedule):
            bad(f"schedule must be a tuple of ScheduleEvents: {self.schedule!r}")
        integers = (  # (key, value, least value allowed)
            ("nominal_voltage_mv", self.nominal_voltage_mv, 1),
            ("duration_s", self.duration_s, 1),
            ("sample_interval_s", self.sample_interval_s, 1),
            ("noise seed", self.noise.seed, 0),
        )
        for key, value, least in integers:
            if type(value) is not int or value < least:
                bad(f"{key} must be an integer >= {least}: {value!r}")
        if (samples := self.duration_s // self.sample_interval_s + 1) > MAX_SAMPLES:
            bad(f"the run would hold {samples} samples, more than the cap of {MAX_SAMPLES}")
        if self.sample_interval_s > sys.float_info.max:  # a step's hours, interval / 3600.0, must be a float
            bad(f"sample_interval_s must be at most the largest float: {self.sample_interval_s}")
        numbers = {
            "capacity_mah": self.capacity_mah,
            "nominal_voltage_mv": self.nominal_voltage_mv,
            "baseline_mw": self.baseline_mw,
            "noise sigma_mw": self.noise.sigma_mw,
            "initial_level_pct": self.initial_level_pct,
            **{f"power of app {name!r}": power for name, power in self.apps.items()},
        }
        for key, value in numbers.items():
            # the bound refuses nan, inf and an int that no float can hold
            if not (type(value) in (int, float) and 0 <= value <= sys.float_info.max):
                bad(f"{key} must be a non-negative finite number: {value!r}")
        # integer powers sum exactly, and the load they make must still convert to a float
        if sum(v for v in (self.baseline_mw, *self.apps.values()) if type(v) is int) > sys.float_info.max:
            bad("baseline_mw and the app powers given as integers must sum to at most the largest float")
        if not 0 < self.full_energy_mwh * 1e6 / self.nominal_voltage_mv < math.inf:  # the full charge in µAh
            bad(f"full charge must be positive and finite: {self.capacity_mah!r} mAh")
        if not 0 < self.initial_level_pct <= 100:
            bad(f"initial_level_pct must be in (0, 100]: {self.initial_level_pct}")

        running: set[str] = set()
        plugged = False
        last_t = 0
        for event in self.schedule:
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
                if event.app not in self.apps:
                    bad(f"schedule references unknown app: {event.app!r}")
            plugged = _apply_event(event, running, plugged)


def _apply_event(event: ScheduleEvent, running: set[str], plugged: bool) -> bool:
    """Apply one event to the running set and return the new plug state;
    raise ScenarioInvalid on a transition that the state does not allow."""
    if event.kind is EventKind.START:
        if event.app in running:
            raise ScenarioInvalid(f"app started twice without stop: {event.app!r}")
        running.add(event.app)
    elif event.kind is EventKind.STOP:
        if event.app not in running:
            raise ScenarioInvalid(f"stop for app that is not running: {event.app!r}")
        running.remove(event.app)
    elif plugged == (event.kind is EventKind.PLUG_IN):  # a plug event must change the plug state
        raise ScenarioInvalid("plug_in while already plugged" if plugged else "plug_out while not plugged")
    else:
        plugged = not plugged
    return plugged


def _walk(scenario: Scenario, universe: AppSet, last_t: int) -> tuple[list[int], list[tuple]]:
    """The times of the events at or before last_t, and the states
    (load_mw, plugged, on) from t = 0 and from each of those events on:
    on holds one byte per name of universe, 1 where that app runs."""
    running: set[str] = set()
    plugged = False
    slot = {name: i for i, name in enumerate(universe)}
    powers = [scenario.apps[name] for name in universe]
    on = bytearray(len(universe))  # on[i]: universe[i] is running
    load_mw = scenario.baseline_mw
    times: list[int] = []
    states = [(load_mw, plugged, bytes(on))]
    for event in scenario.schedule:
        if event.t_s > last_t:
            break
        plugged = _apply_event(event, running, plugged)
        if event.kind in (EventKind.START, EventKind.STOP):
            on[slot[event.app]] = event.kind is EventKind.START
            # summed in sorted order: a set's order hangs on the string hash seed
            load_mw = scenario.baseline_mw + sum(compress(powers, on))
        times.append(event.t_s)
        states.append((load_mw, plugged, bytes(on)))
    return times, states


_FIRST_CHUNK = 64  # segments in the first chunk of a running sum; each clean chunk doubles the next


def _first(mask: np.ndarray) -> int:
    """Index of the first True in a non-empty mask, or its length if none."""
    i = int(mask.argmax())
    return i if mask[i] else len(mask)


def _integrate(energy0: float, changes: np.ndarray, is_sample: np.ndarray, e_full: float) -> np.ndarray:
    """Energy at each segment end, up to the first sample that reads 0.

    Chunks of changes are summed by np.add.accumulate, and the first sum
    above full or at most 0 (or nan) is clamped and summed on from.  At
    full, changes that add charge are filled in one slice, not summed one
    restart at a time.  An entry that reads 0 between samples sums on.
    """
    energy = np.empty(len(changes) + 1)
    energy[0] = energy0
    k, chunk = 1, _FIRST_CHUNK
    while k < len(energy) and not (energy[k - 1] == 0.0 and is_sample[k - 1]):
        end = min(k + chunk, len(energy))
        if energy[k - 1] == e_full:
            held = _first(~(changes[k - 1 : end - 1] >= 0))
            energy[k : k + held] = e_full
            k += held
            if k == end:
                chunk *= 2
                continue
        run = energy[k - 1 : end]
        run[1:] = changes[k - 1 : end - 1]
        np.add.accumulate(run, out=run)
        i = _first(~((run[1:] > 0) & (run[1:] <= e_full)))
        if i == end - k:
            k, chunk = end, chunk * 2
            continue
        k += i
        energy[k] = e_full if energy[k] > e_full else 0.0
        k, chunk = k + 1, _FIRST_CHUNK
    return energy[:k]


def simulate_columns(scenario: Scenario) -> LogColumns:
    """Run a scenario and return its sampled log as columns, first sample at t=0.

    app_names is the scenario's sorted names, and each distinct set of
    running apps gets one set id, in the order the rows first hold it.
    charge is int64, or exact Python ints once a counter reaches 2**63.
    The columns are checked once, as every LogColumns is when built.
    """
    e_full = scenario.full_energy_mwh
    voltage_mv = scenario.nominal_voltage_mv
    interval = scenario.sample_interval_s
    n_steps = scenario.duration_s // interval
    universe = AppSet(sorted(scenario.apps))
    times, states = _walk(scenario, universe, n_steps * interval)
    loads, plugs, masks = zip(*states)
    loads, plugs = np.array(loads, dtype=float), np.array(plugs)
    # segments end at every sample time and at every event time strictly inside a step
    inside = sorted({t for t in times if t % interval})
    steps_in = np.array([t // interval for t in inside], dtype=np.int64)  # the step k - 1 of each, from 0
    t_dtype = _int_dtype((n_steps + 1) * interval)  # above every bound
    bounds = np.insert(np.arange(n_steps + 1, dtype=t_dtype) * interval, steps_in + 1, inside)
    is_sample = np.insert(np.ones(n_steps + 1, dtype=bool), steps_in + 1, False)
    # the state at each bound: event i applies from the first bound at or after it on
    first_at = np.searchsorted(bounds, np.array(times, dtype=t_dtype))
    state = np.repeat(np.arange(len(states)), np.diff(first_at, prepend=0, append=len(bounds)))
    rng = np.random.Generator(np.random.PCG64(scenario.noise.seed))
    noise = rng.normal(0.0, abs(scenario.noise.sigma_mw), n_steps)  # numpy refuses -0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        # a segment runs in the state at its start and draws the noise of its step, noise[k - 1] in step k
        eps = np.insert(noise, steps_in, noise[steps_in])
        load_mw, plugged = loads[state[:-1]], plugs[state[:-1]]
        dt_h = np.asarray(np.diff(bounds) / 3600.0, dtype=float)  # interval / 3600.0 on a whole step
        changes = np.where(plugged, CHARGE_RATE_MW * dt_h, -(load_mw + eps) * dt_h)
        del bounds, noise, eps, load_mw, plugged, dt_h  # the whole-run arrays that the rest does not need
        energy = _integrate(e_full * scenario.initial_level_pct / 100.0, changes, is_sample, e_full)
        rows = is_sample[: len(energy)]  # the rows end at the power-off sample
        energy = energy[rows]
        level = np.clip(np.floor(energy * 100.0 / e_full), 0, 100).astype(np.int64)
        charge = np.rint(energy * 1e6 / float(voltage_mv))  # rint rounds half to even, as round does
    n = len(energy)
    if charge.max() < 2.0**63:  # every float below 2**63 is an exact int64
        charge = charge.astype(np.int64)
    else:  # Python ints, so a counter past int64 stays exact
        charge = np.array(list(map(int, charge.tolist())), dtype=object)
    step_ms = interval * 1000
    row_state = state[: len(rows)][rows]  # non-decreasing
    starts = np.flatnonzero(np.diff(row_state, prepend=-1))  # the rows where the state changes
    ids: dict[bytes, int] = {}  # each distinct mask of running apps to its set id, in the order first met
    run_ids = [ids.setdefault(masks[s], len(ids)) for s in row_state[starts].tolist()]
    set_ids = np.repeat(run_ids, np.diff(starts, append=n))
    on = np.frombuffer(b"".join(ids), dtype=bool).reshape(len(ids), len(universe))
    names = np.nonzero(on)[1].astype(np.int32)  # the name ids of each held set, set after set
    return LogColumns(
        ts=np.arange(n, dtype=_int_dtype(n * step_ms)) * step_ms,  # n * step_ms is above every ts
        level=level,
        voltage=np.full(n, voltage_mv, dtype=_int_dtype(voltage_mv)),
        temp=np.full(n, SIM_TEMP_DC, dtype=np.int64),
        charge=charge,
        charge_null=np.zeros(n, dtype=bool),
        status=np.where(plugs[row_state], _CHARGING, _DISCHARGING).astype(np.int8),
        health=np.full(n, _GOOD, dtype=np.int8),
        apps=set_ids,
        app_names=list(universe),
        app_ids=np.split(names, np.cumsum(on.sum(axis=1))[:-1]),
    )


def _int_dtype(most: int):
    """The dtype of a column of non-negative ints up to most: int64 if it
    holds most, else object, so that Python ints past int64 stay exact."""
    return np.int64 if most < 2**63 else object


def simulate(scenario: Scenario) -> list[LogRecord]:
    """Run a scenario and return its sampled log, first sample at t=0."""
    return simulate_columns(scenario).records()


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


def _check_keys(obj, what: str, required: set, optional: set) -> None:
    if not isinstance(obj, dict):
        raise ScenarioInvalid(f"{what} must be a JSON object")
    missing = required - obj.keys()
    unknown = obj.keys() - required - optional
    if missing:
        raise ScenarioInvalid(f"{what} missing keys: {sorted(missing)}")
    if unknown:
        raise ScenarioInvalid(f"{what} has unknown keys: {sorted(unknown)}")


def scenario_from_dict(payload: dict) -> Scenario:
    """Map a JSON document onto a Scenario; values pass through uncoerced
    and the Scenario's own check judges them.  Absent optional keys take the
    dataclass defaults; an unknown or missing key at any level is refused."""
    _check_keys(payload, "scenario", _REQUIRED_KEYS, _OPTIONAL_KEYS)
    if not isinstance(payload["schedule"], list):
        raise ScenarioInvalid("scenario schedule must be a JSON array")
    for i, entry in enumerate(payload["schedule"]):
        _check_keys(entry, f"scenario schedule[{i}]", {"t_s", "event"}, {"app"})
    fields = dict(payload)
    if "noise" in payload:
        _check_keys(payload["noise"], "scenario noise", set(), {"sigma_mw", "seed"})
        fields["noise"] = NoiseModel(**payload["noise"])
    try:
        fields["schedule"] = tuple(
            ScheduleEvent(e["t_s"], EventKind(e["event"]), e.get("app")) for e in payload["schedule"]
        )
    except ValueError as exc:  # an event name that is no EventKind
        raise ScenarioInvalid(f"scenario does not match the schema: {exc}") from None
    return Scenario(**fields)


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
