import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semo import (
    AppSet,
    BatteryStatus,
    EventKind,
    NoiseModel,
    Scenario,
    ScenarioInvalid,
    ScheduleEvent,
    TABLE1_APPS,
    build_intervals,
    load_scenario,
    merge_identifiability_groups,
    save_scenario,
    simulate,
    table1_scenario,
)
from semo.analyzer import attribute_columns
from semo.recorder import load_columns, load_log, record_to_json, write_log
from semo.simulator import MAX_SAMPLES, scenario_from_dict, scenario_to_dict, simulate_columns

from _helpers import churn_scenario, random_exact_scenario, reference_simulate, segments_to_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def baseline_scenario(**overrides):
    base = dict(
        capacity_mah=1000.0,
        nominal_voltage_mv=3700,
        baseline_mw=370.0,
        apps={},
        schedule=(),
        duration_s=3600,
        sample_interval_s=60,
        noise=NoiseModel(),
        initial_level_pct=100.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSimulate:
    def test_closed_form_ten_percent_drop(self):
        # 370 mW for 1 h on a 3700 mWh battery consumes exactly 10%
        records = simulate(baseline_scenario())
        assert len(records) == 61
        assert records[0].sample.level_pct == 100
        assert records[-1].sample.level_pct == 90

    def test_level_nonincreasing_without_noise(self):
        scenario, _ = random_exact_scenario(np.random.default_rng(3))
        records = simulate(scenario)
        levels = [r.sample.level_pct for r in records]
        assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_same_seed_byte_identical(self):
        scenario = baseline_scenario(noise=NoiseModel(sigma_mw=30.0, seed=11))
        first = "".join(record_to_json(r) + "\n" for r in simulate(scenario))
        second = "".join(record_to_json(r) + "\n" for r in simulate(scenario))
        assert first == second
        assert simulate(baseline_scenario(noise=NoiseModel(sigma_mw=-0.0))) == simulate(baseline_scenario())

    def test_different_seeds_differ(self):
        a = simulate(baseline_scenario(noise=NoiseModel(sigma_mw=30.0, seed=1)))
        b = simulate(baseline_scenario(noise=NoiseModel(sigma_mw=30.0, seed=2)))
        assert [r.sample.charge_uah for r in a] != [r.sample.charge_uah for r in b]

    def test_fence_post_record_count(self):
        records = simulate(baseline_scenario(duration_s=600, sample_interval_s=60))
        assert len(records) == 11
        assert [r.sample.ts_ms for r in records][:3] == [0, 60_000, 120_000]

    def test_apps_follow_schedule(self):
        schedule, duration = segments_to_schedule(
            [(120, ()), (120, ("game",)), (120, ("browser", "game")), (120, ())]
        )
        scenario = baseline_scenario(
            apps={"game": 500.0, "browser": 300.0}, schedule=schedule, duration_s=duration
        )
        records = simulate(scenario)
        by_ts = {r.sample.ts_ms: r.apps for r in records}
        assert by_ts[0] == ()
        assert by_ts[120_000] == ("game",)
        assert by_ts[240_000] == ("browser", "game")
        assert by_ts[360_000] == ()

    def test_charging_span_raises_level_and_sets_status(self):
        schedule = (
            ScheduleEvent(600, EventKind.PLUG_IN),
            ScheduleEvent(1800, EventKind.PLUG_OUT),
        )
        scenario = baseline_scenario(schedule=schedule, initial_level_pct=50.0)
        records = simulate(scenario)
        by_ts = {r.sample.ts_ms // 1000: r for r in records}
        assert by_ts[0].sample.status is BatteryStatus.DISCHARGING
        assert by_ts[600].sample.status is BatteryStatus.CHARGING
        assert by_ts[1740].sample.status is BatteryStatus.CHARGING
        assert by_ts[1800].sample.status is BatteryStatus.DISCHARGING
        assert by_ts[1800].sample.level_pct > by_ts[600].sample.level_pct

    def test_energy_clamps_at_full_while_charging(self):
        schedule = (ScheduleEvent(0, EventKind.PLUG_IN),)
        scenario = baseline_scenario(schedule=schedule, initial_level_pct=99.0, duration_s=7200)
        records = simulate(scenario)
        assert records[-1].sample.level_pct == 100

    def test_energy_clamps_at_zero(self):
        scenario = baseline_scenario(baseline_mw=40_000.0, duration_s=7200)
        records = simulate(scenario)
        assert records[-1].sample.level_pct == 0
        assert records[-1].sample.charge_uah == 0

    def test_powers_off_at_empty(self):
        # 40 W empties the 3700 mWh battery between the samples at 5 and 6 minutes;
        # the plug-in after that finds the device off
        schedule = (ScheduleEvent(3600, EventKind.PLUG_IN),)
        records = simulate(baseline_scenario(baseline_mw=40_000.0, duration_s=7200, schedule=schedule))
        assert [r.sample.ts_ms for r in records] == [k * 60_000 for k in range(7)]
        assert [r.sample.charge_uah for r in records].count(0) == 1
        assert records[-1].sample.charge_uah == 0
        assert {r.sample.status for r in records} == {BatteryStatus.DISCHARGING}

    def test_energy_never_above_full_while_discharging(self):
        # sigma 20x the baseline: some steps have negative net power at full
        scenario = baseline_scenario(
            nominal_voltage_mv=1000, baseline_mw=10.0, noise=NoiseModel(sigma_mw=200.0, seed=1)
        )
        full_uah = round(scenario.full_energy_mwh * 1e6 / scenario.nominal_voltage_mv)
        charges = [r.sample.charge_uah for r in simulate(scenario)]
        assert max(charges) <= full_uah

    def test_mid_step_events_integrate_piecewise(self):
        # app runs 30 s inside one 60 s step: exactly half its energy bill
        schedule = (
            ScheduleEvent(90, EventKind.START, "burst"),
            ScheduleEvent(120, EventKind.STOP, "burst"),
        )
        scenario = baseline_scenario(
            apps={"burst": 7200.0}, baseline_mw=0.0, schedule=schedule, duration_s=240
        )
        records = simulate(scenario)
        charge = [r.sample.charge_uah for r in records]
        # 7200 mW for 30 s = 60 mWh; at 3.7 V that is 16216 µAh
        assert charge[0] == charge[1]
        assert charge[1] - charge[2] == pytest.approx(60 / 3.7 * 1000, abs=1.0)
        assert charge[2] == charge[3] == charge[4]

    def test_records_between_events_share_one_app_set(self):
        scenario = table1_scenario()
        records = simulate(scenario)
        assert all(type(record.apps) is AppSet for record in records)
        app_events = sum(event.kind in (EventKind.START, EventKind.STOP) for event in scenario.schedule)
        assert len({id(record.apps) for record in records}) <= app_events + 1


class TestSimulateColumns:
    """simulate_columns gives the columns of the log that simulate's records make."""

    @pytest.mark.parametrize(
        "make", [table1_scenario, lambda: churn_scenario(2000, 30, 3, 1.2)[0]], ids=["table1", "churn"]
    )
    def test_attribution_as_from_the_written_log(self, tmp_path, make):
        scenario = make()
        columns = simulate_columns(scenario)
        assert columns.records() == simulate(scenario)
        write_log(tmp_path / "log.jsonl", simulate(scenario))
        read = load_columns(tmp_path / "log.jsonl")
        for name in ("ts", "level", "voltage", "temp", "charge", "charge_null", "status", "health", "apps"):
            assert np.array_equal(getattr(columns, name), getattr(read, name)), name
        assert columns.app_sets == read.app_sets
        assert attribute_columns(columns) == attribute_columns(read)

    def test_equal_sets_share_one_id(self):
        start, stop = EventKind.START, EventKind.STOP
        events = [(600, start, "b"), (1200, start, "a"), (1800, stop, "a"), (2400, stop, "b"), (3000, start, "a")]
        events += [(3600, start, "b"), (4200, stop, "a"), (4800, stop, "b"), (5400, start, "a")]
        scenario = baseline_scenario(
            apps={"b": 100.0, "a": 200.0},
            schedule=tuple(ScheduleEvent(t, kind, app) for t, kind, app in events),
            duration_s=5940,
        )
        columns = simulate_columns(scenario)
        sets = [(), ("b",), ("a", "b"), ("b",), (), ("a",), ("a", "b"), ("b",), (), ("a",)]
        assert columns.app_sets == [(), ("b",), ("a", "b"), ("a",)]
        assert all(type(apps) is AppSet for apps in columns.app_sets)
        assert columns.app_names == ["a", "b"]
        assert [ids.tolist() for ids in columns.app_ids] == [[], [1], [0, 1], [0]]
        assert all(ids.dtype == np.int32 for ids in columns.app_ids)
        # each run holds ten samples, and a set that comes back keeps its first id
        assert columns.apps.tolist() == [columns.app_sets.index(run) for run in sets for _ in range(10)]
        assert [record.apps for record in columns.records()] == [run for run in sets for _ in range(10)]

    def test_sets_after_power_off_are_left_out(self):
        # the battery empties before the second set starts
        scenario = baseline_scenario(
            capacity_mah=1.0, apps={"a": 100.0}, schedule=(ScheduleEvent(3000, EventKind.START, "a"),), duration_s=6000
        )
        columns = simulate_columns(scenario)
        assert len(columns) < 50 and columns.app_sets == [()]
        assert columns.records() == reference_simulate(scenario)


class TestConservationAndQuantization:
    def test_energy_conservation_exact_grid(self):
        scenario, _ = random_exact_scenario(np.random.default_rng(17))
        records = simulate(scenario)
        voltage_v = scenario.nominal_voltage_mv / 1000.0
        e_first = records[0].sample.charge_uah * voltage_v / 1000.0
        e_last = records[-1].sample.charge_uah * voltage_v / 1000.0
        consumed = e_first - e_last

        running: set[str] = set()
        idx = 0
        events = list(scenario.schedule)
        expected = 0.0
        step = scenario.sample_interval_s
        for t in range(0, scenario.duration_s, step):
            while idx < len(events) and events[idx].t_s <= t:
                if events[idx].kind is EventKind.START:
                    running.add(events[idx].app)
                elif events[idx].kind is EventKind.STOP:
                    running.discard(events[idx].app)
                idx += 1
            power = scenario.baseline_mw + sum(scenario.apps[a] for a in running)
            expected += power * step / 3600.0
        assert consumed == pytest.approx(expected, rel=1e-9)

    def test_energy_conservation_generic(self):
        schedule, duration = segments_to_schedule(
            [(330, ()), (450, ("a",)), (510, ("a", "b")), (270, ("b",))]
        )
        scenario = baseline_scenario(
            apps={"a": 777.0, "b": 333.3},
            baseline_mw=123.4,
            schedule=schedule,
            duration_s=duration,
            sample_interval_s=60,
        )
        records = simulate(scenario)
        voltage_v = scenario.nominal_voltage_mv / 1000.0
        consumed = (records[0].sample.charge_uah - records[-1].sample.charge_uah) * voltage_v / 1000.0
        expected = (
            123.4 * duration + 777.0 * (450 + 510) + 333.3 * (510 + 270)
        ) / 3600.0
        # the µAh counter rounds each endpoint to an integer: ~1e-5 relative here
        assert consumed == pytest.approx(expected, rel=1e-4)

    def test_charge_and_level_quantizations_agree(self):
        schedule = (
            ScheduleEvent(3600, EventKind.PLUG_IN),
            ScheduleEvent(5400, EventKind.PLUG_OUT),
        )
        scenario = baseline_scenario(
            apps={"x": 450.0},
            schedule=(ScheduleEvent(600, EventKind.START, "x"),) + schedule,
            duration_s=10_800,
            noise=NoiseModel(sigma_mw=25.0, seed=5),
        )
        full_uah = scenario.capacity_mah * 1000.0
        for record in simulate(scenario):
            charge_pct = record.sample.charge_uah / full_uah * 100.0
            assert abs(charge_pct - record.sample.level_pct) <= 1.0


INVALID_OVERRIDES = [
    dict(capacity_mah=0.0),
    dict(nominal_voltage_mv=0),
    dict(baseline_mw=-1.0),
    dict(apps={"x": -5.0}),
    dict(apps={"": 5.0}),
    dict(apps={" game": 5.0}),  # the log would strip it and merge it with "game"
    dict(apps={"game\t": 5.0}),
    dict(apps={"\ud800": 5.0}),  # a lone surrogate: no log line can hold it
    dict(duration_s=0),
    dict(sample_interval_s=0),
    dict(noise=NoiseModel(sigma_mw=-1.0)),
    dict(noise=NoiseModel(seed=-1)),
    dict(initial_level_pct=0.0),
    dict(initial_level_pct=101.0),
    dict(apps={"x": float("inf")}),
    # types are checked, not coerced: a Scenario built in Python meets the JSON file's rules
    dict(duration_s=3600.5),
    dict(duration_s=True),
    dict(duration_s=np.int64(3600)),
    dict(sample_interval_s=60.0),
    dict(sample_interval_s=True),
    dict(nominal_voltage_mv=3700.0),
    dict(nominal_voltage_mv=True),
    dict(noise=NoiseModel(seed=2.5)),
    dict(noise=NoiseModel(seed=True)),
    dict(capacity_mah=True),
    dict(capacity_mah="1000"),
    dict(capacity_mah=10**400),  # an int that no float can hold
    dict(baseline_mw=True),
    dict(baseline_mw="370"),
    dict(apps={"x": True}),
    dict(apps={"x": "500"}),
    dict(initial_level_pct=True),
    dict(initial_level_pct="100"),
    dict(noise=NoiseModel(sigma_mw="1.5")),
    dict(apps={"x": 5.0, 7: 5.0}),  # an int name next to a string one
    # the full charge must be a positive, finite number of µAh
    dict(nominal_voltage_mv=10**400),
    dict(capacity_mah=1e308),
    dict(capacity_mah=5e-324, nominal_voltage_mv=1),  # the full energy underflows to 0
    # noise and schedule are exactly the types the JSON path builds
    dict(noise=None),
    dict(noise=(3.0, 1)),
    dict(schedule=None),
    dict(schedule=(1,)),
    dict(schedule=[]),  # a list could change after the check
    dict(baseline_mw=0, apps={"a": 10**308, "b": 10**308}),  # an exact int load that no float can hold
]

# each schedule is invalid for a scenario whose only app is "x"
INVALID_SCHEDULES = [
    (ScheduleEvent(10, EventKind.START, "ghost"),),
    (ScheduleEvent(10, EventKind.STOP, "x"),),
    (
        ScheduleEvent(10, EventKind.START, "x"),
        ScheduleEvent(20, EventKind.START, "x"),
    ),
    (ScheduleEvent(20, EventKind.START, "x"), ScheduleEvent(10, EventKind.STOP, "x")),
    (ScheduleEvent(10, EventKind.PLUG_OUT),),
    (ScheduleEvent(10, EventKind.PLUG_IN), ScheduleEvent(20, EventKind.PLUG_IN)),
    (ScheduleEvent(-5, EventKind.PLUG_IN),),
    (ScheduleEvent(10, EventKind.START, None),),
    (ScheduleEvent(10.5, EventKind.PLUG_IN),),
    (ScheduleEvent(True, EventKind.PLUG_IN),),
    (ScheduleEvent(10, "start", "x"),),  # a kind that is not an EventKind
    (ScheduleEvent(10, EventKind.PLUG_IN, ["x"]),),
]

NOT_MAPPINGS = [["x"], None, "ab"]


@st.composite
def _small_valid_fields(draw) -> dict:
    """The fields of a valid scenario: at most 3 apps and at most 3 h at 60 s."""
    names = draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=3))
    t, running, plugged, schedule = 0, set(), False, []
    for dt, name in draw(st.lists(st.tuples(st.integers(0, 1800), st.sampled_from([*names, None])), max_size=8)):
        t += dt
        if name is None:  # a plug event
            schedule.append(ScheduleEvent(t, EventKind.PLUG_OUT if plugged else EventKind.PLUG_IN))
            plugged = not plugged
        else:
            schedule.append(ScheduleEvent(t, EventKind.STOP if name in running else EventKind.START, name))
            running ^= {name}
    power = st.floats(0.0, 3000.0)
    return dict(
        capacity_mah=draw(st.floats(1.0, 5000.0)),
        nominal_voltage_mv=draw(st.integers(1000, 4500)),
        baseline_mw=draw(power),
        apps={name: draw(power) for name in names},
        schedule=tuple(schedule),
        duration_s=draw(st.integers(1, 3 * 3600)),
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=draw(st.floats(0.0, 50.0)), seed=draw(st.integers(0, 2**32))),
        initial_level_pct=draw(st.floats(1.0, 100.0)),
    )


@st.composite
def _fields_with_replacements(draw) -> dict:
    """A valid scenario's fields with up to 3 replaced by invalid or other valid values."""
    fields = draw(_small_valid_fields())
    replacement = st.one_of(
        st.sampled_from(INVALID_OVERRIDES),
        st.sampled_from(INVALID_SCHEDULES).map(lambda schedule: {"schedule": schedule}),
        st.sampled_from(NOT_MAPPINGS).map(lambda apps: {"apps": apps}),
        _small_valid_fields().flatmap(lambda valid: st.sampled_from(sorted(valid.items()))).map(lambda kv: dict([kv])),
    )
    for override in draw(st.lists(replacement, max_size=3)):
        fields.update(override)
    return fields


class TestValidation:
    @pytest.mark.parametrize("overrides", INVALID_OVERRIDES)
    def test_field_invariants(self, overrides):
        with pytest.raises(ScenarioInvalid):
            simulate(baseline_scenario(**overrides))

    @pytest.mark.parametrize("schedule", INVALID_SCHEDULES)
    def test_schedule_invariants(self, schedule):
        with pytest.raises(ScenarioInvalid):
            simulate(baseline_scenario(apps={"x": 100.0}, schedule=schedule))

    @pytest.mark.parametrize("apps", NOT_MAPPINGS + [[("x", 5.0)]])  # a list of pairs is refused, not coerced
    def test_apps_must_be_a_mapping(self, apps):
        with pytest.raises(ScenarioInvalid, match="^apps must be a mapping of app names to powers: "):
            baseline_scenario(apps=apps)

    def test_checked_scenario_cannot_change(self):
        apps = {"x": 100.0}
        scenario = baseline_scenario(apps=apps, schedule=(ScheduleEvent(10, EventKind.START, "x"),))
        with pytest.raises(TypeError):
            scenario.apps["x"] = 1.0
        apps["x"] = -5.0
        assert dict(scenario.apps) == {"x": 100.0}
        with pytest.raises(ScenarioInvalid, match=r"^duration_s must be an integer >= 1: 0$"):
            replace(scenario, duration_s=0)

    def test_sample_cap(self):
        message = f"^the run would hold {10**100 // 60 + 1} samples, more than the cap of {MAX_SAMPLES}$"
        with pytest.raises(ScenarioInvalid, match=message):
            baseline_scenario(duration_s=10**100)
        baseline_scenario(duration_s=(MAX_SAMPLES - 1) * 60)  # built only: simulating it would take gigabytes

    def test_interval_whose_hours_are_no_float(self):
        with pytest.raises(ScenarioInvalid, match="^sample_interval_s must be at most the largest float: 1000"):
            replace(table1_scenario(), sample_interval_s=10**400, duration_s=10**400)
        huge = int(sys.float_info.max)
        records = simulate(replace(table1_scenario(), sample_interval_s=huge, duration_s=3 * huge))
        assert records[1].sample.ts_ms == huge * 1000  # the battery is empty after one step
        with pytest.raises(ScenarioInvalid, match=f"^the run would hold {MAX_SAMPLES + 1} samples"):
            baseline_scenario(duration_s=MAX_SAMPLES * 60)

    @settings(max_examples=150, deadline=None)
    @given(fields=_fields_with_replacements())
    def test_a_scenario_that_builds_simulates(self, tmp_path_factory, fields):
        try:
            scenario = Scenario(**fields)
        except ScenarioInvalid:
            return
        records = simulate(scenario)
        path = tmp_path_factory.mktemp("log") / "sim.jsonl"
        write_log(path, records)
        assert load_log(path) == records


class TestTable1:
    def test_app_names(self):
        scenario = table1_scenario()
        assert tuple(sorted(scenario.apps)) == tuple(sorted(TABLE1_APPS))
        assert TABLE1_APPS[0] == "file download"

    def test_powers_strictly_decreasing_in_task_order(self):
        scenario = table1_scenario()
        powers = [scenario.apps[name] for name in TABLE1_APPS]
        assert all(a > b for a, b in zip(powers, powers[1:]))
        assert powers[0] == max(powers)

    def test_design_matrix_full_column_rank(self):
        records = simulate(table1_scenario())
        grouping = merge_identifiability_groups(build_intervals(records))
        assert grouping.inseparable == ()
        rank = np.linalg.matrix_rank(grouping.design)
        assert rank == grouping.design.shape[1] == 6


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        scenario = table1_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_dict_round_trip_preserves_noise(self):
        scenario = baseline_scenario(noise=NoiseModel(sigma_mw=12.5, seed=99))
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_unknown_key_rejected(self):
        payload = scenario_to_dict(baseline_scenario())
        payload["frobnicate"] = True
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(payload)

    def test_missing_key_rejected(self):
        payload = scenario_to_dict(baseline_scenario())
        del payload["capacity_mah"]
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("noise", {"sigma": 25.0, "seed": 3}, r"scenario noise has unknown keys: \['sigma'\]"),
            ("noise", [25.0, 3], "scenario noise must be a JSON object"),
            (
                "schedule",
                [{"t_s": 0, "event": "start", "app": "x"}, {"t_s": 90, "event": "stop", "app": "x", "when": 1}],
                r"scenario schedule\[1\] has unknown keys: \['when'\]",
            ),
            ("schedule", [{"t_s": 90, "kind": "start", "app": "x"}], r"scenario schedule\[0\] missing keys: \['event'\]"),
            ("schedule", [["t_s", 90]], r"scenario schedule\[0\] must be a JSON object"),
            ("schedule", {}, "scenario schedule must be a JSON array"),
            ("apps", ["x", 500.0], r"apps must be a mapping of app names to powers: \['x', 500\.0\]"),
        ],
        ids=[
            "misspelt-noise-key",
            "noise-not-object",
            "extra-entry-key",
            "missing-entry-key",
            "entry-not-object",
            "schedule-not-array",
            "apps-not-object",
        ],
    )
    def test_nested_shape_rejected(self, key, value, message):
        payload = scenario_to_dict(baseline_scenario(apps={"x": 500.0}))
        payload[key] = value
        with pytest.raises(ScenarioInvalid, match=f"^{message}$"):
            scenario_from_dict(payload)

    def test_partial_noise_takes_the_default(self):
        payload = scenario_to_dict(baseline_scenario())
        payload["noise"] = {"seed": 3}
        assert scenario_from_dict(payload).noise == NoiseModel(seed=3)

    def test_bad_event_kind_rejected(self):
        payload = scenario_to_dict(baseline_scenario())
        payload["schedule"] = [{"t_s": 0, "event": "explode"}]
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(payload)

    def test_defaults_applied(self):
        payload = {
            "capacity_mah": 1000,
            "nominal_voltage_mv": 3700,
            "baseline_mw": 100,
            "apps": {},
            "schedule": [],
            "duration_s": 120,
        }
        scenario = scenario_from_dict(payload)
        assert scenario.sample_interval_s == 60
        assert scenario.noise == NoiseModel()
        assert scenario.initial_level_pct == 100.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("nominal_voltage_mv", 3700.9),
            ("nominal_voltage_mv", True),
            ("duration_s", "3600"),
            ("duration_s", 3600.0),
            ("sample_interval_s", 59.9),
            ("schedule.0.t_s", 90.7),
            ("schedule.0.t_s", True),
            ("schedule.0.app", ["x"]),
            ("noise.seed", 2.5),
            ("noise.seed", False),
            ("noise.sigma_mw", "1.5"),
            ("capacity_mah", "1000"),
            ("baseline_mw", True),
            ("apps.x", "500"),
            ("apps", {"x": 500.0, " x": 300.0}),
            ("noise.seed", -1),
            ("initial_level_pct", True),
            ("schedule", [{"t_s": 90, "event": "plug_in", "app": ["x"]}]),
        ],
    )
    def test_bad_value_rejected_not_coerced(self, key, value):
        payload = scenario_to_dict(
            baseline_scenario(apps={"x": 500.0}, schedule=(ScheduleEvent(90, EventKind.START, "x"),))
        )
        *parents, leaf = [int(part) if part.isdigit() else part for part in key.split(".")]
        target = payload
        for part in parents:
            target = target[part]
        target[leaf] = value
        with pytest.raises(ScenarioInvalid):
            scenario_from_dict(payload)

    def test_readme_example_simulates(self):
        block = re.search(r"## Scenario format\n\n```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        scenario = scenario_from_dict(json.loads(block.group(1)))
        records = simulate(scenario)
        assert len(records) == scenario.duration_s // scenario.sample_interval_s + 1
        assert ("game",) in {r.apps for r in records}
        assert BatteryStatus.CHARGING in {r.sample.status for r in records}

    def test_not_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        message = "^scenario file is not valid JSON: Expecting property name enclosed in double quotes$"
        with pytest.raises(ScenarioInvalid, match=message):
            load_scenario(path)

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000, b'{"capacity_mah": ' + b"1" * 5000 + b"}", b'{"apps": {"\xff": 1.0}}'],
        ids=["nested-too-deep", "over-the-digit-limit", "invalid-utf8"],
    )
    def test_undecodable_json_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioInvalid, match="^scenario file is not valid JSON: "):
            load_scenario(path)

    def test_scenario_file_is_plain_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(table1_scenario(), path)
        payload = json.loads(path.read_text())
        assert payload["apps"]["file download"] == 1000.0


def _mixed_scenario() -> Scenario:
    """Fractional powers, events inside steps, a charging span, a start below 100 %.

    At most two apps run at once, so the summed power does not depend on
    the iteration order of the running set.
    """
    ev = ScheduleEvent
    schedule = (
        ev(0, EventKind.START, "c"),
        ev(95, EventKind.START, "a"),
        ev(120, EventKind.STOP, "c"),
        ev(1337, EventKind.START, "b"),
        ev(1500, EventKind.STOP, "a"),
        ev(1830, EventKind.PLUG_IN),
        ev(2701, EventKind.PLUG_OUT),
        ev(2701, EventKind.START, "c"),
        ev(3000, EventKind.STOP, "b"),
        ev(3333, EventKind.STOP, "c"),
        ev(5405, EventKind.PLUG_IN),
        ev(6100, EventKind.PLUG_OUT),
    )
    return Scenario(
        capacity_mah=812.5,
        nominal_voltage_mv=3850,
        baseline_mw=123.4,
        apps={"a": 777.7, "b": 333.3, "c": 41.9},
        schedule=schedule,
        duration_s=7230,
        sample_interval_s=60,
        noise=NoiseModel(),
        initial_level_pct=87.3,
    )


def _noisy_scenario() -> Scenario:
    """Noise, a start below 100 %, events inside steps, hours held at full
    while charging, and a drain to power-off before the schedule ends.

    At most two apps run at once, so the summed power does not depend on
    the order of the sum.
    """
    ev = ScheduleEvent
    schedule = (
        ev(0, EventKind.START, "c"),
        ev(130, EventKind.START, "a"),
        ev(1000, EventKind.PLUG_IN),
        ev(1000, EventKind.STOP, "c"),
        ev(14417, EventKind.PLUG_OUT),
        ev(14417, EventKind.START, "b"),
        ev(15000, EventKind.STOP, "a"),
        ev(15001, EventKind.START, "c"),
        ev(20000, EventKind.STOP, "b"),
    )
    return Scenario(
        capacity_mah=300.0,
        nominal_voltage_mv=3800,
        baseline_mw=90.5,
        apps={"a": 412.3, "b": 1250.7, "c": 77.7},
        schedule=schedule,
        duration_s=28800,
        sample_interval_s=60,
        noise=NoiseModel(sigma_mw=35.0, seed=7),
        initial_level_pct=64.2,
    )


class TestPinnedLogs:
    """sha256 of the written log of fixed scenarios: any change to the
    integration, the noise stream, the event order or the quantization
    changes these bytes."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (table1_scenario, "09dee71091313a8ea25f8d4c79207fe44cb645c1aa3f671ef383d9920ebdd2a1"),
            (
                lambda: churn_scenario(10_000, 50, seed=1, capacity_share=0.7)[0],  # runs empty
                "d7354801a548316a8fc26a70c714fc31ee4ce7a67b8e5673aa91b0f5a01aff54",
            ),
            (_mixed_scenario, "b7cfd33a441f6b57972b4c43861cfeca37d7d29643696526627d2cd4d5be57ee"),
            (_noisy_scenario, "1fc2b4533848789ea03af2faa52af38123873eba20608904c75a00f78fc426c0"),
        ],
        ids=["table1", "churn-70pct", "mixed", "noisy"],
    )
    def test_log_bytes_pinned(self, tmp_path, make, digest):
        path = tmp_path / "log.jsonl"
        write_log(path, simulate(make()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_noisy_log_holds_at_full_and_powers_off(self):
        records = simulate(scenario := _noisy_scenario())
        full_uah = round(scenario.full_energy_mwh * 1e6 / scenario.nominal_voltage_mv)
        held = [r for r in records if r.sample.status is BatteryStatus.CHARGING and r.sample.charge_uah == full_uah]
        assert len(held) >= 3 * 60  # three hours of samples at full while charging
        assert records[-1].sample.charge_uah == 0 < records[-1].sample.ts_ms < scenario.duration_s * 1000


def _random_noisy_scenario(rng: np.random.Generator) -> Scenario:
    """A short random run: noise up to far above the baseline, events inside
    steps, plug cycles, a start below full and a capacity that may run empty.

    Half the runs scale every power and the capacity by 1e15, so the µAh
    counter passes 2**53 and prints every bit of the energy: one ulp of
    difference shows in the log.
    """
    scale = float(rng.choice([1.0, 1e15]))
    names = [f"app{i}" for i in range(int(rng.integers(1, 5)))]
    powers = {name: scale * float(rng.uniform(1.0, 900.0)) for name in names}
    baseline = scale * float(rng.uniform(0.0, 200.0))
    interval = int(rng.choice([1, 7, 60, 61]))
    duration_s = int(rng.integers(1, 150)) * interval + int(rng.integers(0, interval))
    events = []
    running: set[str] = set()
    plugged = False
    t = 0
    for _ in range(int(rng.integers(0, 16))):
        t += int(rng.choice([0, 1, interval, int(rng.integers(1, 4 * interval + 1))]))
        if rng.random() < 0.3:
            events.append(ScheduleEvent(t, EventKind.PLUG_OUT if plugged else EventKind.PLUG_IN))
            plugged = not plugged
        else:
            app = names[int(rng.integers(len(names)))]
            events.append(ScheduleEvent(t, EventKind.STOP if app in running else EventKind.START, app))
            running ^= {app}
    need_mwh = (baseline + sum(powers.values())) * duration_s / 3600.0
    sigma_mw = float(rng.choice([0.0, 10.0 * scale, 50.0 * baseline + 100.0]))
    return Scenario(
        capacity_mah=need_mwh * float(rng.choice([0.1, 1.0, 5.0])) / 3.7 + 0.01 * scale,
        nominal_voltage_mv=3700,
        baseline_mw=baseline,
        apps=powers,
        schedule=tuple(events),
        duration_s=duration_s,
        sample_interval_s=interval,
        noise=NoiseModel(sigma_mw=sigma_mw, seed=int(rng.integers(1000))),
        initial_level_pct=float(rng.choice([100.0, rng.uniform(1.0, 100.0)])),
    )


class TestAgreesWithReference:
    """simulate's array passes give the bytes of the scalar step loop."""

    def test_random_noisy_scenarios(self, tmp_path):
        rng = np.random.default_rng(2011)
        ran_empty = split_steps = clamped_at_full = 0
        for i in range(300):
            scenario = _random_noisy_scenario(rng)
            expected = reference_simulate(scenario)
            write_log(tmp_path / "fast.jsonl", simulate(scenario))
            write_log(tmp_path / "reference.jsonl", expected)
            assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes(), i
            interval, last_t = scenario.sample_interval_s, expected[-1].sample.ts_ms // 1000
            ran_empty += expected[-1].sample.charge_uah == 0
            split_steps += any(e.t_s % interval and e.t_s < last_t for e in scenario.schedule)
            full_uah = round(scenario.full_energy_mwh * 1e6 / scenario.nominal_voltage_mv)
            unplugged = [r.sample for r in expected[1:] if r.sample.status is BatteryStatus.DISCHARGING]
            at_full = sum(sample.charge_uah == full_uah for sample in unplugged)
            clamped_at_full += at_full >= 2 and scenario.noise.sigma_mw > 10 * scenario.baseline_mw
        # the cases the array passes treat apart all occur
        assert min(ran_empty, split_steps, clamped_at_full) >= 20, (ran_empty, split_steps, clamped_at_full)

    def test_churn_of_many_apps_named_out_of_sort_order(self, tmp_path):
        """36 apps whose insertion order is not their sort order, non-ASCII
        names among them, toggled hundreds of times with up to dozens at once.

        Powers are scaled by 1e15, as in _random_noisy_scenario, and the
        battery holds 90 % of what the schedule draws, so the last steps
        before power-off move an energy near their own size: a load summed
        in another order than sorted shows in the µAh counter.
        """
        scale = 1e15
        baseline = scale * 95.3
        rng = np.random.default_rng(2026)
        stems = ["zoë", "Ångström", "app", "Émile", "日本", "b"]
        names = [f"{stem} {i}" for i in range(6) for stem in stems]
        assert names != sorted(names)
        powers = {name: scale * float(rng.uniform(1.0, 900.0)) for name in names}
        events = []
        running: set[str] = set()
        t = 0
        need_mwh = 0.0
        for _ in range(600):
            dt = int(rng.choice([0, 1, 59, 60, 61]))
            need_mwh += (baseline + sum(powers[app] for app in running)) * dt / 3600.0
            t += dt
            app = names[int(rng.integers(len(names)))]
            events.append(ScheduleEvent(t, EventKind.STOP if app in running else EventKind.START, app))
            running ^= {app}
        scenario = Scenario(
            capacity_mah=0.9 * need_mwh / 3.7,
            nominal_voltage_mv=3700,
            baseline_mw=baseline,
            apps=powers,
            schedule=tuple(events),
            duration_s=t,
            sample_interval_s=60,
            noise=NoiseModel(sigma_mw=scale * 20.0, seed=5),
            initial_level_pct=100.0,
        )
        expected = reference_simulate(scenario)
        assert expected[-1].sample.charge_uah == 0
        assert max(len(record.apps) for record in expected) >= 20
        assert len({record.apps for record in expected}) >= 100
        write_log(tmp_path / "fast.jsonl", simulate(scenario))
        write_log(tmp_path / "reference.jsonl", expected)
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    @pytest.mark.parametrize("capacity_mah", [9.2e15, 9.3e15, 1e16, 1e30])
    def test_counters_past_int64(self, tmp_path, capacity_mah):
        # full charge about 9.2e18 uAh, at, just past and far past 2**63; the first step empties it
        scenario = replace(table1_scenario(), capacity_mah=capacity_mah, baseline_mw=1e20)
        records = simulate(scenario)
        assert all(type(record.sample.charge_uah) is int for record in records)
        write_log(tmp_path / "fast.jsonl", records)
        write_log(tmp_path / "reference.jsonl", reference_simulate(scenario))
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "change",
        [dict(nominal_voltage_mv=2**64), dict(sample_interval_s=2**62, duration_s=2**64)],
        ids=["voltage", "timestamps"],
    )
    def test_voltage_and_timestamps_past_int64(self, tmp_path, change):
        # a 2**62 s step empties the battery, so the second and last sample lies at 2**62 * 1000 ms
        scenario = replace(table1_scenario(), **change)
        records = simulate(scenario)
        assert all(type(r.sample.ts_ms) is type(r.sample.voltage_mv) is int for r in records)
        assert max(r.sample.ts_ms for r in records) >= 2**63 or records[0].sample.voltage_mv >= 2**63
        write_log(tmp_path / "fast.jsonl", records)
        write_log(tmp_path / "reference.jsonl", reference_simulate(scenario))
        assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    @pytest.mark.parametrize("off_at", [1, 63, 64, 65, 200])
    def test_powers_off_where_the_sum_lands_on_zero(self, off_at):
        # 1 mW for 1 h is exactly 1 mWh, so the energy reaches 0.0 at sample off_at with no clamp
        scenario = baseline_scenario(
            capacity_mah=float(off_at),
            nominal_voltage_mv=1000,
            baseline_mw=1.0,
            schedule=(ScheduleEvent((off_at + 5) * 3600 + 1800, EventKind.PLUG_IN),),
            duration_s=300 * 3600,
            sample_interval_s=3600,
        )
        records = simulate(scenario)
        assert records == reference_simulate(scenario)
        assert len(records) == off_at + 1 and records[-1].sample.charge_uah == 0 < records[-2].sample.charge_uah

    def test_empties_inside_a_step_and_charges_before_its_sample(self, tmp_path):
        # 3.7 mWh at 3,700 mW lasts 3.6 s; a zero between samples sums on, so the plug-in at 45 s
        # fills the battery by the sample at 60 s and the run goes on to its end
        scenario = baseline_scenario(
            capacity_mah=1.0,
            baseline_mw=3700.0,
            schedule=(ScheduleEvent(45, EventKind.PLUG_IN),),
            duration_s=300,
        )
        records = _assert_as_reference(tmp_path, scenario)
        assert len(records) == 6
        assert records[1].sample.charge_uah == records[0].sample.charge_uah
        assert records[1].sample.status is BatteryStatus.CHARGING

    @pytest.mark.parametrize("start_s", [1, 30, 59])
    def test_powers_off_at_the_sample_after_an_inside_event(self, tmp_path, start_s):
        # the app drains the battery within a second of its start; the plug-in after the sample never applies
        scenario = baseline_scenario(
            apps={"burst": 1e9},
            baseline_mw=0.0,
            schedule=(ScheduleEvent(start_s, EventKind.START, "burst"), ScheduleEvent(90, EventKind.PLUG_IN)),
            duration_s=300,
        )
        records = _assert_as_reference(tmp_path, scenario)
        assert len(records) == 2
        assert records[1].sample.charge_uah == 0 and records[1].apps == ("burst",)
        assert records[1].sample.status is BatteryStatus.DISCHARGING

    def test_clamps_at_full_inside_a_step_then_discharges(self, tmp_path):
        # 20 s of charging fill the last 0.1 %, and 40 s at 370 mW follow from full
        scenario = baseline_scenario(
            schedule=(ScheduleEvent(0, EventKind.PLUG_IN), ScheduleEvent(20, EventKind.PLUG_OUT)),
            duration_s=120,
            initial_level_pct=99.9,
        )
        records = _assert_as_reference(tmp_path, scenario)
        e_full = scenario.full_energy_mwh
        assert records[1].sample.charge_uah == round((e_full - 370.0 * (40 / 3600.0)) * 1e6 / 3700)


def _assert_as_reference(tmp_path, scenario: Scenario) -> list:
    """simulate's records, after checking that their log bytes are reference_simulate's."""
    records = simulate(scenario)
    write_log(tmp_path / "fast.jsonl", records)
    write_log(tmp_path / "reference.jsonl", reference_simulate(scenario))
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    return records


def _hash_seed_scenario() -> Scenario:
    """Three app powers whose float sum depends on the order of the sum: summed
    in one order they empty the battery in exactly 3 h, in another not."""
    return Scenario(
        capacity_mah=0.6000000000000001,
        nominal_voltage_mv=1000,
        baseline_mw=0.0,
        apps={"a": 0.1, "b": 0.2, "c": 0.3},
        schedule=tuple(ScheduleEvent(0, EventKind.START, app) for app in "abc"),
        duration_s=10800,
        sample_interval_s=3600,
    )


def test_log_does_not_depend_on_the_string_hash_seed(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    save_scenario(_hash_seed_scenario(), scenario_path)
    logs = set()
    for hash_seed in ("0", "2", "5"):  # hash seeds under which a set of these names iterates in different orders
        out = tmp_path / f"log{hash_seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "semo", "simulate", str(scenario_path), "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        logs.add(out.read_bytes())
    write_log(tmp_path / "here.jsonl", simulate(_hash_seed_scenario()))
    assert logs == {(tmp_path / "here.jsonl").read_bytes()}
