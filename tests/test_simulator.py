import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from semo import (
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
from semo.recorder import record_to_json, write_log
from semo.simulator import scenario_from_dict, scenario_to_dict

from _helpers import churn_scenario, random_exact_scenario, segments_to_schedule

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


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
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
        ],
    )
    def test_field_invariants(self, overrides):
        with pytest.raises(ScenarioInvalid):
            simulate(baseline_scenario(**overrides))

    @pytest.mark.parametrize(
        "schedule",
        [
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
        ],
    )
    def test_schedule_invariants(self, schedule):
        with pytest.raises(ScenarioInvalid):
            simulate(baseline_scenario(apps={"x": 100.0}, schedule=schedule))


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


class TestPinnedLogs:
    """sha256 of the written log of noise-free scenarios: any change to the
    integration, the event order or the quantization changes these bytes."""

    @pytest.mark.parametrize(
        "make, digest",
        [
            (table1_scenario, "09dee71091313a8ea25f8d4c79207fe44cb645c1aa3f671ef383d9920ebdd2a1"),
            (
                lambda: churn_scenario(10_000, 50, seed=1, capacity_share=0.7)[0],  # runs empty
                "d7354801a548316a8fc26a70c714fc31ee4ce7a67b8e5673aa91b0f5a01aff54",
            ),
            (_mixed_scenario, "b7cfd33a441f6b57972b4c43861cfeca37d7d29643696526627d2cd4d5be57ee"),
        ],
        ids=["table1", "churn-70pct", "mixed"],
    )
    def test_log_bytes_pinned(self, tmp_path, make, digest):
        path = tmp_path / "log.jsonl"
        write_log(path, simulate(make()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
