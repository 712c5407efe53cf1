import pytest
from hypothesis import given, strategies as st

from semo import (
    BatteryHealth,
    BatteryStatus,
    FileTreeSource,
    SimulatedClock,
    WarningKind,
    describe,
    evaluate,
)
from semo.inspector import LOW_BATTERY_PCT, OVERHEAT_DC, VOLTAGE_MAX_MV, VOLTAGE_MIN_MV

from _helpers import LINUX_FAULTS, make_sample, write_source_dir


class TestLowBattery:
    def test_level_14_discharging_warns(self):
        warnings = evaluate(make_sample(0, 14))
        assert [w.kind for w in warnings] == [WarningKind.LOW_BATTERY]
        assert warnings[0].threshold == 15

    def test_level_15_is_quiet(self):
        # strictly below the limit, not at it
        assert evaluate(make_sample(0, 15)) == []

    def test_suppressed_while_charging(self):
        sample = make_sample(0, 14, status=BatteryStatus.CHARGING)
        assert [w.kind for w in evaluate(sample)] == []

    def test_fires_while_not_charging(self):
        sample = make_sample(0, 14, status=BatteryStatus.NOT_CHARGING)
        assert [w.kind for w in evaluate(sample)] == [WarningKind.LOW_BATTERY]


class TestOtherKinds:
    def test_overheat_strictly_above(self):
        assert evaluate(make_sample(0, 50, temp_dc=450)) == []
        warnings = evaluate(make_sample(0, 50, temp_dc=451))
        assert [w.kind for w in warnings] == [WarningKind.OVERHEAT]
        assert warnings[0].threshold == 450

    @pytest.mark.parametrize(
        "health",
        [
            BatteryHealth.OVERHEAT,
            BatteryHealth.DEAD,
            BatteryHealth.OVER_VOLTAGE,
            BatteryHealth.COLD,
            BatteryHealth.UNSPECIFIED_FAILURE,
        ],
    )
    def test_unhealthy(self, health):
        warnings = evaluate(make_sample(0, 50, health=health))
        assert [w.kind for w in warnings] == [WarningKind.UNHEALTHY_BATTERY]
        assert warnings[0].threshold is None

    @pytest.mark.parametrize("health", LINUX_FAULTS)
    def test_linux_fault_read_from_source_is_unhealthy(self, tmp_path, health):
        sample = FileTreeSource(write_source_dir(tmp_path, health=health)).read_battery_sample(SimulatedClock())
        warnings = evaluate(sample)
        assert [(w.kind, w.message) for w in warnings] == [
            (WarningKind.UNHEALTHY_BATTERY, "battery health is unspecified failure")
        ]

    def test_unknown_health_is_not_a_warning(self):
        assert evaluate(make_sample(0, 50, health=BatteryHealth.UNKNOWN)) == []

    def test_voltage_bounds_inclusive(self):
        assert evaluate(make_sample(0, 50, voltage_mv=3000)) == []
        assert evaluate(make_sample(0, 50, voltage_mv=4500)) == []
        low = evaluate(make_sample(0, 50, voltage_mv=2999))
        high = evaluate(make_sample(0, 50, voltage_mv=4501))
        assert low[0].threshold == 3000
        assert high[0].threshold == 4500

    def test_multiple_warnings_in_declaration_order(self):
        sample = make_sample(0, 5, temp_dc=600, health=BatteryHealth.DEAD, voltage_mv=4900)
        kinds = [w.kind for w in evaluate(sample)]
        assert kinds == [
            WarningKind.LOW_BATTERY,
            WarningKind.OVERHEAT,
            WarningKind.UNHEALTHY_BATTERY,
            WarningKind.VOLTAGE_OUT_OF_RANGE,
        ]


sample_strategy = st.builds(
    make_sample,
    ts_ms=st.just(0),
    level=st.integers(0, 100),
    status=st.sampled_from(BatteryStatus),
    voltage_mv=st.integers(1, 6000),
    temp_dc=st.integers(-200, 800),
    health=st.sampled_from(BatteryHealth),
)


class TestProperties:
    @given(sample=sample_strategy)
    def test_every_emitted_warning_guard_holds(self, sample):
        for warning in evaluate(sample):
            if warning.kind is WarningKind.LOW_BATTERY:
                assert sample.level_pct < LOW_BATTERY_PCT
                assert sample.status in (BatteryStatus.DISCHARGING, BatteryStatus.NOT_CHARGING)
            elif warning.kind is WarningKind.OVERHEAT:
                assert sample.temp_dc > OVERHEAT_DC
            elif warning.kind is WarningKind.UNHEALTHY_BATTERY:
                assert sample.health not in (BatteryHealth.GOOD, BatteryHealth.UNKNOWN)
            else:
                assert not VOLTAGE_MIN_MV <= sample.voltage_mv <= VOLTAGE_MAX_MV

    @given(level_a=st.integers(0, 100), level_b=st.integers(0, 100))
    def test_low_battery_monotone_in_level(self, level_a, level_b):
        if level_a >= level_b:
            level_a, level_b = level_b, level_a
        def triggers(level):
            return any(
                w.kind is WarningKind.LOW_BATTERY for w in evaluate(make_sample(0, level))
            )
        if triggers(level_b):
            assert triggers(level_a)


class TestDescribe:
    def test_report_echoes_fields(self):
        sample = make_sample(0, 80)
        report = describe(sample)
        assert "80%" in report
        assert "3900 mV" in report
        assert "31.0 °C" in report
        assert "status: discharging" in report

    def test_absent_charge(self):
        assert "charge: n/a" in describe(make_sample(0, 80))

    def test_present_charge(self):
        assert "charge: 1200000 µAh" in describe(make_sample(0, 80, charge_uah=1_200_000))

    def test_unknown_health(self):
        assert "health: unknown" in describe(make_sample(0, 80, health=BatteryHealth.UNKNOWN))

    def test_unspecified_failure_health(self):
        assert "health: unspecified failure" in describe(make_sample(0, 80, health=BatteryHealth.UNSPECIFIED_FAILURE))

    def test_every_field_exactly_once(self):
        report = describe(make_sample(1_700_000_000_000, 42, charge_uah=5))
        for prefix in ("time:", "level:", "voltage:", "temperature:", "charge:", "status:", "health:"):
            assert report.count(prefix) == 1
        assert len(report.splitlines()) == 7


class TestTenthsOfADegree:
    """Temperatures print from integer tenths, so no reading is too large to print."""

    @given(temp_dc=st.integers(-(2**52) + 1, 2**52 - 1))
    def test_as_the_float_format_below_2_to_52(self, temp_dc):
        # below 2**52 the float temp_dc / 10 is within 0.05 of the exact tenth, so it rounds back to it
        warnings = evaluate(make_sample(0, 50, temp_dc=temp_dc))
        assert f"temperature: {temp_dc / 10:.1f} °C" in describe(make_sample(0, 50, temp_dc=temp_dc))
        if temp_dc > OVERHEAT_DC:
            assert warnings[0].message == f"battery temperature {temp_dc / 10:.1f} °C exceeds 45.0 °C"

    @pytest.mark.parametrize(
        "temp_dc,text",
        [(0, "0.0"), (-5, "-0.5"), (-15, "-1.5"), (451, "45.1"), (5629499534213123, "562949953421312.3")],
    )
    def test_exact_tenths(self, temp_dc, text):
        assert f"temperature: {text} °C" in describe(make_sample(0, 50, temp_dc=temp_dc))

    def test_reading_past_float_range_warns(self):
        temp_dc = int("4" * 400)
        warnings = evaluate(make_sample(0, 50, temp_dc=temp_dc))
        assert [w.kind for w in warnings] == [WarningKind.OVERHEAT]
        assert warnings[0].message == f"battery temperature {'4' * 399}.4 °C exceeds 45.0 °C"
        assert f"temperature: {'4' * 399}.4 °C" in describe(make_sample(0, 50, temp_dc=temp_dc))

