"""Battery condition checks and the human-readable battery report."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum

from .sources import BatteryHealth, BatterySample, BatteryStatus


class WarningKind(Enum):
    LOW_BATTERY = "LowBattery"
    OVERHEAT = "Overheat"
    UNHEALTHY_BATTERY = "UnhealthyBattery"
    VOLTAGE_OUT_OF_RANGE = "VoltageOutOfRange"


@dataclass(frozen=True)
class BatteryWarning:
    kind: WarningKind
    message: str
    # Limit that was crossed; None for kinds without a numeric limit.
    threshold: int | None


LOW_BATTERY_PCT = 15
OVERHEAT_DC = 450  # tenths of a degree Celsius: 45.0 °C
VOLTAGE_MIN_MV = 3000
VOLTAGE_MAX_MV = 4500

# Low-battery reminders are pointless while on the charger.
_DRAINING = (BatteryStatus.DISCHARGING, BatteryStatus.NOT_CHARGING)
_HEALTHY = (BatteryHealth.GOOD, BatteryHealth.UNKNOWN)


def evaluate(sample: BatterySample) -> list[BatteryWarning]:
    """Return the warnings a sample triggers, in WarningKind declaration order.

    Low battery fires strictly below LOW_BATTERY_PCT and only while draining;
    overheat strictly above OVERHEAT_DC; the voltage bounds are inclusive.
    Total and deterministic: no input raises.
    """
    warnings = []
    if sample.level_pct < LOW_BATTERY_PCT and sample.status in _DRAINING:
        warnings.append(
            BatteryWarning(
                kind=WarningKind.LOW_BATTERY,
                message=(
                    f"battery at {sample.level_pct}% "
                    f"(below {LOW_BATTERY_PCT}%), connect the charger"
                ),
                threshold=LOW_BATTERY_PCT,
            )
        )
    if sample.temp_dc > OVERHEAT_DC:
        warnings.append(
            BatteryWarning(
                kind=WarningKind.OVERHEAT,
                message=(
                    f"battery temperature {_tenths(sample.temp_dc)} °C "
                    f"exceeds {_tenths(OVERHEAT_DC)} °C"
                ),
                threshold=OVERHEAT_DC,
            )
        )
    if sample.health not in _HEALTHY:
        warnings.append(
            BatteryWarning(
                kind=WarningKind.UNHEALTHY_BATTERY,
                message=f"battery health is {sample.health.label}",
                threshold=None,
            )
        )
    if not VOLTAGE_MIN_MV <= sample.voltage_mv <= VOLTAGE_MAX_MV:
        crossed = VOLTAGE_MIN_MV if sample.voltage_mv < VOLTAGE_MIN_MV else VOLTAGE_MAX_MV
        warnings.append(
            BatteryWarning(
                kind=WarningKind.VOLTAGE_OUT_OF_RANGE,
                message=(
                    f"battery voltage {sample.voltage_mv} mV outside "
                    f"[{VOLTAGE_MIN_MV}, {VOLTAGE_MAX_MV}] mV"
                ),
                threshold=crossed,
            )
        )
    return warnings


def _tenths(value: int) -> str:
    """An integer count of tenths as a decimal with one digit after the
    point, -5 as -0.5; exact for any int, where a float would overflow."""
    whole, tenth = divmod(abs(value), 10)
    return f"{'-' if value < 0 else ''}{whole}.{tenth}"


def describe(sample: BatterySample) -> str:
    """Format the full battery report, one line per sample field."""
    when = datetime.fromtimestamp(sample.ts_ms / 1000, tz=timezone.utc)
    charge = "n/a" if sample.charge_uah is None else f"{sample.charge_uah} µAh"
    lines = [
        f"time: {when.isoformat(timespec='seconds')}",
        f"level: {sample.level_pct}%",
        f"voltage: {sample.voltage_mv} mV",
        f"temperature: {_tenths(sample.temp_dc)} °C",
        f"charge: {charge}",
        f"status: {sample.status.label}",
        f"health: {sample.health.label}",
    ]
    return "\n".join(lines)
