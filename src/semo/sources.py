"""Providers of battery readings and running-application lists.

The primary source is a directory of plain-text files laid out like the
Linux power-supply class (one value per file, units below), which keeps
fixtures bit-exact and the core platform-neutral.  A replay source feeds
previously recorded log records back through the same interface.

Source directory layout (single line each, trailing newline optional):

    capacity      integer percent, 0..100
    voltage_now   integer microvolts
    temp          integer tenths of a degree Celsius
    charge_now    integer microampere-hours (optional file)
    status        "Charging" | "Discharging" | "Full" | "Not charging" | other
    health        "Good" | "Overheat" | "Dead" | "Over voltage" | "Cold" | other
    running_apps  one application name per line

Status and health match a member's label ("not charging"), ignoring case;
unrecognized strings map to the Unknown variants rather than erroring,
so unlisted vendor strings stay readable.

FileTreeSource reads each field file whole with os.open, os.read and
os.close, opening it anew on every read (a file replaced by rename is
read from its new inode, which a kept descriptor would miss), and
decodes the bytes as strict UTF-8.  The module functions
read_battery_sample and read_running_apps go through it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

from .clock import SystemClock
from .errors import MalformedField, MissingField, ReplayExhausted

SOURCE_ROOT_ENV = "SEMO_SOURCE_ROOT"
DEFAULT_SOURCE_ROOT = Path("/sys/class/power_supply/BAT0")

# Sorted, deduplicated tuple of non-empty application names.
AppSet = tuple[str, ...]


def _spaced_lower(wire: str) -> str:
    out = []
    for i, ch in enumerate(wire):
        if ch.isupper() and i > 0:
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)


class BatteryStatus(Enum):
    CHARGING = "Charging"
    DISCHARGING = "Discharging"
    FULL = "Full"
    NOT_CHARGING = "NotCharging"
    UNKNOWN = "Unknown"

    @classmethod
    def from_source(cls, text: str) -> "BatteryStatus":
        return _STATUS_BY_SOURCE.get(text.strip().lower(), cls.UNKNOWN)

    @property
    def label(self) -> str:
        """Lower-case human form, e.g. NOT_CHARGING -> 'not charging'."""
        return _spaced_lower(self.value)


_STATUS_BY_SOURCE = {status.label: status for status in BatteryStatus}


class BatteryHealth(Enum):
    GOOD = "Good"
    OVERHEAT = "Overheat"
    DEAD = "Dead"
    OVER_VOLTAGE = "OverVoltage"
    COLD = "Cold"
    UNKNOWN = "Unknown"

    @classmethod
    def from_source(cls, text: str) -> "BatteryHealth":
        return _HEALTH_BY_SOURCE.get(text.strip().lower(), cls.UNKNOWN)

    @property
    def label(self) -> str:
        return _spaced_lower(self.value)


_HEALTH_BY_SOURCE = {health.label: health for health in BatteryHealth}


@dataclass(frozen=True, slots=True)
class BatterySample:
    """One instantaneous battery reading.

    ts_ms is milliseconds since the Unix epoch, voltage is millivolts,
    temperature is tenths of a degree Celsius, charge (when the coulomb
    counter exists) is microampere-hours remaining.
    """

    ts_ms: int
    level_pct: int
    voltage_mv: int
    temp_dc: int
    charge_uah: int | None
    status: BatteryStatus
    health: BatteryHealth

    def __post_init__(self):
        if not 0 <= self.level_pct <= 100:
            raise ValueError(f"level_pct out of range 0..100: {self.level_pct}")
        if self.voltage_mv <= 0 and self.status is not BatteryStatus.UNKNOWN:
            raise ValueError(f"voltage_mv must be positive: {self.voltage_mv}")
        if self.charge_uah is not None and self.charge_uah < 0:
            raise ValueError(f"charge_uah must be non-negative: {self.charge_uah}")


def make_app_set(names: Iterable[str]) -> AppSet:
    """Normalize names into an AppSet: strip, drop empties, dedupe, sort."""
    return tuple(sorted({name.strip() for name in names} - {""}))


def resolve_source_root(source_root: str | Path | None = None) -> Path:
    """Explicit argument wins, then $SEMO_SOURCE_ROOT, then the OS default."""
    if source_root is not None:
        return Path(source_root)
    env = os.environ.get(SOURCE_ROOT_ENV)
    if env:
        return Path(env)
    return DEFAULT_SOURCE_ROOT


FIELD_NAMES = ("capacity", "voltage_now", "temp", "charge_now", "status", "health", "running_apps")

# Python descriptors are already non-inheritable; O_BINARY exists on Windows only.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_BYTES = 1 << 16


class FileTreeSource:
    """Battery and app-list provider backed by a source directory.

    The field paths are built once.  Reading bytes skips the newline
    translation of text mode, which turned "\r\n" and a lone "\r" into
    "\n"; nothing downstream tells them apart: strip() removes either at
    the ends of a value, int() and the enum lookups reject either inside
    one, and str.splitlines() splits the app listing at each.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = resolve_source_root(root)
        self._paths = {name: str(self.root / name) for name in FIELD_NAMES}

    def _read_field(self, name: str) -> str:
        """A field file's stripped text.

        A missing file raises MissingField; any other read error (EIO from
        a detached battery, a directory in the file's place, undecodable
        bytes) raises MalformedField with its text.
        """
        path = self._paths[name]
        try:
            fd = os.open(path, _OPEN_FLAGS)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_BYTES):
                    chunks.append(chunk)
            finally:
                os.close(fd)
            return b"".join(chunks).decode("utf-8").strip()
        except FileNotFoundError:
            raise MissingField(name, path) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedField(name, str(exc)) from None

    def _read_int_field(self, name: str) -> int:
        text = self._read_field(name)
        try:
            return int(text)
        except ValueError:
            raise MalformedField(name, f"not an integer: {text!r}") from None

    def read_battery_sample(self, clock=None) -> BatterySample:
        """Read one battery sample from the source directory.

        The timestamp comes from the clock, everything else from the
        files.  Raises MissingField when a mandatory file is absent
        (charge_now is optional) and MalformedField when a file cannot be
        read, a value does not parse or the assembled sample breaks an
        invariant.
        """
        now_ms = (clock if clock is not None else SystemClock()).now_ms()

        level = self._read_int_field("capacity")
        if not 0 <= level <= 100:
            raise MalformedField("capacity", f"percent out of range 0..100: {level}")
        voltage_uv = self._read_int_field("voltage_now")
        temp_dc = self._read_int_field("temp")
        status = BatteryStatus.from_source(self._read_field("status"))
        health = BatteryHealth.from_source(self._read_field("health"))
        try:
            charge_uah = self._read_int_field("charge_now")
        except MissingField:
            charge_uah = None

        try:
            return BatterySample(
                ts_ms=now_ms,
                level_pct=level,
                voltage_mv=voltage_uv // 1000,
                temp_dc=temp_dc,
                charge_uah=charge_uah,
                status=status,
                health=health,
            )
        except ValueError as exc:
            raise MalformedField("sample", str(exc)) from None

    def read_running_apps(self) -> AppSet:
        """Read the running-application listing (one name per line)."""
        return make_app_set(self._read_field("running_apps").splitlines())


def read_battery_sample(source_root: str | Path | None = None, clock=None) -> BatterySample:
    """One battery sample from a source directory; see FileTreeSource.read_battery_sample."""
    return FileTreeSource(source_root).read_battery_sample(clock)


def read_running_apps(source_root: str | Path | None = None) -> AppSet:
    """The running-application listing of a source directory (one name per line)."""
    return FileTreeSource(source_root).read_running_apps()


class ReplaySource:
    """Feeds an existing log back through the source interface, in order.

    Each read_battery_sample() call advances to the next record; the
    matching read_running_apps() returns that record's app set, so one
    sampling tick consumes exactly one record.  Timestamps are re-stamped
    from the clock to honor the source contract.
    """

    def __init__(self, records):
        self._records = list(records)
        self._pos = -1

    def read_battery_sample(self, clock=None) -> BatterySample:
        if self._pos + 1 >= len(self._records):
            raise ReplayExhausted(f"replay log exhausted after {len(self._records)} records")
        self._pos += 1
        sample = self._records[self._pos].sample
        if clock is not None:
            sample = replace(sample, ts_ms=clock.now_ms())
        return sample

    def read_running_apps(self) -> AppSet:
        if self._pos < 0:
            raise ReplayExhausted("read_battery_sample must be called first")
        return self._records[self._pos].apps
