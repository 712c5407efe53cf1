"""Providers of battery readings and running-application lists.

The primary source is a directory of plain-text files laid out like the
Linux power-supply class (one value per file, units below), which keeps
fixtures bit-exact and the core platform-neutral.

Source directory layout (single line each, trailing newline optional):

    capacity      integer percent, 0..100
    voltage_now   integer microvolts
    temp          integer tenths of a degree Celsius
    charge_now    integer microampere-hours (optional file)
    status        "Charging" | "Discharging" | "Full" | "Not charging" | other
    health        "Good" | "Overheat" | "Dead" | "Over voltage" | "Cold" |
                  "Unspecified failure" | "Hot" | "Warm" | "Cool" |
                  "Over current" | "Watchdog timer expire" |
                  "Safety timer expire" | "Calibration required" |
                  "No battery" | other
    running_apps  one application name per line

Status and health match a member's label ("not charging"), ignoring case;
unrecognized strings map to the Unknown variants rather than erroring,
so unlisted vendor strings stay readable.

FileTreeSource reads each field file whole with os.open, os.read and
os.close, opening it anew on every read (a file replaced by rename is
read from its new inode, which a kept descriptor would miss), and
decodes the bytes as strict UTF-8.  It keeps the last app listing's text
and its AppSet, and parses the listing again only when its text changed.

AppSet owns the app-name rule: it refuses names that break it when
built, so its holders trust it.  make_app_set normalizes raw names into
one, and AppSet.subset takes one from another without a check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from pathlib import Path
from typing import Iterable

from .clock import SystemClock
from .errors import MalformedField, MissingField

SOURCE_ROOT_ENV = "SEMO_SOURCE_ROOT"
DEFAULT_SOURCE_ROOT = Path("/sys/class/power_supply/BAT0")


class AppSet(tuple):
    """The apps running at one tick: a tuple of names that checks itself when built.

    Names are strings, non-empty, without surrounding whitespace, sorted,
    unique and valid UTF-8 text (a JSON escape can spell a lone surrogate
    that no log line can hold); anything else raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str] = ()) -> "AppSet":
        apps = super().__new__(cls, names)
        prev = ""  # below every non-empty name
        for app in apps:
            if type(app) is not str or not (name := app.strip()):
                raise ValueError("app names must be non-empty strings")
            if app != name:
                raise ValueError(f"app name {app!r} has surrounding whitespace")
            if app <= prev:
                raise ValueError("apps must be sorted and unique")
            prev = app
        try:
            "".join(apps).encode()
        except UnicodeEncodeError:
            raise ValueError("app names must be valid UTF-8 text") from None
        return apps

    def subset(self, keep: Iterable[bool]) -> "AppSet":
        """The names whose flag in keep is true, in order, as an AppSet.

        No name is checked again: names taken in order from a checked,
        sorted and unique AppSet are themselves checked, sorted and unique.
        """
        return tuple.__new__(AppSet, compress(self, keep))


class _SourceEnum(Enum):
    """A battery field read from text: status and health.

    A member's value is its log spelling ("NotCharging"); its label is
    the lower-case spaced form ("not charging").  Each subclass gets one
    label -> member table, _by_label, set after its members exist, so
    from_source is a single dict lookup.
    """

    @classmethod
    def from_source(cls, text: str) -> "_SourceEnum":
        # Members are truthy; UNKNOWN is looked up only on a miss.
        return cls._by_label.get(text.strip().lower()) or cls.UNKNOWN

    @property
    def label(self) -> str:
        """Lower-case human form, e.g. NOT_CHARGING -> 'not charging'."""
        return "".join(f" {c.lower()}" if c.isupper() and i else c.lower() for i, c in enumerate(self.value))


class BatteryStatus(_SourceEnum):
    CHARGING = "Charging"
    DISCHARGING = "Discharging"
    FULL = "Full"
    NOT_CHARGING = "NotCharging"
    UNKNOWN = "Unknown"


class BatteryHealth(_SourceEnum):
    GOOD = "Good"
    OVERHEAT = "Overheat"
    DEAD = "Dead"
    OVER_VOLTAGE = "OverVoltage"
    COLD = "Cold"
    UNSPECIFIED_FAILURE = "UnspecifiedFailure"
    UNKNOWN = "Unknown"


BatteryStatus._by_label = {status.label: status for status in BatteryStatus}
# The JEITA temperature states, mapped as Android's healthd maps them (BatteryMonitor
# getBatteryHealth), and the other Linux power-supply faults, which BatteryHealth has no
# word for: each one is a failure that `semo inspect` warns on.
BatteryHealth._by_label = {health.label: health for health in BatteryHealth} | {
    "hot": BatteryHealth.OVERHEAT,
    "warm": BatteryHealth.GOOD,
    "cool": BatteryHealth.GOOD,
    "over current": BatteryHealth.UNSPECIFIED_FAILURE,
    "watchdog timer expire": BatteryHealth.UNSPECIFIED_FAILURE,
    "safety timer expire": BatteryHealth.UNSPECIFIED_FAILURE,
    "calibration required": BatteryHealth.UNSPECIFIED_FAILURE,
    "no battery": BatteryHealth.UNSPECIFIED_FAILURE,
}


@dataclass(frozen=True, slots=True)
class BatterySample:
    """One instantaneous battery reading.

    ts_ms is milliseconds since the Unix epoch, voltage is millivolts,
    temperature is tenths of a degree Celsius, charge (when the coulomb
    counter exists) is microampere-hours remaining.

    A sample holds only what the log can hold: the integer fields are
    exactly int (a float, a bool or a numpy integer is refused; charge
    may be None), status and health are members of their enums, and the
    values are in range.  Anything else raises ValueError.
    """

    ts_ms: int
    level_pct: int
    voltage_mv: int
    temp_dc: int
    charge_uah: int | None
    status: BatteryStatus
    health: BatteryHealth

    def __post_init__(self):
        ts, level, voltage, temp, charge = self.ts_ms, self.level_pct, self.voltage_mv, self.temp_dc, self.charge_uah
        if not (type(ts) is type(level) is type(voltage) is type(temp) is int) or (
            charge is not None and type(charge) is not int
        ):
            fields = {"ts_ms": ts, "level_pct": level, "voltage_mv": voltage, "temp_dc": temp, "charge_uah": charge}
            key = next(k for k, v in fields.items() if type(v) is not int and not (k == "charge_uah" and v is None))
            raise ValueError(f"field {key} must be an integer, got {fields[key]!r}")
        if type(self.status) is not BatteryStatus or type(self.health) is not BatteryHealth:
            raise ValueError(f"unknown status/health: {self.status!r}/{self.health!r}")
        if not 0 <= level <= 100:
            raise ValueError(f"level_pct out of range 0..100: {level}")
        if voltage <= 0 and self.status is not BatteryStatus.UNKNOWN:
            raise ValueError(f"voltage_mv must be positive: {voltage}")
        if charge is not None and charge < 0:
            raise ValueError(f"charge_uah must be non-negative: {charge}")


def make_app_set(names: Iterable[str]) -> AppSet:
    """Normalize names into an AppSet: strip, drop empties, dedupe, sort.

    A bare string, which would iterate as its letters, and a name that is
    not a string raise ValueError.
    """
    if isinstance(names, str):
        raise ValueError(f"app names must be an iterable of strings, got {names!r}")
    try:
        stripped = {str.strip(name) for name in names}
    except TypeError:  # a name that is not a string, or names that do not iterate
        raise ValueError(f"app names must be an iterable of strings, got {names!r}") from None
    return AppSet(sorted(stripped - {""}))


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

    Every read opens its file anew, but the app listing is parsed only
    when its text differs from the last listing read: while the text
    stays the same, read_running_apps gives the same AppSet object.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = resolve_source_root(root)
        self._paths = {name: str(self.root / name) for name in FIELD_NAMES}
        # The last app listing read and its AppSet, set as one pair.
        self._listing: tuple[str | None, AppSet] = (None, AppSet())

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
        """Read the running-application listing (one name per line).

        The file is read on every call; its AppSet is built again only
        when the text changed since the last call.
        """
        text = self._read_field("running_apps")
        listing = self._listing
        if text != listing[0]:
            self._listing = listing = text, make_app_set(text.splitlines())
        return listing[1]
