"""Periodic sampling into an append-only JSONL log, plus log access.

One record per line, field names and order exactly:

    {"ts_ms":<int>,"level_pct":<int>,"voltage_mv":<int>,"temp_dc":<int>,
     "charge_uah":<int|null>,"status":"<enum>","health":"<enum>","apps":[...]}

Loading is strict: any malformed line aborts with its line number, since
silently dropping rows would corrupt downstream attribution.  A line in
the exact form record_to_json writes is read with one regular expression
instead of json.loads.  That path is exact, not a looser second parser:
the pattern admits only the written bytes (fixed keys in fixed order, no
whitespace, integers in JSON's own grammar spelled with ASCII digits),
and anything it leaves open (an unknown status or health, an apps list
that fails the apps check, a sample out of range) sends the line to
record_from_json, as does every line that does not match.  So each line
yields the record, or raises the error, that record_from_json gives it.
The apps list is decoded once per distinct text in a load, and records
with the same text share one tuple.  A record
counts only once its newline is written, so an unterminated final line,
left by a write that power loss cut short, is ignored with a warning.
Timestamps must increase strictly record-to-record.  The writer holds an
advisory exclusive lock so at most one recorder owns a log at a time;
readers are unrestricted.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX: single-writer discipline is on the caller
    fcntl = None

from .clock import SystemClock
from .errors import (
    LogLocked,
    LogParseError,
    MalformedField,
    MissingField,
    NonMonotonicTimestamp,
)
from .sources import AppSet, BatteryHealth, BatterySample, BatteryStatus

log = logging.getLogger(__name__)

LOG_FIELDS = ("ts_ms", "level_pct", "voltage_mv", "temp_dc", "charge_uah", "status", "health", "apps")

_FIELD_SET = frozenset(LOG_FIELDS)
_STATUS_BY_WIRE = {status.value: status for status in BatteryStatus}
_HEALTH_BY_WIRE = {health.value: health for health in BatteryHealth}

# The exact bytes record_to_json writes, newline included.  [0-9], never
# \d: \d would also match non-ASCII digits, which JSON rejects.
_INT = r"-?(?:0|[1-9][0-9]*)"
_CANONICAL_LINE = re.compile(
    rf'\{{"ts_ms":({_INT}),"level_pct":({_INT}),"voltage_mv":({_INT}),"temp_dc":({_INT}),'
    rf'"charge_uah":(null|{_INT}),"status":"([A-Za-z]*)","health":"([A-Za-z]*)",'
    r'"apps":(\[.*\])\}\n'
)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One recorder row: a battery sample plus the apps running at that tick."""

    sample: BatterySample
    apps: AppSet


@dataclass(frozen=True)
class RecorderConfig:
    out_path: Path
    interval_s: int = 60

    def __post_init__(self):
        if self.interval_s < 1:
            raise ValueError(f"interval_s must be >= 1: {self.interval_s}")


def record_to_json(record: LogRecord) -> str:
    s = record.sample
    payload = {
        "ts_ms": s.ts_ms,
        "level_pct": s.level_pct,
        "voltage_mv": s.voltage_mv,
        "temp_dc": s.temp_dc,
        "charge_uah": s.charge_uah,
        "status": s.status.value,
        "health": s.health.value,
        "apps": list(record.apps),
    }
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


def _require_int(payload: dict, key: str, lineno: int) -> int:
    value = payload[key]
    if type(value) is not int:  # bools are ints; reject them too
        raise LogParseError(lineno, f"field {key} must be an integer, got {value!r}")
    return value


def _apps_error(apps) -> str | None:
    """Why a decoded apps field is not an AppSet, or None when it is one."""
    if type(apps) is not list:
        return "field apps must be a list of strings"
    prev = None
    for app in apps:
        if type(app) is not str or not app.strip():
            return "app names must be non-empty strings"
        if app != app.strip():
            return f"app name {app!r} has surrounding whitespace"
        if prev is not None and app <= prev:
            return "apps must be sorted and unique"
        prev = app
    return None


def record_from_json(line: str, lineno: int = 1) -> LogRecord:
    """Strictly parse one log line; raises LogParseError on any defect."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise LogParseError(lineno, "record must be a JSON object")
    if payload.keys() != _FIELD_SET:
        missing = _FIELD_SET - payload.keys()
        extra = payload.keys() - _FIELD_SET
        raise LogParseError(lineno, f"bad field set (missing {sorted(missing)}, extra {sorted(extra)})")

    charge = payload["charge_uah"]
    if charge is not None and type(charge) is not int:
        raise LogParseError(lineno, f"field charge_uah must be an integer or null, got {charge!r}")
    status = _STATUS_BY_WIRE.get(payload["status"])
    health = _HEALTH_BY_WIRE.get(payload["health"])
    if status is None or health is None:
        raise LogParseError(lineno, f"unknown status/health: {payload['status']!r}/{payload['health']!r}")

    apps = payload["apps"]
    error = _apps_error(apps)
    if error is not None:
        raise LogParseError(lineno, error)

    try:
        sample = BatterySample(
            ts_ms=_require_int(payload, "ts_ms", lineno),
            level_pct=_require_int(payload, "level_pct", lineno),
            voltage_mv=_require_int(payload, "voltage_mv", lineno),
            temp_dc=_require_int(payload, "temp_dc", lineno),
            charge_uah=charge,
            status=status,
            health=health,
        )
    except ValueError as exc:
        raise LogParseError(lineno, str(exc)) from None
    return LogRecord(sample=sample, apps=tuple(apps))


def _read_written_form(line: str, app_sets: dict[str, AppSet]) -> LogRecord | None:
    """The record of a line in the exact form record_to_json writes.

    None means the line needs record_from_json, which accepts it or
    raises.  app_sets maps each apps text already seen in this load to
    its validated tuple, so repeated lists are decoded once and shared.
    """
    m = _CANONICAL_LINE.fullmatch(line)
    if m is None:
        return None
    ts, level, voltage, temp, charge, status, health, apps_text = m.groups()
    status = _STATUS_BY_WIRE.get(status)
    health = _HEALTH_BY_WIRE.get(health)
    if status is None or health is None:
        return None
    apps = app_sets.get(apps_text)
    if apps is None:
        try:
            decoded = json.loads(apps_text)
        except ValueError:
            return None
        if _apps_error(decoded) is not None:
            return None
        apps = app_sets[apps_text] = tuple(decoded)
    try:
        sample = BatterySample(
            ts_ms=int(ts),
            level_pct=int(level),
            voltage_mv=int(voltage),
            temp_dc=int(temp),
            charge_uah=None if charge == "null" else int(charge),
            status=status,
            health=health,
        )
    except ValueError:
        return None
    return LogRecord(sample=sample, apps=apps)


def _iter_log(fh):
    """Yield validated records from a log opened in binary mode.

    Enforces ts monotonicity.  A record is committed once its newline is
    on disk: an unterminated final line, a write cut short by power loss,
    is skipped with a warning.  The file is left positioned just past the
    last committed line, where LogWriter cuts it off.
    """
    last_ts = None
    app_sets: dict[str, AppSet] = {}
    for lineno, raw in enumerate(fh, start=1):
        if not raw.endswith(b"\n"):
            log.warning("ignoring unterminated final line %d of the log (%d bytes)", lineno, len(raw))
            fh.seek(-len(raw), os.SEEK_CUR)
            return
        try:
            line = raw.decode()
        except UnicodeDecodeError:
            raise LogParseError(lineno, "invalid UTF-8") from None
        record = _read_written_form(line, app_sets)
        if record is None:
            record = record_from_json(line, lineno)
        ts = record.sample.ts_ms
        if last_ts is not None and ts <= last_ts:
            raise LogParseError(lineno, f"timestamp {ts} not above previous {last_ts}")
        last_ts = ts
        yield record


def load_log(path: str | Path) -> list[LogRecord]:
    """Load and validate a whole log; empty file yields an empty list."""
    with open(path, "rb") as fh:
        return list(_iter_log(fh))


def write_log(path: str | Path, records) -> None:
    """Write records as a fresh log file (no locking; not for live recording)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record_to_json(record) + "\n")


class LogWriter:
    """Append-only writer owning the log through an advisory exclusive lock.

    Opening validates any existing content (strict parse, streaming) and
    resumes after its last timestamp.  An unterminated final line is cut
    off before the first append.  Keeps O(1) state regardless of log
    length.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "a+b")
        if fcntl is not None:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._fh.close()
                raise LogLocked(f"{self.path} is owned by another recorder") from None
        try:
            self._fh.seek(0)
            self._last_ts = None
            for record in _iter_log(self._fh):
                self._last_ts = record.sample.ts_ms
            committed = self._fh.tell()
            self._torn_at = committed if self._fh.seek(0, os.SEEK_END) > committed else None
        except Exception:
            self._fh.close()
            raise

    @property
    def last_ts_ms(self) -> int | None:
        return self._last_ts

    def append(self, record: LogRecord) -> None:
        ts = record.sample.ts_ms
        if self._last_ts is not None and ts <= self._last_ts:
            raise NonMonotonicTimestamp(f"ts {ts} not above last written {self._last_ts}")
        if self._torn_at is not None:
            self._fh.truncate(self._torn_at)
            self._torn_at = None
        self._fh.write((record_to_json(record) + "\n").encode("utf-8"))
        self._fh.flush()
        self._last_ts = ts

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sample_once(source, clock=None) -> LogRecord:
    """Combine a battery reading and the app listing at the same tick."""
    sample = source.read_battery_sample(clock)
    apps = source.read_running_apps()
    return LogRecord(sample=sample, apps=apps)


def curve_series(records, tail: int | None = None) -> list[tuple[int, int]]:
    """Project records to (ts_ms, level_pct) pairs.

    tail=None returns the full history; tail=n returns the last n pairs
    (the real-time view).
    """
    series = [(r.sample.ts_ms, r.sample.level_pct) for r in records]
    if tail is None:
        return series
    if tail < 0:
        raise ValueError(f"tail must be non-negative: {tail}")
    return series[-tail:] if tail else []


def run_loop(config: RecorderConfig, source, clock=None, stop: threading.Event | None = None) -> int:
    """Sample and append once per interval until the stop signal is set.

    The first sample is taken immediately.  A tick whose source read or
    append fails is logged to diagnostics and skipped; the loop carries
    on.  I/O failures on the log itself propagate (the caller exits
    nonzero).  Returns the number of records written.
    """
    clock = clock if clock is not None else SystemClock()
    stop = stop if stop is not None else threading.Event()
    written = 0
    with LogWriter(config.out_path) as writer:
        while not stop.is_set():
            try:
                writer.append(sample_once(source, clock))
                written += 1
            except (MissingField, MalformedField, NonMonotonicTimestamp) as exc:
                log.warning("sampling tick skipped: %s", exc)
            clock.sleep(config.interval_s)
    return written
