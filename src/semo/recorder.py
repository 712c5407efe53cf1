"""Periodic sampling into an append-only JSONL log, plus log access.

One record per line, field names and order exactly:

    {"ts_ms":<int>,"level_pct":<int>,"voltage_mv":<int>,"temp_dc":<int>,
     "charge_uah":<int|null>,"status":"<enum>","health":"<enum>","apps":[...]}

Loading is strict: any malformed line aborts with its line number, since
silently dropping rows would corrupt downstream attribution.  The log is
read in blocks of about BLOCK_BYTES, each cut after its last newline,
and each block becomes numpy columns (LogColumns) without a record or a
JSON parse per line.  One regular expression finds the lines in the
exact form record_to_json writes: fixed keys in fixed order, no
whitespace, integers in JSON's own grammar spelled with ASCII digits and
at most 18 of them, so that every value fits in int64 and so does the
difference of any two.  Whole columns are then checked with numpy
against the rules record_from_json applies (the BatterySample ranges,
known status and health), each distinct apps text is decoded and checked
once, and the timestamps must increase strictly, across blocks too.  A
block holding a line the pattern leaves out (other spacing or key order,
escapes, longer integers) or a line that fails a check is read again
line by line by record_from_json, so each line yields the record, or
raises the error, that record_from_json gives it: that function stays
the one validator.  A record counts only once its newline is written, so an unterminated final line, left by a write that
power loss cut short, is ignored with a warning.  The writer holds an
advisory exclusive lock so at most one recorder owns a log at a time;
readers are unrestricted.

record_to_json, the one serializer, formats the line directly.  It
raises UnwritableRecord (a ValueError) for a record whose line the
reader would reject (an integer field that is not exactly an int, apps
that _apps_error refuses); _checked_line, the one step of both
LogWriter.append and write_log, then raises NonMonotonicTimestamp for a
timestamp not above the last one written.  So neither writer leaves a
log that load_log or the next LogWriter refuses; run_loop skips such a
tick.  LogColumns.from_records refuses records out of order with the
reader's own test, so this module alone decides what a valid log is.
"""

from __future__ import annotations

import collections
import io
import json
import logging
import os
import re
import threading
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string  # what json.dumps(ensure_ascii=False) writes for a str
from pathlib import Path

import numpy as np

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
    UnwritableRecord,
)
from .sources import AppSet, BatteryHealth, BatterySample, BatteryStatus

log = logging.getLogger(__name__)

LOG_FIELDS = ("ts_ms", "level_pct", "voltage_mv", "temp_dc", "charge_uah", "status", "health", "apps")

# Bytes read from the log at a time; a block then ends after its last newline.
BLOCK_BYTES = 1 << 20

_FIELD_SET = frozenset(LOG_FIELDS)

# Column codes of status and health, indices into these tuples, by log spelling.
STATUSES = tuple(BatteryStatus)
HEALTHS = tuple(BatteryHealth)
_STATUS_CODE_BY_WIRE = {status.value: code for code, status in enumerate(STATUSES)}
_HEALTH_CODE_BY_WIRE = {health.value: code for code, health in enumerate(HEALTHS)}
_UNKNOWN_STATUS = STATUSES.index(BatteryStatus.UNKNOWN)

# Each line in the exact bytes record_to_json writes, newline included.
# [0-9], never \d: \d would also match non-ASCII digits, which JSON
# rejects.  At most 18 digits: every such value and every difference of
# two fit in int64; longer integers go to record_from_json.
_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
_CANONICAL_LINE = re.compile(
    rb'^\{"ts_ms":(' + _INT + rb'),"level_pct":(' + _INT + rb'),"voltage_mv":(' + _INT + rb'),'
    rb'"temp_dc":(' + _INT + rb'),"charge_uah":(null|' + _INT + rb'),"status":"([A-Za-z]*)",'
    rb'"health":"([A-Za-z]*)","apps":(\[.*\])\}\n',
    re.M,
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


def sample_dict(sample: BatterySample) -> dict:
    """The log fields of a sample, all but apps, in log order."""
    return {
        "ts_ms": sample.ts_ms,
        "level_pct": sample.level_pct,
        "voltage_mv": sample.voltage_mv,
        "temp_dc": sample.temp_dc,
        "charge_uah": sample.charge_uah,
        "status": sample.status.value,
        "health": sample.health.value,
    }


def record_to_json(record: LogRecord) -> str:
    """The log line of a record, without its newline.

    Raises UnwritableRecord, a ValueError, for a record whose line the
    reader would reject: an integer field that is not exactly an int (a
    float, a bool), a status or health that is not a member of its enum,
    or apps that are not a tuple of sorted, unique, non-empty names
    without surrounding whitespace.
    """
    s = record.sample
    ts, level, voltage, temp, charge = s.ts_ms, s.level_pct, s.voltage_mv, s.temp_dc, s.charge_uah
    if not (type(ts) is type(level) is type(voltage) is type(temp) is int) or (
        charge is not None and type(charge) is not int
    ):
        fields = {"ts_ms": ts, "level_pct": level, "voltage_mv": voltage, "temp_dc": temp, "charge_uah": charge}
        key = next(k for k, v in fields.items() if type(v) is not int and not (k == "charge_uah" and v is None))
        raise UnwritableRecord(f"field {key} must be an integer, got {fields[key]!r}")
    if type(s.status) is not BatteryStatus or type(s.health) is not BatteryHealth:
        raise UnwritableRecord(f"unknown status/health: {s.status!r}/{s.health!r}")
    if type(record.apps) is not tuple:
        raise UnwritableRecord(f"apps must be a tuple of strings, got {record.apps!r}")
    error = _apps_error(list(record.apps))
    if error is not None:
        raise UnwritableRecord(error)
    apps = ",".join(map(_json_string, record.apps))
    return (
        f'{{"ts_ms":{ts},"level_pct":{level},"voltage_mv":{voltage},"temp_dc":{temp},'
        f'"charge_uah":{"null" if charge is None else charge},"status":"{s.status.value}",'
        f'"health":"{s.health.value}","apps":[{apps}]}}'
    )


def _code(code_by_wire: dict[str, int], word) -> int:
    """Code of a status or health spelling, -1 where it is unknown or not a string."""
    return code_by_wire.get(word, -1) if type(word) is str else -1


def _require_int(payload: dict, key: str, lineno: int) -> int:
    value = payload[key]
    if type(value) is not int:  # bools are ints; reject them too
        raise LogParseError(lineno, f"field {key} must be an integer, got {value!r}")
    return value


def _apps_error(apps) -> str | None:
    """Why a decoded apps field is not an AppSet, or None when it is one."""
    if type(apps) is not list:
        return "field apps must be a list of strings"
    prev = ""  # below every non-empty name
    for app in apps:
        if type(app) is not str or not (name := app.strip()):
            return "app names must be non-empty strings"
        if app != name:
            return f"app name {app!r} has surrounding whitespace"
        if app <= prev:
            return "apps must be sorted and unique"
        prev = app
    return None


def record_from_json(line: str, lineno: int = 1) -> LogRecord:
    """Strictly parse one log line; raises LogParseError on any defect."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogParseError(lineno, f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer over Python's digit limit; nesting too deep
        raise LogParseError(lineno, f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise LogParseError(lineno, "record must be a JSON object")
    if payload.keys() != _FIELD_SET:
        missing = _FIELD_SET - payload.keys()
        extra = payload.keys() - _FIELD_SET
        raise LogParseError(lineno, f"bad field set (missing {sorted(missing)}, extra {sorted(extra)})")

    charge = payload["charge_uah"]
    if charge is not None and type(charge) is not int:
        raise LogParseError(lineno, f"field charge_uah must be an integer or null, got {charge!r}")
    status = _code(_STATUS_CODE_BY_WIRE, payload["status"])
    health = _code(_HEALTH_CODE_BY_WIRE, payload["health"])
    if status < 0 or health < 0:
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
            status=STATUSES[status],
            health=HEALTHS[health],
        )
    except ValueError as exc:
        raise LogParseError(lineno, str(exc)) from None
    return LogRecord(sample=sample, apps=tuple(apps))


def _int_column(values) -> np.ndarray:
    """Python ints as an int64 column, or as an object column when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


_COLUMNS = ("ts", "level", "voltage", "temp", "charge", "charge_null", "status", "health", "apps")


@dataclass(frozen=True)
class LogColumns:
    """A log as numpy columns: row i holds record i, in log order.

    ts, level, voltage, temp and charge are int64, or object columns of
    Python ints when a value does not fit in int64; charge holds 0 where
    charge_null is set.  status and health hold codes, indices into
    STATUSES and HEALTHS.  apps holds ids, indices into app_sets, which
    lists each distinct app list once, so equal lists have equal ids.
    """

    ts: np.ndarray
    level: np.ndarray
    voltage: np.ndarray
    temp: np.ndarray
    charge: np.ndarray
    charge_null: np.ndarray
    status: np.ndarray
    health: np.ndarray
    apps: np.ndarray
    app_sets: list[AppSet]

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_records(cls, records) -> "LogColumns":
        """The columns of LogRecords, in their order; ValueError unless ts increase strictly."""
        columns = _columns_of_records(list(records), _AppTable())
        row = _first_not_increasing(columns.ts, None)
        if row is not None:
            ts, prev = int(columns.ts[row]), int(columns.ts[row - 1])
            raise ValueError(f"records must be sorted with strictly increasing ts_ms ({ts} after {prev})")
        return columns

    def records(self) -> list[LogRecord]:
        """The LogRecords of the rows; equal app lists share one tuple."""
        charge = self.charge.astype(object)
        charge[self.charge_null] = None
        samples = map(
            BatterySample,
            self.ts.tolist(),
            self.level.tolist(),
            self.voltage.tolist(),
            self.temp.tolist(),
            charge.tolist(),
            map(STATUSES.__getitem__, self.status.tolist()),
            map(HEALTHS.__getitem__, self.health.tolist()),
        )
        return list(map(LogRecord, samples, map(self.app_sets.__getitem__, self.apps.tolist())))

    def curve(self, tail: int | None = None) -> list[tuple[int, int]]:
        """(ts_ms, level_pct) pairs, as curve_series gives them for the records."""
        return list(zip(_tail(self.ts, tail).tolist(), _tail(self.level, tail).tolist()))


def _concat(parts: list[LogColumns], apps: _AppTable) -> LogColumns:
    """One LogColumns of parts whose app ids all come from apps."""
    if not parts:
        return _columns_of_records([], apps)
    columns = {name: np.concatenate([getattr(part, name) for part in parts]) for name in _COLUMNS}
    return LogColumns(**columns, app_sets=apps.sets)


class _AppTable:
    """The distinct app lists of one read, each apps text decoded and checked once.

    Equal lists get one id and share one tuple; equal names decoded from
    the log share one string.
    """

    def __init__(self):
        self.sets: list[AppSet] = []
        self._ids: dict[AppSet, int] = {}
        self._names: dict[str, str] = {}
        self._text_ids: dict[bytes, int] = {}

    def id_of(self, apps: AppSet) -> int:
        found = self._ids.get(apps)
        if found is None:
            found = self._ids[apps] = len(self.sets)
            self.sets.append(apps)
        return found

    def text_ids(self, texts) -> np.ndarray:
        """The id of each apps text, or -1 where it is not a valid apps list."""
        for text in dict.fromkeys(texts):
            if text not in self._text_ids:
                self._text_ids[text] = self._decode(text)
        return np.fromiter(map(self._text_ids.__getitem__, texts), np.intp, len(texts))

    def _decode(self, text: bytes) -> int:
        try:
            apps = json.loads(text.decode())
        except (ValueError, RecursionError):  # invalid UTF-8 or JSON
            return -1
        if _apps_error(apps) is not None:
            return -1
        return self.id_of(tuple(self._names.setdefault(name, name) for name in apps))


def _member_codes(members, all_members: tuple) -> np.ndarray:
    """Each enum member's index in all_members (compared by identity: Enum hashes in Python)."""
    column = np.fromiter(members, dtype=object, count=len(members))
    codes = np.zeros(len(column), dtype=np.int8)
    for code, member in enumerate(all_members):
        codes[column == member] = code
    return codes


def _columns_of_records(records: list, apps: _AppTable) -> LogColumns:
    samples = [record.sample for record in records]
    charge = [s.charge_uah for s in samples]
    app_lists = [record.apps for record in records]
    ids = {app_list: apps.id_of(app_list) for app_list in dict.fromkeys(app_lists)}
    return LogColumns(
        ts=_int_column([s.ts_ms for s in samples]),
        level=_int_column([s.level_pct for s in samples]),
        voltage=_int_column([s.voltage_mv for s in samples]),
        temp=_int_column([s.temp_dc for s in samples]),
        charge=_int_column([0 if c is None else c for c in charge]),
        charge_null=np.array([c is None for c in charge], dtype=bool),
        status=_member_codes([s.status for s in samples], STATUSES),
        health=_member_codes([s.health for s in samples], HEALTHS),
        apps=np.array(list(map(ids.__getitem__, app_lists)), dtype=np.intp),
        app_sets=apps.sets,
    )


def _ints(text: bytes) -> np.ndarray:
    """int64 column of comma-separated integers the pattern matched (at most 18 digits each)."""
    return np.fromstring(text, dtype=np.int64, sep=",")


def _codes(words, code_by_wire: dict[str, int]) -> np.ndarray:
    """Code of each status or health word (ASCII letters), -1 where it is unknown."""
    codes = {word: _code(code_by_wire, word.decode()) for word in set(words)}
    return np.fromiter(map(codes.__getitem__, words), np.int8, len(words))


def _columns_of_lines(rows: list[tuple], apps: _AppTable) -> LogColumns:
    """The columns of lines the pattern matched, given as their groups."""
    if not rows:
        return _columns_of_records([], apps)
    ts, level, voltage, temp, charge, status, health, app_texts = zip(*rows)
    charge_text = b",".join(charge)
    charge_null = np.zeros(len(rows), dtype=bool)
    if b"null" in charge_text:
        charge_null = np.array(charge) == b"null"
    return LogColumns(
        ts=_ints(b",".join(ts)),
        level=_ints(b",".join(level)),
        voltage=_ints(b",".join(voltage)),
        temp=_ints(b",".join(temp)),
        charge=_ints(charge_text.replace(b"null", b"0")),
        charge_null=charge_null,
        status=_codes(status, _STATUS_CODE_BY_WIRE),
        health=_codes(health, _HEALTH_CODE_BY_WIRE),
        apps=apps.text_ids(app_texts),
        app_sets=apps.sets,
    )


def _faulty(c: LogColumns) -> np.ndarray:
    """Rows that break a rule record_from_json enforces, which then judges them."""
    return (
        (c.level < 0)
        | (c.level > 100)
        | ((c.voltage <= 0) & (c.status != _UNKNOWN_STATUS))
        | (c.charge < 0)
        | (c.status < 0)
        | (c.health < 0)
        | (c.apps < 0)
    )


def _record_of_line(raw: bytes, lineno: int) -> LogRecord:
    try:
        line = raw.decode()
    except UnicodeDecodeError:
        raise LogParseError(lineno, "invalid UTF-8") from None
    return record_from_json(line, lineno)


def _first_not_increasing(ts: np.ndarray, prev_ts: int | None) -> int | None:
    """The first row whose ts is not above the one before it (prev_ts for row 0), or None."""
    if len(ts) and prev_ts is not None and int(ts[0]) <= prev_ts:
        return 0
    down = np.flatnonzero(ts[1:] <= ts[:-1])
    return int(down[0]) + 1 if down.size else None


def _block_columns(block: bytes, first_line: int, apps: _AppTable, prev_ts: int | None) -> LogColumns:
    """The columns of block, whole lines of which the first is line first_line.

    A block holding a line the pattern leaves out or a faulty row is read
    line by line with record_from_json.  Raises the LogParseError of the
    first line that record_from_json rejects or whose timestamp is not
    above the one before it (prev_ts before the block's first line), as
    reading line by line would.
    """
    rows = _CANONICAL_LINE.findall(block)
    cols = _columns_of_lines(rows, apps)
    error = None
    if len(rows) < block.count(b"\n") or _faulty(cols).any():
        records = []
        try:
            for lineno, line in enumerate(io.BytesIO(block), first_line):
                records.append(_record_of_line(line, lineno))
        except LogParseError as exc:
            error = exc
        cols = _columns_of_records(records, apps)
    row = _first_not_increasing(cols.ts, prev_ts)
    if row is not None:
        ts, prev = int(cols.ts[row]), prev_ts if row == 0 else int(cols.ts[row - 1])
        raise LogParseError(first_line + row, f"timestamp {ts} not above previous {prev}")
    if error is not None:
        raise error
    return cols


def _iter_columns(fh, apps: _AppTable | None = None):
    """Yield the LogColumns of each block of a log opened in binary mode.

    apps is the table of every block's app lists; without one each block
    gets its own, so that memory stays bounded by the block size.
    Timestamps must increase strictly, across blocks too.  A record is
    committed once its newline is on disk: an unterminated final line,
    a write cut short by power loss, is skipped with a warning.  The
    file is left positioned just past the last committed line, where
    LogWriter cuts it off.
    """
    committed = fh.tell()
    line, prev_ts, rest = 1, None, b""
    while chunk := fh.read(BLOCK_BYTES):
        rest += chunk
        del chunk
        cut = rest.rfind(b"\n") + 1
        if not cut:
            continue
        cols = _block_columns(rest[:cut], line, apps if apps is not None else _AppTable(), prev_ts)
        rest = rest[cut:]
        line += len(cols)
        committed += cut
        if len(cols):
            prev_ts = int(cols.ts[-1])
        yield cols
        del cols  # hold one block at a time
    if rest:
        log.warning("ignoring unterminated final line %d of the log (%d bytes)", line, len(rest))
    fh.seek(committed)


def load_log(path: str | Path) -> list[LogRecord]:
    """Load and validate a whole log; empty file yields an empty list."""
    return load_columns(path).records()


def load_columns(path: str | Path) -> LogColumns:
    """Load and validate a whole log as columns; an empty file yields no rows."""
    apps = _AppTable()
    with open(path, "rb") as fh:
        return _concat(list(_iter_columns(fh, apps)), apps)


def _checked_line(record: LogRecord, last_ts: int | None) -> bytes:
    """A record's line and newline as bytes; UnwritableRecord, then NonMonotonicTimestamp unless ts > last_ts."""
    line = (record_to_json(record) + "\n").encode()
    ts = record.sample.ts_ms
    if last_ts is not None and ts <= last_ts:
        raise NonMonotonicTimestamp(f"ts {ts} not above last written {last_ts}")
    return line


def write_log(path: str | Path, records) -> None:
    """Write records as a fresh log file, up to the first one append would refuse (no locking)."""
    last_ts = None
    with open(path, "wb") as fh:
        for record in records:
            fh.write(_checked_line(record, last_ts))
            last_ts = record.sample.ts_ms


class LogWriter:
    """Append-only writer owning the log through an advisory exclusive lock.

    Opening validates any existing content (strict parse, one block at a
    time) and resumes after its last timestamp.  An unterminated final
    line is cut off before the first append.  Memory stays bounded by the
    block size regardless of log length.
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
            for cols in _iter_columns(self._fh):
                if len(cols):
                    self._last_ts = int(cols.ts[-1])
                del cols  # hold one block at a time
            committed = self._fh.tell()
            self._torn_at = committed if self._fh.seek(0, os.SEEK_END) > committed else None
        except Exception:
            self._fh.close()
            raise

    @property
    def last_ts_ms(self) -> int | None:
        return self._last_ts

    def append(self, record: LogRecord) -> None:
        """Write one record's line; a record the reader would reject leaves the file untouched."""
        line = _checked_line(record, self._last_ts)
        if self._torn_at is not None:
            self._fh.truncate(self._torn_at)
            self._torn_at = None
        self._fh.write(line)
        self._fh.flush()
        self._last_ts = record.sample.ts_ms

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
    return [(r.sample.ts_ms, r.sample.level_pct) for r in _tail(list(records), tail)]


def _tail(seq, tail: int | None):
    """The last `tail` items of seq; all of them for None."""
    if tail is None:
        return seq
    if tail < 0:
        raise ValueError(f"tail must be non-negative: {tail}")
    return seq[-tail:] if tail else seq[:0]


def run_loop(config: RecorderConfig, source, clock=None, stop: threading.Event | None = None) -> int:
    """Sample and append once per interval until the stop signal is set.

    The first sample is taken immediately, and setting stop ends the wait
    for the next one at once.  A tick whose source read fails, or whose
    record the writer refuses (out of order, or unwritable), is logged to
    diagnostics and skipped; the loop carries on.  I/O
    failures on the log itself propagate (the caller exits nonzero).
    When the loop ends, for whatever reason once the log is open, one
    line reports the ticks written and the ticks skipped by exception
    type.  Returns the number of records written.
    """
    clock = clock if clock is not None else SystemClock()
    stop = stop if stop is not None else threading.Event()
    written = 0
    skipped: collections.Counter[str] = collections.Counter()
    with LogWriter(config.out_path) as writer:
        try:
            while not stop.is_set():
                try:
                    writer.append(sample_once(source, clock))
                    written += 1
                except (MissingField, MalformedField, NonMonotonicTimestamp, UnwritableRecord) as exc:
                    skipped[type(exc).__name__] += 1
                    log.warning("sampling tick skipped: %s", exc)
                clock.sleep(config.interval_s, stop)
        finally:
            by_type = "".join(f", {name} {count}" for name, count in sorted(skipped.items()))
            log.info("recorder stopped: %d ticks written, %d skipped%s", written, skipped.total(), by_type)
    return written
