"""Periodic sampling into an append-only JSONL log, plus log access and export.

One record per line, field names and order exactly:

    {"ts_ms":<int>,"level_pct":<int>,"voltage_mv":<int>,"temp_dc":<int>,
     "charge_uah":<int|null>,"status":"<enum>","health":"<enum>","apps":[...]}

Loading is strict: any malformed line aborts with its line number, since
silently dropping rows would corrupt downstream attribution.  The log is
read in blocks of about BLOCK_BYTES, each cut after its last newline,
and each block becomes numpy columns (LogColumns) without a record or a
JSON parse per line.  One regular expression checks that each line is in
the exact form record_to_json writes: fixed keys in fixed order, no
whitespace, status and health in ASCII letters, and integers of an
optional minus and 1 to 18 ASCII digits, so that every value fits in
int64 and so does the difference of any two; its one group is the apps
text.  No value before "apps" holds a comma, so numpy finds each line's
first seven commas, which end its first seven values, with one
searchsorted over the block's commas, and reads the values of all lines
at once at those places.  A leading zero, which JSON's grammar refuses,
is refused there, after the match.  Whole columns are then checked with
numpy against the rules record_from_json applies (the BatterySample
ranges, known status and health), and the timestamps must increase
strictly, across blocks too.  App lists are kept as int32 arrays of name
ids into one name table per read: each distinct apps text is decoded
once by json.loads, each distinct name is checked once by AppSet, and
"sorted and unique" is checked for all of a block's new lists at once on
the names' ranks in sort order.  A block holding a line the pattern
leaves out (other spacing or key order, escapes, longer integers), a
leading zero or a line that fails a check is read again line by line by
record_from_json, so each line yields the record, or raises the error,
that record_from_json gives it: that function stays the one validator.
A record counts only once its newline is written, so an unterminated
final line, left by a write that power loss cut short, is ignored with a
warning.  The writer holds an advisory exclusive lock so at most one
recorder owns a log at a time; readers are unrestricted.

A record is valid once built: BatterySample refuses an integer field
that is not exactly an int, a status or health that is not a member, or
a value out of range, and LogRecord refuses apps that are neither an
AppSet nor a tuple that makes one, each with ValueError.  AppSet owns
the app-name rule, so a record holding one checks no name again.
LogColumns builds one AppSet per distinct list, from its name ids, only
when records, the export or the intervals ask for them; `semo analyze`
and `semo curve` build none.  LogColumns.records, the one builder of the
records of load_log and simulate, checks whole columns against the rules
of BatterySample and LogRecord, builds any row the check does not clear
with those checked constructors, so that it raises their error, and
fills all the records a field at a time.  So every LogRecord
has a line the reader accepts, and record_to_json, the one serializer,
only formats it.
_LineSpeller.checked_line, the one step of both LogWriter.append and
write_log, raises NonMonotonicTimestamp for a timestamp not above the
last one written, so neither writer leaves a log that load_log or the
next LogWriter refuses; run_loop skips such a tick.  It formats the line
with record_to_json's own formatter from the sample and the apps' JSON
text, which it spells once per run of records holding one AppSet
object: simulate gives such runs, and so does a FileTreeSource while its
app listing stays the same.  write_log encodes and writes its lines in
batches; the lines before a refused record are still written.
LogWriter flushes each append, and syncs the file to disk once, on
close, when it appended (and the directory too, when it created the
file): an fsync per tick would cost more than the rest of the tick.
LogColumns.from_records, the way in for records held in memory, keeps
the records' own AppSets and refuses records out of order with the
reader's own test.  An app name must be valid UTF-8 text: a
JSON escape can spell a lone surrogate ("\\ud800") that no writer can
encode, so AppSet refuses it, for LogRecord and the reader alike.
export_columns_csv writes a log's columns as the CSV of `semo export`,
spelling status as the log does.
"""

from __future__ import annotations

import collections
import csv
import errno
import functools
import io
import itertools
import json
import logging
import operator
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

# Each line in the exact bytes record_to_json writes, newline included;
# its one group is the apps text.  [0-9], never \d: \d would also match
# non-ASCII digits, which JSON rejects.  At most 18 digits: every such
# value and every difference of two fit in int64; longer integers go to
# record_from_json, and so do leading zeros, which the reader refuses
# after the match.  No value before "apps" holds a comma, so a matched
# line's first seven commas end its first seven values.
_INT = rb"-?[0-9]{1,18}"
_CANONICAL_LINE = re.compile(
    rb'^\{"ts_ms":' + _INT + rb',"level_pct":' + _INT + rb',"voltage_mv":' + _INT + rb','
    rb'"temp_dc":' + _INT + rb',"charge_uah":(?:null|' + _INT + rb'),"status":"[A-Za-z]*",'
    rb'"health":"[A-Za-z]*","apps":(\[.*\])\}\n',
    re.M,
)
# Bytes from a matched line's start to its first value, and from each of
# its first six commas to the next value: '{"ts_ms":', ',"level_pct":',
# ..., ',"charge_uah":', ',"status":"', ',"health":"'.
_VALUE_SKIPS = tuple(len(f',"{key}":') for key in LOG_FIELDS[:5]) + tuple(
    len(f',"{key}":"') for key in LOG_FIELDS[5:7]
)


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One recorder row: a battery sample plus the apps running at that tick.

    Raises ValueError unless sample is a BatterySample and apps an
    AppSet, or a plain tuple that makes one; such a tuple is stored as
    its AppSet.  An AppSet is kept as it is, without a check per name.
    """

    sample: BatterySample
    apps: AppSet

    def __post_init__(self):
        if not isinstance(self.sample, BatterySample):
            raise ValueError(f"sample must be a BatterySample, got {self.sample!r}")
        object.__setattr__(self, "apps", _kept_apps(self.apps))


def _kept_apps(apps) -> AppSet:
    """apps as a LogRecord keeps them: an AppSet as it is, a plain tuple as its AppSet; ValueError otherwise."""
    if isinstance(apps, AppSet):
        return apps
    if type(apps) is not tuple:
        raise ValueError(f"apps must be a tuple of strings, got {apps!r}")
    return AppSet(apps)


@dataclass(frozen=True)
class RecorderConfig:
    out_path: Path
    interval_s: int = 60

    def __post_init__(self):
        if not 1 <= self.interval_s <= threading.TIMEOUT_MAX:  # a longer wait overflows Event.wait
            raise ValueError(f"interval_s must be in [1, {threading.TIMEOUT_MAX:.0f}]: {self.interval_s}")


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
    """The log line of a record, without its newline."""
    return _line(record.sample, _apps_text(record.apps))


def _apps_text(apps: AppSet) -> str:
    """The JSON text of an app set's names, comma-separated, without the brackets."""
    return ",".join(map(_json_string, apps))


def _line(s: BatterySample, apps_text: str) -> str:
    """The log line of a sample whose apps are spelled apps_text, without its newline.

    Status and health are spelled from the members' stored _value_,
    which skips the call that the value property makes on every line.
    """
    charge = s.charge_uah
    return (
        f'{{"ts_ms":{s.ts_ms},"level_pct":{s.level_pct},"voltage_mv":{s.voltage_mv},"temp_dc":{s.temp_dc},'
        f'"charge_uah":{"null" if charge is None else charge},"status":"{s.status._value_}",'
        f'"health":"{s.health._value_}","apps":[{apps_text}]}}'
    )


def _code(code_by_wire: dict[str, int], word) -> int:
    """Code of a status or health spelling, -1 where it is unknown or not a string."""
    return code_by_wire.get(word, -1) if type(word) is str else -1


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

    if type(payload["apps"]) is not list:
        raise LogParseError(lineno, "field apps must be a list of strings")
    try:
        apps = AppSet(payload["apps"])
        sample = BatterySample(
            ts_ms=payload["ts_ms"],
            level_pct=payload["level_pct"],
            voltage_mv=payload["voltage_mv"],
            temp_dc=payload["temp_dc"],
            charge_uah=charge,
            status=STATUSES[status],
            health=HEALTHS[health],
        )
    except ValueError as exc:
        raise LogParseError(lineno, str(exc)) from None
    return LogRecord(sample=sample, apps=apps)


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
    STATUSES and HEALTHS.  apps holds set ids, indices into app_ids,
    which lists each distinct app list once as an int32 array of name
    ids, indices into app_names, in the list's order; so equal lists have
    equal set ids, and equal names equal name ids.  app_sets, the lists
    as AppSets, is built when first asked for.  Raises ValueError unless
    the columns from ts to apps are one-dimensional and of one length.
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
    app_names: list[str]
    app_ids: list[np.ndarray]

    def __post_init__(self):
        shapes = [np.shape(getattr(self, name)) for name in _COLUMNS]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != len(shapes):
            raise ValueError(f"columns must be one-dimensional and of one length, got shapes {shapes}")

    def __len__(self) -> int:
        return len(self.ts)

    @functools.cached_property
    def app_sets(self) -> list[AppSet]:
        """Each list of app_ids as an AppSet of its names."""
        return [AppSet(map(self.app_names.__getitem__, ids.tolist())) for ids in self.app_ids]

    @classmethod
    def from_records(cls, records) -> "LogColumns":
        """The columns of LogRecords, in their order.

        app_sets holds the records' own AppSets, the first of each equal
        set, and builds none.  Raises ValueError unless ts increase
        strictly.
        """
        records = list(records)
        columns = _columns_of_records(records, _AppTable())
        row = _first_not_increasing(columns.ts, None)
        if row is not None:
            ts, prev = int(columns.ts[row]), int(columns.ts[row - 1])
            raise ValueError(f"records must be sorted with strictly increasing ts_ms ({ts} after {prev})")
        # A fresh table numbers the distinct sets in the order they are first met.
        object.__setattr__(columns, "app_sets", list(dict.fromkeys(record.apps for record in records)))
        return columns

    def charges(self) -> list[int | None]:
        """charge_uah of each row: None where charge_null is set."""
        charge = self.charge.astype(object)
        charge[self.charge_null] = None
        return charge.tolist()

    def records(self) -> list[LogRecord]:
        """The LogRecords of the rows; equal app lists share one AppSet.

        Whole columns are checked first, against exactly the rules of
        BatterySample and LogRecord: the integer fields are int64, or
        object columns of exact ints; status, health and set ids are
        integer codes that index STATUSES, HEALTHS and app_sets; level is
        in 0..100, voltage positive unless the status is Unknown, and
        charge non-negative where it is not null; and each set is an
        AppSet, or a plain tuple, made into its AppSet once, as LogRecord
        makes it.  Each row the check does not clear is then built, in
        row order, by the checked constructors, so the first that fails
        raises the error it always raised.  Then every row holds values
        that the constructors accept and store unchanged, so the records
        are built without them: the objects are made bare and each field
        is set for all rows at once by the field's slot, with no Python
        frame per row.
        """
        ts, level, voltage, temp = self.ts.tolist(), self.level.tolist(), self.voltage.tolist(), self.temp.tolist()
        charge, status, health = self.charges(), self.status.tolist(), self.health.tolist()
        app_sets, apps = self.app_sets, self.apps.tolist()
        kept = []  # each set as LogRecord keeps it, None where LogRecord refuses it
        for app_set in app_sets:
            try:
                kept.append(_kept_apps(app_set))
            except ValueError:
                kept.append(None)
        for row in np.flatnonzero(self._uncleared(kept)).tolist():
            sample = BatterySample(
                ts[row], level[row], voltage[row], temp[row], charge[row], STATUSES[status[row]], HEALTHS[health[row]]
            )
            LogRecord(sample, app_sets[apps[row]])
        samples = _filled(
            BatterySample,
            len(ts),
            ts_ms=ts,
            level_pct=level,
            voltage_mv=voltage,
            temp_dc=temp,
            charge_uah=charge,
            status=map(STATUSES.__getitem__, status),
            health=map(HEALTHS.__getitem__, health),
        )
        return _filled(LogRecord, len(ts), sample=samples, apps=map(kept.__getitem__, apps))

    def _uncleared(self, kept: list) -> np.ndarray:
        """Rows that the whole-column check of records does not clear."""
        ints = (self.ts, self.level, self.voltage, self.temp, self.charge)
        codes = (self.status, self.health, self.apps)
        if not (
            all(map(_exact_ints, ints)) and all(c.dtype.kind in "iu" for c in codes) and self.charge_null.dtype == bool
        ):
            return np.ones(len(self), dtype=bool)
        # a set id that indexes no kept set reads the spare last entry
        unkept = np.array([app_set is None for app_set in kept] + [True])
        ids = np.where((self.apps >= 0) & (self.apps < len(kept)), self.apps, len(kept))
        return _faulty(self) | unkept[ids]

    def curve(self, tail: int | None = None) -> list[tuple[int, int]]:
        """(ts_ms, level_pct) pairs: every row for tail None, else the last tail rows (the real-time view)."""
        start = 0
        if tail is not None:
            if tail < 0:
                raise ValueError(f"tail must be non-negative: {tail}")
            start = max(len(self) - tail, 0)
        return list(zip(self.ts[start:].tolist(), self.level[start:].tolist()))


def _concat(parts: list[LogColumns], apps: _AppTable) -> LogColumns:
    """One LogColumns of parts whose app ids all come from apps."""
    if not parts:
        return _columns_of_records([], apps)
    columns = {name: np.concatenate([getattr(part, name) for part in parts]) for name in _COLUMNS}
    return LogColumns(**columns, app_names=apps.names, app_ids=apps.sets)


def _json_list(text: bytes) -> list | None:
    """The list an apps text spells in JSON, or None where it spells none."""
    try:
        apps = json.loads(text.decode())
    except (ValueError, RecursionError):  # invalid UTF-8 or JSON; nesting too deep
        return None
    return apps if type(apps) is list else None


class _AppTable:
    """The distinct app lists of one read, as int32 arrays of name ids.

    names is the one name table: equal names share one id and one
    string.  sets holds each distinct list once, so equal lists share one
    set id.  Each distinct apps text is decoded once, and each distinct
    name checked once against the app-name rule, by AppSet itself.
    """

    def __init__(self):
        self.names: list[str] = []
        self.sets: list[np.ndarray] = []
        self._name_ids: dict = {}  # each decoded name, or other JSON value, to its id; -1 where it is no app name
        self._set_ids: dict[bytes, int] = {}
        self._text_ids: dict[bytes, int] = {}

    def text_ids(self, texts) -> np.ndarray:
        """The set id of each apps text, or -1 where it is not a valid apps list."""
        new = [text for text in dict.fromkeys(texts) if text not in self._text_ids]
        self._text_ids.update(zip(new, self.list_ids(list(map(_json_list, new)))))
        return np.fromiter(map(self._text_ids.__getitem__, texts), np.intp, len(texts))

    def list_ids(self, lists: list) -> list[int]:
        """The set id of each list or tuple of names (None for none), or -1 where it is no AppSet.

        A list is one when each of its names is one and the names are
        sorted and unique: checked for all lists at once on the names'
        ranks in sort order.
        """
        try:
            values = set(itertools.chain.from_iterable(filter(None, lists)))
        except TypeError:  # a JSON array or object among the names: its list is no AppSet
            nested = [apps is not None and any(type(name) in (list, dict) for name in apps) for apps in lists]
            return self.list_ids([None if drop else apps for apps, drop in zip(lists, nested)])
        self._add_names(values.difference(self._name_ids))
        lengths = [0 if apps is None else len(apps) for apps in lists]
        flat = itertools.chain.from_iterable(filter(None, lists))
        ids = np.fromiter(map(self._name_ids.__getitem__, flat), np.int32, sum(lengths))
        owner = np.repeat(np.arange(len(lists)), lengths)
        # Rank the names met here in sort order; a -1 id reads the spare last slot.
        met = np.zeros(len(self.names) + 1, dtype=bool)
        met[ids] = True
        by_name = sorted(np.flatnonzero(met[:-1]).tolist(), key=self.names.__getitem__)
        rank = np.zeros(len(met), np.int32)
        rank[by_name] = np.arange(len(by_name))
        ranks = rank[ids]
        bad = np.array([apps is None for apps in lists], dtype=bool)
        bad[owner[ids < 0]] = True
        bad[owner[1:][(ranks[1:] <= ranks[:-1]) & (owner[1:] == owner[:-1])]] = True
        ends = np.cumsum(lengths).tolist()
        return [
            -1 if is_bad else self._set_id(ids[end - length : end])
            for is_bad, end, length in zip(bad.tolist(), ends, lengths)
        ]

    def _add_names(self, fresh) -> None:
        """Give each value of fresh, not yet in the table, its name id, or -1 where AppSet refuses it."""
        for name in fresh:
            try:
                AppSet((name,))
            except ValueError:
                self._name_ids[name] = -1
            else:
                self._name_ids[name] = len(self.names)
                self.names.append(name)

    def _set_id(self, ids: np.ndarray) -> int:
        found = self._set_ids.setdefault(ids.tobytes(), len(self.sets))
        if found == len(self.sets):
            self.sets.append(ids)
        return found


def _member_codes(members, all_members: tuple) -> np.ndarray:
    """Each enum member's index in all_members, -1 for a value that is none of them.

    Compared by identity: Enum hashes in Python.
    """
    column = np.fromiter(members, dtype=object, count=len(members))
    codes = np.full(len(column), -1, dtype=np.int8)
    for code, member in enumerate(all_members):
        codes[column == member] = code
    return codes


def _columns_of_records(records: list, apps: _AppTable) -> LogColumns:
    """The columns of records."""
    samples = [record.sample for record in records]
    ts = [s.ts_ms for s in samples]
    level = [s.level_pct for s in samples]
    voltage = [s.voltage_mv for s in samples]
    temp = [s.temp_dc for s in samples]
    charge = [s.charge_uah for s in samples]
    status = _member_codes([s.status for s in samples], STATUSES)
    health = _member_codes([s.health for s in samples], HEALTHS)
    app_lists = [record.apps for record in records]
    distinct = list(dict.fromkeys(app_lists))
    ids = dict(zip(distinct, apps.list_ids(distinct)))
    return LogColumns(
        ts=_int_column(ts),
        level=_int_column(level),
        voltage=_int_column(voltage),
        temp=_int_column(temp),
        charge=_int_column([0 if c is None else c for c in charge]),
        charge_null=np.array([c is None for c in charge], dtype=bool),
        status=status,
        health=health,
        apps=np.array(list(map(ids.__getitem__, app_lists)), dtype=np.intp),
        app_names=apps.names,
        app_ids=apps.sets,
    )


def _value_spans(buf: np.ndarray, ends: np.ndarray):
    """Yield the (start, end) offsets in buf of each line's first seven values, a value at a time.

    buf is a block whose every line the pattern matched, and ends holds
    the offset of each line's newline.  A value ends at its line's next
    comma, found with one searchsorted over the block's commas; a status
    or health span leaves out its quotes.
    """
    commas = np.flatnonzero(buf == ord(","))
    before = np.concatenate(([0], ends[:-1] + 1))  # the "{" before each ts_ms, then the comma before each value
    at = np.searchsorted(commas, before)
    for k, skip in enumerate(_VALUE_SKIPS):
        comma = commas[at + k]
        yield before + skip, comma if k < 5 else comma - 1  # a word ends before its closing quote
        before = comma


# 0, 1, 11, ..., 18 ones: the sum of a w-digit number's digit places.
_REPUNITS = (10 ** np.arange(19, dtype=np.int64) - 1) // 9


def _ints_at(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer each span buf[start:end] spells, as int64, and where its digits have a leading zero.

    Each span holds what the pattern's integer matched, an optional minus
    and 1 to 18 ASCII digits, and more than 18 bytes of its line follow
    it.  Horner's rule runs on the bytes themselves, in int64 so that it
    cannot wrap, and the digits' ord("0") is taken off once at the end.
    """
    minus = buf[start] == ord("-")
    first = start + minus
    width = end - first
    value = np.zeros(len(start), np.int64)
    narrowest = int(width.min())
    for j in range(int(width.max())):
        more = value * 10 + buf[first + j]
        value = more if j < narrowest else np.where(j < width, more, value)
    value -= ord("0") * _REPUNITS[width]
    return np.where(minus, -value, value), (width > 1) & (buf[first] == ord("0"))


def _word_codes(buf: np.ndarray, start: np.ndarray, end: np.ndarray, members: tuple) -> np.ndarray:
    """Each span's index in members of the member whose value it spells, -1 where it spells none."""
    codes = np.full(len(start), -1, np.int8)
    width = end - start
    for code, member in enumerate(members):
        rows = np.flatnonzero(width == len(member.value))
        for j, byte in enumerate(member.value.encode()):
            rows = rows[buf[start[rows] + j] == byte]
        codes[rows] = code
    return codes


def _matched_columns(buf: np.ndarray, ends: np.ndarray, set_ids: np.ndarray, apps: _AppTable) -> LogColumns | None:
    """The columns of a block whose every line the pattern matched.

    ends holds the offset of each line's newline and set_ids the set id
    of its apps text.  None where a value has a leading zero or a row is
    faulty.
    """
    spans = _value_spans(buf, ends)
    ints = []
    for start, end in itertools.islice(spans, 5):
        value, leading_zero = _ints_at(buf, start, end)
        if leading_zero.any():
            return None
        ints.append(value)
    ts, level, voltage, temp, charge = ints
    charge_null = buf[start] == ord("n")  # start is the last loop's, the charge's
    charge[charge_null] = 0
    cols = LogColumns(
        ts=ts,
        level=level,
        voltage=voltage,
        temp=temp,
        charge=charge,
        charge_null=charge_null,
        status=_word_codes(buf, *next(spans), STATUSES),
        health=_word_codes(buf, *next(spans), HEALTHS),
        apps=set_ids,
        app_names=apps.names,
        app_ids=apps.sets,
    )
    return None if _faulty(cols).any() else cols


def _faulty(c: LogColumns) -> np.ndarray:
    """Rows whose values break a rule of BatterySample, or whose status or
    health is no index into STATUSES or HEALTHS, or whose set id is negative."""
    return (
        (c.level < 0)
        | (c.level > 100)
        | ((c.voltage <= 0) & (c.status != _UNKNOWN_STATUS))
        | ((c.charge < 0) & ~c.charge_null)
        | (c.status < 0)
        | (c.status >= len(STATUSES))
        | (c.health < 0)
        | (c.health >= len(HEALTHS))
        | (c.apps < 0)
    )


def _exact_ints(column: np.ndarray) -> bool:
    """Whether each value of column lists as exactly an int: an int64 column, or an object column of ints."""
    if column.dtype == object:
        return all(map(operator.is_, map(type, column), itertools.repeat(int)))
    return column.dtype == np.int64


def _filled(cls, n: int, **columns) -> list:
    """n objects of a slots dataclass, made without __init__ and so without its check.

    Each field is set from its column for all n objects at once: map
    calls the slot's setter in C, and a zero-length deque drains it.
    """
    objs = list(map(object.__new__, itertools.repeat(cls, n)))
    for name, values in columns.items():
        collections.deque(map(getattr(cls, name).__set__, objs, values), maxlen=0)
    return objs


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

    A block holding a line the pattern leaves out, a value with a leading
    zero or a faulty row is read line by line with record_from_json.  Raises the LogParseError of the
    first line that record_from_json rejects or whose timestamp is not
    above the one before it (prev_ts before the block's first line), as
    reading line by line would; otherwise gives one row per line.
    """
    texts = _CANONICAL_LINE.findall(block)
    set_ids = apps.text_ids(texts)
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    cols = _matched_columns(buf, ends, set_ids, apps) if len(texts) == len(ends) else None
    error = None
    if cols is None:
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


def export_columns_csv(columns: LogColumns, path) -> None:
    """Write a log's columns as CSV, one row per record.

    Columns ts_ms,level_pct,voltage_mv,temp_dc,charge_uah,status,apps:
    charge_uah empty where the counter is absent, status as the log
    spells it, apps semicolon-joined.
    """
    statuses = [status.value for status in STATUSES]
    apps = [";".join(app_set) for app_set in columns.app_sets]
    rows = zip(
        columns.ts.tolist(),
        columns.level.tolist(),
        columns.voltage.tolist(),
        columns.temp.tolist(),
        columns.charges(),
        map(statuses.__getitem__, columns.status.tolist()),
        map(apps.__getitem__, columns.apps.tolist()),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts_ms", "level_pct", "voltage_mv", "temp_dc", "charge_uah", "status", "apps"])
        writer.writerows(rows)


class _LineSpeller:
    """The one step of both writers: a record's line, and newline, checked against the last timestamp written.

    It keeps the last AppSet object it spelled and that set's JSON text,
    so a run of records that hold one AppSet object has its text spelled
    once; an equal but distinct set is spelled anew.
    """

    __slots__ = ("_apps", "_apps_text")

    def __init__(self):
        self._apps = self._apps_text = None

    def checked_line(self, record: LogRecord, last_ts: int | None) -> str:
        """record's line and newline; NonMonotonicTimestamp unless its ts > last_ts."""
        sample, apps = record.sample, record.apps
        ts = sample.ts_ms
        if last_ts is not None and ts <= last_ts:
            raise NonMonotonicTimestamp(f"ts {ts} not above last written {last_ts}")
        if apps is not self._apps:
            self._apps, self._apps_text = apps, _apps_text(apps)
        return _line(sample, self._apps_text) + "\n"


# Lines that write_log encodes and writes at a time.
WRITE_BATCH = 1024


def write_log(path: str | Path, records) -> None:
    """Write records as a fresh log file, up to the first one append would refuse (no locking).

    Lines are encoded and written WRITE_BATCH at a time, and every line
    before a refused record is written before it raises.
    """
    checked_line = _LineSpeller().checked_line
    last_ts = None
    batch: list[str] = []
    with open(path, "wb") as fh:
        try:
            for record in records:
                batch.append(checked_line(record, last_ts))
                last_ts = record.sample.ts_ms
                if len(batch) == WRITE_BATCH:
                    lines, batch = batch, []
                    fh.write("".join(lines).encode())
        finally:
            fh.write("".join(batch).encode())


def _create_new(path, flags: int) -> int:
    """An opener for open() that creates the file, or raises FileExistsError."""
    return os.open(path, flags | os.O_CREAT | os.O_EXCL, 0o666)


def _fsync(fd: int) -> None:
    """os.fsync, where EINVAL (a file that cannot be synced) means nothing to sync."""
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise


def _sync_directory(path: Path) -> None:
    """fsync a directory, so the names made in it are on disk; nothing on a platform without O_DIRECTORY."""
    o_directory = getattr(os, "O_DIRECTORY", None)
    if o_directory is None:
        return
    fd = os.open(path, os.O_RDONLY | o_directory)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


class LogWriter:
    """Append-only writer owning the log through an advisory exclusive lock.

    Opening validates any existing content (strict parse, one block at a
    time) and resumes after its last timestamp.  An unterminated final
    line is cut off before the first append.  Memory stays bounded by the
    block size regardless of log length.  Each append is flushed to the
    operating system; close syncs the file to disk once, when this writer
    appended to it, and the directory holding it too when this writer
    created it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lines = _LineSpeller()
        self._appended = False
        try:
            self._fh = open(self.path, "a+b", opener=_create_new)
            self._created = True
        except FileExistsError:
            self._fh = open(self.path, "a+b")
            self._created = False
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
        """Write one record's line; a record out of order leaves the file untouched."""
        line = self._lines.checked_line(record, self._last_ts).encode()
        if self._torn_at is not None:
            self._fh.truncate(self._torn_at)
            self._torn_at = None
        self._fh.write(line)
        self._fh.flush()
        self._appended = True
        self._last_ts = record.sample.ts_ms

    def close(self) -> None:
        """Close the log, after one fsync when this writer appended to it.

        A log this writer created also has its directory synced, so that
        its name survives a power loss as well as its lines.  A writer
        that only resumed syncs nothing, and nor does a file that cannot
        be synced (EINVAL, such as /dev/null).
        """
        try:
            if self._appended:
                self._appended = False
                _fsync(self._fh.fileno())
                if self._created:
                    _sync_directory(self.path.parent)
        finally:
            self._fh.close()

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sample_once(source, clock=None) -> LogRecord:
    """Combine a battery reading and the app listing at the same tick."""
    return LogRecord(sample=source.read_battery_sample(clock), apps=source.read_running_apps())


def run_loop(config: RecorderConfig, source, clock=None, stop: threading.Event | None = None) -> int:
    """Sample and append once per interval until the stop signal is set.

    The first sample is taken immediately, and setting stop ends the wait
    for the next one at once.  A tick whose source read fails, or whose
    record is out of order, is logged to diagnostics and skipped; the
    loop carries on.  I/O failures on the log itself propagate (the
    caller exits nonzero).  When the loop ends, for whatever reason once
    the log is open, one line reports the ticks written and the ticks
    skipped by exception type.  Returns the number of records written.
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
                except (MissingField, MalformedField, NonMonotonicTimestamp) as exc:
                    skipped[type(exc).__name__] += 1
                    log.warning("sampling tick skipped: %s", exc)
                clock.sleep(config.interval_s, stop)
        finally:
            by_type = "".join(f", {name} {count}" for name, count in sorted(skipped.items()))
            log.info("recorder stopped: %d ticks written, %d skipped%s", written, skipped.total(), by_type)
    return written
