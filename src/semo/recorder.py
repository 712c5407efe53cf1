"""Periodic sampling into an append-only JSONL log, plus log access and export.

One record per line, field names and order exactly:

    {"ts_ms":<int>,"level_pct":<int>,"voltage_mv":<int>,"temp_dc":<int>,
     "charge_uah":<int|null>,"status":"<enum>","health":"<enum>","apps":[...]}

Loading is strict: any malformed line aborts with its line number, since
silently dropping rows would corrupt downstream attribution.  The log is
read in blocks of about BLOCK_BYTES, each cut after its last newline,
and each block becomes numpy columns (LogColumns) without a record or a
JSON parse per line.  One regular expression checks that each line is in
the exact form record_to_json writes, with integers of at most 18 ASCII
digits, so that every value and every difference of two fits in int64;
numpy then reads the values of all lines at once, and refuses a leading
zero, which JSON's grammar refuses.  The timestamps must increase
strictly, across blocks too.  App lists are kept as int32 arrays of name
ids into one name table per read: each distinct apps text is decoded
once by json.loads, and each distinct name checked once by AppSet.  A
block holding a line the pattern leaves out (other spacing or key order,
escapes, longer integers), a leading zero or a row that LogColumns
refuses is read again line by line by record_from_json, so each line
yields the record, or raises the error, that record_from_json gives it:
that function stays the one validator.  It refuses a key that a line
repeats, where json.loads would keep the last value without a word.  A
record counts only once its newline is written, so an unterminated final
line, left by a write that power loss cut short, is ignored with a
warning.  The writer holds an advisory exclusive lock so at most one
recorder owns a log at a time; readers are unrestricted.

A record is valid once built: BatterySample refuses an integer field
that is not exactly an int, a status or health that is not a member, or
a value out of range, and LogRecord refuses apps that are neither an
AppSet nor a tuple that makes one, each with ValueError.  AppSet owns
the app-name rule, so a record holding one checks no name again.  Columns
are too: LogColumns refuses a row that BatterySample would refuse, or
whose status, health or set id is no index from 0, so its records(), the
one builder of the records of load_log and simulate, only fills them a
field at a time.  AppSets are built from the name ids only when records,
the export or the intervals ask for them; `semo analyze` and `semo
curve` build none.  So every LogRecord has a line the reader accepts,
and record_to_json, the one serializer, only formats it.  Both writers
spell each line through _LineSpeller.checked_line, which refuses a
timestamp not above the last one written, so neither leaves a log that
load_log or the next LogWriter refuses; run_loop skips such a tick.
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


def _unique_keys(lineno: int, pairs: list) -> dict:
    """A JSON object's pairs as a dict; LogParseError for a key that repeats."""
    fields = dict(pairs)
    if len(fields) < len(pairs):
        repeated = next(key for key, count in collections.Counter(key for key, _ in pairs).items() if count > 1)
        raise LogParseError(lineno, f"duplicate field {repeated}")
    return fields


def record_from_json(line: str, lineno: int = 1) -> LogRecord:
    """Strictly parse one log line; raises LogParseError on any defect."""
    try:
        payload = json.loads(line, object_pairs_hook=functools.partial(_unique_keys, lineno))
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
    the bool column charge_null is set.  status and health hold integer
    codes, indices into STATUSES and HEALTHS.  apps holds integer set ids,
    indices into app_ids, which lists each distinct app list once as an
    int32 array of name ids, indices into app_names, in the list's order;
    so equal lists have equal set ids, and equal names equal name ids.
    app_sets, the lists as AppSets, is built when first asked for.
    Valid once built: ValueError refuses columns not one-dimensional and of
    one length, and names the first row of a wrong type, with a code that
    is no index from 0, or that BatterySample refuses, in its own words.
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
        typed = min(_first_not_int(getattr(self, name)) for name in _COLUMNS[:5])  # the rows before hold exact ints
        if self.charge_null.dtype != bool or any(getattr(self, name).dtype.kind not in "iu" for name in _COLUMNS[6:]):
            typed = 0
        row = min(np.flatnonzero(_faulty(self, typed)).tolist(), default=typed) if typed else 0
        if row < len(self):
            raise ValueError(f"row {row}: {self._refusal(row)}")

    def _refusal(self, row: int) -> str:
        """Why row, the first faulty one, is refused: in BatterySample's words where it refuses the row."""
        if self.charge_null.dtype != bool:
            return f"charge_null must be a bool column, got {self.charge_null.dtype}"
        for name, count in zip(_COLUMNS[6:], (len(STATUSES), len(HEALTHS), len(self.app_ids))):
            codes = getattr(self, name)
            if codes.dtype.kind not in "iu" or not 0 <= codes.item(row) < count:
                return f"{name} code must be a non-negative integer below {count}, got {codes.item(row)!r}"
        ints = [getattr(self, name).item(row) for name in _COLUMNS[:5]]
        if self.charge_null.item(row) and type(ints[4]) is int:  # a null charge is still an int
            ints[4] = None
        try:
            BatterySample(*ints, STATUSES[self.status.item(row)], HEALTHS[self.health.item(row)])
        except ValueError as exc:
            return str(exc)
        dtypes = ", ".join(str(getattr(self, name).dtype) for name in _COLUMNS[:5])
        return f"integer fields must be int64 columns or object columns of ints, got {dtypes}"

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

        The rows are valid, so the records are made bare and each field is
        set for all rows at once by its slot, with no Python frame per row.
        Each set is kept once as LogRecord keeps it: a plain tuple as its
        AppSet; one that LogRecord refuses raises its ValueError.
        """
        kept = list(map(_kept_apps, self.app_sets))
        samples = _filled(
            BatterySample,
            len(self),
            ts_ms=self.ts.tolist(),
            level_pct=self.level.tolist(),
            voltage_mv=self.voltage.tolist(),
            temp_dc=self.temp.tolist(),
            charge_uah=self.charges(),
            status=map(STATUSES.__getitem__, self.status.tolist()),
            health=map(HEALTHS.__getitem__, self.health.tolist()),
        )
        return _filled(LogRecord, len(self), sample=samples, apps=map(kept.__getitem__, self.apps.tolist()))

    def curve(self, tail: int | None = None) -> list[tuple[int, int]]:
        """(ts_ms, level_pct) pairs: every row for tail None, else the last tail rows (the real-time view)."""
        start = 0
        if tail is not None:
            if tail < 0:
                raise ValueError(f"tail must be non-negative: {tail}")
            start = max(len(self) - tail, 0)
        return list(zip(self.ts[start:].tolist(), self.level[start:].tolist()))


def _concat(parts: list[LogColumns], apps: _AppTable) -> LogColumns:
    """One LogColumns of parts, whose app ids all come from apps; it empties parts."""
    if not parts:
        return _columns_of_records([], apps)
    columns = {name: np.concatenate([getattr(part, name) for part in parts]) for name in _COLUMNS}
    parts.clear()  # free the blocks before the check, so that it adds nothing to the read's peak memory
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
    ints = [_int_column(list(map(operator.attrgetter(field), samples))) for field in LOG_FIELDS[:4]]
    charge = [s.charge_uah for s in samples]
    app_lists = [record.apps for record in records]
    distinct = list(dict.fromkeys(app_lists))
    ids = dict(zip(distinct, apps.list_ids(distinct)))
    return LogColumns(
        **dict(zip(_COLUMNS, ints)),
        charge=_int_column([0 if c is None else c for c in charge]),
        charge_null=np.array([c is None for c in charge], dtype=bool),
        status=_member_codes([s.status for s in samples], STATUSES),
        health=_member_codes([s.health for s in samples], HEALTHS),
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
    of its apps text.  None where a value has a leading zero or
    LogColumns refuses a row.
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
    status, health = (_word_codes(buf, *span, members) for members, span in zip((STATUSES, HEALTHS), spans))
    try:
        return LogColumns(
            ts=ts,
            level=level,
            voltage=voltage,
            temp=temp,
            charge=charge,
            charge_null=charge_null,
            status=status,
            health=health,
            apps=set_ids,
            app_names=apps.names,
            app_ids=apps.sets,
        )
    except ValueError:  # a faulty row: the block is read line by line
        return None


def _faulty(c: LogColumns, rows: int) -> np.ndarray:
    """Which of c's first `rows` rows break a rule of BatterySample, or hold
    a status, health or set id that is no index from 0 into STATUSES,
    HEALTHS or app_ids."""
    level, voltage, charge, charge_null, status, health, apps = (
        getattr(c, name)[:rows] for name in ("level", "voltage", "charge", "charge_null", "status", "health", "apps")
    )
    faulty = (level < 0) | (level > 100)
    faulty |= (voltage <= 0) & (status != _UNKNOWN_STATUS)
    faulty |= (charge < 0) & ~charge_null
    faulty |= (status < 0) | (status >= len(STATUSES))
    faulty |= (health < 0) | (health >= len(HEALTHS))
    faulty |= (apps < 0) | (apps >= len(c.app_ids))
    return faulty


def _first_not_int(column: np.ndarray) -> int:
    """The first row of column whose value does not list as exactly an int, or len(column).

    Every value of an int64 column lists as one, and none of a column of
    another dtype than object.
    """
    if column.dtype == object:
        not_int = map(operator.is_not, map(type, column), itertools.repeat(int))
        return next(itertools.compress(itertools.count(), not_int), len(column))
    return len(column) if column.dtype == np.int64 else 0


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
