import csv
import dataclasses
import errno
import gc
import hashlib
import json
import logging
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semo import (
    AppSet,
    BatteryHealth,
    BatterySample,
    BatteryStatus,
    FileTreeSource,
    LogLocked,
    LogParseError,
    LogRecord,
    LogWriter,
    MalformedField,
    MissingField,
    NonMonotonicTimestamp,
    RecorderConfig,
    SimulatedClock,
    load_log,
    run_loop,
    sample_once,
    simulate,
    table1_scenario,
    write_log,
)
import semo.recorder as recorder_module
from semo.recorder import (
    HEALTHS,
    LOG_FIELDS,
    STATUSES,
    LogColumns,
    export_columns_csv,
    load_columns,
    record_from_json,
    record_to_json,
    sample_dict,
)
from semo.sources import make_app_set

from _helpers import ReplaySource, make_record, make_sample, write_source_dir


class TestAppendAndLoad:
    def test_single_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with LogWriter(path) as writer:
            writer.append(make_record(1000, 80, apps=("a",)))
        assert len(path.read_text().splitlines()) == 1

    def test_round_trip_three_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [make_record(t, 80 - i, apps=("x",)) for i, t in enumerate((1000, 2000, 3000))]
        with LogWriter(path) as writer:
            for record in records:
                writer.append(record)
        assert load_log(path) == records

    def test_equal_timestamp_rejected(self, tmp_path):
        with LogWriter(tmp_path / "log.jsonl") as writer:
            writer.append(make_record(1000, 80))
            with pytest.raises(NonMonotonicTimestamp):
                writer.append(make_record(1000, 79))

    def test_resumes_after_existing_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [make_record(1000, 80)])
        with LogWriter(path) as writer:
            assert writer.last_ts_ms == 1000
            with pytest.raises(NonMonotonicTimestamp):
                writer.append(make_record(500, 79))
            writer.append(make_record(1500, 79))
        assert [r.sample.ts_ms for r in load_log(path)] == [1000, 1500]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.touch()
        assert load_log(path) == []

    def test_second_writer_locked_out(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with LogWriter(path):
            with pytest.raises(LogLocked):
                LogWriter(path)
        LogWriter(path).close()  # released on close


def _with(record: LogRecord, **fields) -> LogRecord:
    return LogRecord(sample=dataclasses.replace(record.sample, **fields), apps=record.apps)


GOOD = make_record(2000, 79, apps=("a", "b"))
# Builders of records whose line the reader would reject, each with the ValueError that building raises.
UNREADABLE_RECORDS = {
    "float level": (lambda: _with(GOOD, level_pct=50.0), "field level_pct must be an integer, got 50.0"),
    "bool level": (lambda: _with(GOOD, level_pct=True), "field level_pct must be an integer, got True"),
    "float ts": (lambda: _with(GOOD, ts_ms=2000.0), "field ts_ms must be an integer, got 2000.0"),
    "bool charge": (lambda: _with(GOOD, charge_uah=False), "field charge_uah must be an integer, got False"),
    "status string": (
        lambda: _with(GOOD, status="Discharging"),
        "unknown status/health: 'Discharging'/<BatteryHealth.GOOD: 'Good'>",
    ),
    "unsorted apps": (lambda: LogRecord(GOOD.sample, ("b", "a")), "apps must be sorted and unique"),
    "padded app": (lambda: LogRecord(GOOD.sample, (" x",)), "app name ' x' has surrounding whitespace"),
    "empty app": (lambda: LogRecord(GOOD.sample, ("",)), "app names must be non-empty strings"),
    "non-string app": (lambda: LogRecord(GOOD.sample, ("a", 1)), "app names must be non-empty strings"),
    "unhashable app": (lambda: LogRecord(GOOD.sample, ("a", ["b"])), "app names must be non-empty strings"),
    "apps list": (lambda: LogRecord(GOOD.sample, ["a", "b"]), "apps must be a tuple of strings, got ['a', 'b']"),
    "apps None": (lambda: LogRecord(GOOD.sample, None), "apps must be a tuple of strings, got None"),
    "apps str": (lambda: LogRecord(GOOD.sample, "ab"), "apps must be a tuple of strings, got 'ab'"),
    "apps empty str": (lambda: LogRecord(GOOD.sample, ""), "apps must be a tuple of strings, got ''"),
    "lone surrogate app": (lambda: LogRecord(GOOD.sample, ("\ud800",)), "app names must be valid UTF-8 text"),
}


class TestARecordTheReaderRejectsIsNeverBuilt:
    @pytest.mark.parametrize("build, message", UNREADABLE_RECORDS.values(), ids=UNREADABLE_RECORDS.keys())
    def test_building_it_raises(self, build, message):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message

    def test_sample_must_be_a_battery_sample(self):
        with pytest.raises(ValueError, match=r"^sample must be a BatterySample, got \{'ts_ms': 2000\}$"):
            LogRecord({"ts_ms": 2000}, ("a",))


class TestRecordsHoldAppSets:
    def test_a_tuple_is_stored_as_its_app_set(self):
        record = LogRecord(GOOD.sample, ("a",))
        assert type(record.apps) is AppSet and record.apps == ("a",)

    def test_an_app_set_is_kept_as_it_is(self):
        apps = AppSet(("a", "b"))
        assert LogRecord(GOOD.sample, apps).apps is apps

    @pytest.mark.parametrize("canonical", [True, False])  # read as columns, or line by line by record_from_json
    def test_read_records_share_one_app_set_per_set(self, tmp_path, canonical):
        sets = [("a",), ("a", "b"), (), ("a",), ("a", "b"), ()]
        records = [make_record(1000 * (i + 1), 80, apps=apps) for i, apps in enumerate(sets)]
        path = tmp_path / "log.jsonl"
        if canonical:
            write_log(path, records)
        else:  # json.dumps' default spacing is not the canonical form
            path.write_text("".join(json.dumps(json.loads(record_to_json(r))) + "\n" for r in records))
        for read in (load_log(path), load_columns(path).records(), LogColumns.from_records(records).records()):
            assert read == records
            assert all(type(record.apps) is AppSet for record in read)
            assert [read[i].apps is read[i + 3].apps for i in range(3)] == [True] * 3

    def test_columns_of_records_hand_back_the_records_own_sets(self):
        a, ab = AppSet(("a",)), AppSet(("a", "b"))
        records = [LogRecord(make_sample(1000 * (i + 1), 80), apps) for i, apps in enumerate([ab, a, AppSet(), ab, a])]
        columns = LogColumns.from_records(records)
        assert all(read.apps is record.apps for read, record in zip(columns.records(), records))
        # an equal but distinct set reads back as the first of its kind
        copy = LogRecord(make_sample(9000, 80), AppSet(("a", "b")))
        assert LogColumns.from_records([*records, copy]).records()[-1].apps is ab

    def test_sample_once_gives_an_app_set(self, tmp_path):
        record = sample_once(FileTreeSource(write_source_dir(tmp_path)), SimulatedClock(42))
        assert type(record.apps) is AppSet


DISCHARGING = STATUSES.index(BatteryStatus.DISCHARGING)
UNKNOWN = STATUSES.index(BatteryStatus.UNKNOWN)


def hand_columns(**columns) -> dict:
    """Three valid rows as hand-built columns, ts to apps, with the given columns put in."""
    base = dict(
        ts=np.array([1000, 2000, 3000]),
        level=np.array([80, 79, 78]),
        voltage=np.array([3800, 3790, 3780]),
        temp=np.array([250, 250, 251]),
        charge=np.array([5, 4, 3]),
        charge_null=np.zeros(3, dtype=bool),
        status=np.full(3, DISCHARGING, dtype=np.int8),
        health=np.zeros(3, dtype=np.int8),
        apps=np.array([0, 1, 0]),
    )
    return {**base, **columns}


# The sets that hand_built's name ids make.
HAND_SETS = [AppSet(("a",)), AppSet(("a", "b"))]


def hand_built(app_sets=None, **columns) -> LogColumns:
    """LogColumns of hand_columns(**columns) over the names a and b, holding HAND_SETS.

    app_sets, when given, stands in for those sets, one stand-in list of
    name ids each.
    """
    app_ids = [np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32)]
    if app_sets is not None:
        app_ids = [np.zeros(0, dtype=np.int32)] * len(app_sets)
    built = LogColumns(**hand_columns(**columns), app_names=["a", "b"], app_ids=app_ids)
    if app_sets is not None:
        object.__setattr__(built, "app_sets", app_sets)
    return built


def code_of(members, column: np.ndarray, row: int):
    """members[column[row]], the code counted from 0 in an integer column; IndexError otherwise."""
    code = column.tolist()[row]
    if column.dtype.kind not in "iu" or not 0 <= code < len(members):
        raise IndexError(f"code {code!r} of a {column.dtype} column indexes none of {len(members)}")
    return members[code]


def reference_records(columns: dict, app_sets: list) -> list[LogRecord]:
    """Every row of columns, ts to apps, built by the checked constructors, one row after another.

    charge_null must be a bool column, and a null charge must still be
    an int.  The first row that breaks a rule raises its error, of its
    type, with "row <i>: " put before its message.
    """
    values = {name: column.tolist() for name, column in columns.items()}
    records = []
    for row in range(len(values["ts"])):
        try:
            if columns["charge_null"].dtype != bool:
                raise TypeError(f"charge_null is a {columns['charge_null'].dtype} column")
            status = code_of(STATUSES, columns["status"], row)
            health = code_of(HEALTHS, columns["health"], row)
            apps = code_of(app_sets, columns["apps"], row)
            ts, level, voltage, temp, charge = (
                values[name][row] for name in ("ts", "level", "voltage", "temp", "charge")
            )
            if values["charge_null"][row] and type(charge) is int:
                charge = None
            records.append(LogRecord(BatterySample(ts, level, voltage, temp, charge, status, health), apps))
        except (IndexError, TypeError, ValueError) as exc:
            raise type(exc)(f"row {row}: {exc}") from None
    return records


def records_or_error(build):
    """What build gives, or the type and message of the error it raises."""
    try:
        return build()
    except (IndexError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_refused_as_reference(message: str, reference) -> None:
    """message names the row that the reference refused, and is its message where a constructor refused it."""
    kind, expected = reference
    assert message.split(": ")[0] == expected.split(": ")[0]
    if kind is ValueError:
        assert message == expected


def as_column(values: list, dtype=None) -> np.ndarray:
    """values as a column of dtype; by default int64 where each is an int that fits, else object."""
    if dtype is None:
        dtype = np.int64 if all(type(v) is int and -(2**63) <= v < 2**63 for v in values) else object
    return np.array(values, dtype=dtype)


def assert_exact_types(records):
    """Each integer field is exactly an int (charge may be None) and each apps exactly an AppSet."""
    for record in records:
        s = record.sample
        assert all(type(v) is int for v in (s.ts_ms, s.level_pct, s.voltage_mv, s.temp_dc)), s
        assert s.charge_uah is None or type(s.charge_uah) is int, s
        assert type(record.apps) is AppSet, record


# Hand-built columns that each break one rule of LogColumns, with where
# the rule refuses them ("built": LogColumns itself; "records": records(),
# for a set that LogRecord refuses) and the message, or None where the
# columns are valid.
BROKEN_COLUMNS = {
    "float64 ts": (
        dict(ts=np.array([1000.0, 2000.0, 3000.0])),
        ("built", "row 0: field ts_ms must be an integer, got 1000.0"),
    ),
    "float in object charge": (
        dict(charge=np.array([5, 4.0, 3], dtype=object)),
        ("built", "row 1: field charge_uah must be an integer, got 4.0"),
    ),
    "bool in object charge": (
        dict(charge=np.array([5, True, 3], dtype=object)),
        ("built", "row 1: field charge_uah must be an integer, got True"),
    ),
    "int past int64 in object ts": (dict(ts=np.array([1000, 2000, 2**70], dtype=object)), None),
    "level 101": (dict(level=np.array([80, 101, 78])), ("built", "row 1: level_pct out of range 0..100: 101")),
    "level -1": (dict(level=np.array([80, 79, -1])), ("built", "row 2: level_pct out of range 0..100: -1")),
    "voltage 0 discharging": (
        dict(voltage=np.array([3800, 0, 3780])),
        ("built", "row 1: voltage_mv must be positive: 0"),
    ),
    "voltage 0 unknown": (
        dict(voltage=np.array([3800, 0, 3780]), status=np.array([DISCHARGING, UNKNOWN, DISCHARGING], dtype=np.int8)),
        None,
    ),
    "charge -1": (dict(charge=np.array([5, -1, 3])), ("built", "row 1: charge_uah must be non-negative: -1")),
    "charge -1 null": (dict(charge=np.array([5, -1, 3]), charge_null=np.array([False, True, False])), None),
    # an int64 charge_null would index rows where a bool one masks them
    "charge -1 int64 null": (
        dict(charge=np.array([5, 4, -1]), charge_null=np.array([0, 0, 1])),
        ("built", "row 0: charge_null must be a bool column, got int64"),
    ),
    "status 5": (
        dict(status=np.array([DISCHARGING, len(STATUSES), DISCHARGING], dtype=np.int8)),
        ("built", "row 1: status code must be a non-negative integer below 5, got 5"),
    ),
    "status -1": (
        dict(status=np.array([DISCHARGING, -1, DISCHARGING], dtype=np.int8)),
        ("built", "row 1: status code must be a non-negative integer below 5, got -1"),
    ),
    "health 7": (
        dict(health=np.array([0, 0, len(HEALTHS)], dtype=np.int8)),
        ("built", "row 2: health code must be a non-negative integer below 7, got 7"),
    ),
    "apps id past app_sets": (
        dict(apps=np.array([0, 2, 0])),
        ("built", "row 1: apps code must be a non-negative integer below 2, got 2"),
    ),
    "apps id -1": (
        dict(apps=np.array([0, -1, 0])),
        ("built", "row 1: apps code must be a non-negative integer below 2, got -1"),
    ),
    "plain tuple set": (dict(app_sets=[("a",), AppSet(("a", "b"))]), None),
    "unsorted tuple set": (
        dict(app_sets=[AppSet(("a",)), ("b", "a")]),
        ("records", "apps must be sorted and unique"),
    ),
    "list set": (
        dict(app_sets=[["a"], AppSet(("a", "b"))]),
        ("records", "apps must be a tuple of strings, got ['a']"),
    ),
    "first failing row wins": (
        dict(level=np.array([80, 79, 101]), voltage=np.array([3800, 0, 3780])),
        ("built", "row 1: voltage_mv must be positive: 0"),
    ),
    "status past STATUSES before a bad level": (
        dict(level=np.array([80, 79, 101]), status=np.array([DISCHARGING, len(STATUSES), DISCHARGING], dtype=np.int8)),
        ("built", "row 1: status code must be a non-negative integer below 5, got 5"),
    ),
    "health past HEALTHS before a bad level": (
        dict(level=np.array([80, 79, 101]), health=np.array([0, len(HEALTHS), 0], dtype=np.int8)),
        ("built", "row 1: health code must be a non-negative integer below 7, got 7"),
    ),
}


class TestRecordsOfColumns:
    """LogColumns is valid once built: it refuses what the checked
    constructors refuse, and records() only fills what they would build."""

    @pytest.mark.parametrize("columns, expected", BROKEN_COLUMNS.values(), ids=BROKEN_COLUMNS.keys())
    def test_each_rule_gives_what_the_constructors_give(self, columns, expected):
        arrays = {name: column for name, column in columns.items() if name != "app_sets"}
        app_sets = columns.get("app_sets", HAND_SETS)
        reference = records_or_error(lambda: reference_records(hand_columns(**arrays), app_sets))
        if expected is None:
            got = hand_built(**columns).records()
            assert got == reference
            assert_exact_types(got)
            return
        when, message = expected
        if when == "built":
            with pytest.raises(ValueError) as refused:
                hand_built(**columns)
            assert str(refused.value) == message
            assert_refused_as_reference(message, reference)
        else:  # refused when records() keeps the set as LogRecord does, with no row to name
            built = hand_built(**columns)
            with pytest.raises(ValueError) as refused:
                built.records()
            assert str(refused.value) == message
            assert reference[0] is ValueError and reference[1].split(": ", 1)[1] == message

    def test_a_plain_tuple_set_is_made_into_one_app_set(self):
        records = hand_built(app_sets=[("a",), AppSet(("a", "b"))]).records()
        assert records[0].apps is records[2].apps

    def test_records_build_no_row_by_a_constructor(self):
        built, want = hand_built(), reference_records(hand_columns(), HAND_SETS)
        no_row = AssertionError("a row built by its constructor")
        with mock.patch.object(BatterySample, "__post_init__", side_effect=no_row):
            with mock.patch.object(LogRecord, "__post_init__", side_effect=no_row):
                got = built.records()
        assert got == want

    @pytest.mark.parametrize(
        "columns",
        [dict(level=np.array([80, 79])), dict(apps=np.array([0])), dict(ts=np.array([[1000, 2000, 3000]]))],
        ids=["short level", "one set id", "two-dimensional ts"],
    )
    def test_columns_of_other_lengths_are_refused(self, columns):
        with pytest.raises(ValueError, match="^columns must be one-dimensional and of one length"):
            hand_built(**columns)

    def test_an_integer_column_of_another_dtype_is_refused(self):
        with pytest.raises(ValueError) as refused:
            hand_built(ts=np.array([1000, 2000, 3000], dtype=np.int32))
        assert str(refused.value) == (
            "row 0: integer fields must be int64 columns or object columns of ints,"
            " got int32, int64, int64, int64, int64"
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_columns_give_what_the_constructors_give(self, data):
        n = data.draw(st.integers(1, 5), label="rows")

        def rows(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        pool = [AppSet(("a",)), ("a", "b"), AppSet(), ("b", "a"), ["a"]]
        app_sets = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3), label="app_sets")
        values = dict(
            ts=rows(st.integers(-(2**70), 2**70)),
            level=rows(st.integers(0, 100)),
            voltage=rows(st.integers(1, 2**70)),
            temp=rows(st.integers(-(2**70), 2**70)),
            charge=rows(st.integers(0, 2**70)),
            charge_null=rows(st.booleans()),
            status=rows(st.integers(0, len(STATUSES) - 1)),
            health=rows(st.integers(0, len(HEALTHS) - 1)),
            apps=rows(st.integers(0, len(app_sets) - 1)),
        )
        faults = [
            ("ts", 1.5),
            ("level", 101),
            ("level", -1),
            ("voltage", 0),  # valid where the status is Unknown
            ("charge", -1),  # valid where charge is null
            ("charge", True),
            ("charge", 2.0),
            ("status", -1),
            ("status", len(STATUSES)),
            ("health", len(HEALTHS)),
            ("apps", -1),
            ("apps", -len(app_sets) - 2),
            ("apps", len(app_sets)),
        ]
        placed = st.tuples(st.sampled_from(faults), st.integers(0, n - 1))
        for (name, value), row in data.draw(st.lists(placed, max_size=2), label="faults"):
            values[name][row] = value
        dtypes = {"charge_null": bool}
        # at times one column recast to float64 or object, or charge_null to int64
        recast = st.tuples(st.sampled_from(list(values)), st.sampled_from([float, object]))
        recast |= st.just(("charge_null", np.int64))
        recast = data.draw(st.none() | recast, label="recast")
        if recast is not None:
            dtypes[recast[0]] = recast[1]
        columns = {name: as_column(v, dtypes.get(name)) for name, v in values.items()}
        # building raises exactly where the constructors refuse a row, sets aside
        reference = records_or_error(lambda: reference_records(columns, [AppSet()] * len(app_sets)))
        built = records_or_error(lambda: hand_built(app_sets=app_sets, **columns))
        if type(reference) is tuple:
            assert type(built) is tuple and built[0] is ValueError, built
            assert_refused_as_reference(built[1], reference)
            return
        assert type(built) is LogColumns, built
        # each set is kept once, used or not, as LogRecord keeps it
        kept = records_or_error(lambda: [LogRecord(GOOD.sample, app_set) for app_set in app_sets])
        got = records_or_error(built.records)
        if type(kept) is tuple:
            assert got == kept
        else:
            assert got == reference_records(columns, app_sets)
            assert_exact_types(got)


class TestWritersShareOneCheckedLine:
    @pytest.mark.parametrize("ts", [60_000, 120_000])
    def test_write_log_refuses_out_of_order(self, tmp_path, ts):
        path = tmp_path / "log.jsonl"
        first = make_record(120_000, 80)
        with pytest.raises(NonMonotonicTimestamp, match=f"^ts {ts} not above last written 120000$"):
            write_log(path, [first, make_record(ts, 79), make_record(180_000, 78)])
        assert load_log(path) == [first]

    def test_table1_written_byte_identically(self, tmp_path):
        records = simulate(table1_scenario())
        _, error = written_both_ways(tmp_path, records)
        assert error is None
        assert load_log(tmp_path / "a.jsonl") == records


def written_both_ways(directory, records):
    """Write records with write_log and with LogWriter appends, which must agree byte for byte.

    Returns the bytes written and the message of the NonMonotonicTimestamp
    both writers stopped at, or None when they wrote every record.
    """
    errors = []
    try:
        write_log(directory / "a.jsonl", records)
    except NonMonotonicTimestamp as exc:
        errors.append(str(exc))
    with LogWriter(directory / "b.jsonl") as writer:
        try:
            for record in records:
                writer.append(record)
        except NonMonotonicTimestamp as exc:
            errors.append(str(exc))
    written = (directory / "a.jsonl").read_bytes()
    assert (directory / "b.jsonl").read_bytes() == written
    assert len(errors) in (0, 2) and len(set(errors)) <= 1
    return written, errors[0] if errors else None


def reference_line(record: LogRecord) -> str:
    """The line as json.dumps wrote it before record_to_json formatted it directly."""
    payload = sample_dict(record.sample)
    payload["apps"] = record.apps
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=False)


huge_ints = st.integers(-(2**80), 2**80)
tricky_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00", "\x1f\x7f", "\U0001f600", "\U00010000x", "a\u2028b", "\\u0041"]
)


@st.composite
def valid_records(draw):
    status = draw(st.sampled_from(BatteryStatus))
    sample = BatterySample(
        ts_ms=draw(huge_ints),
        level_pct=draw(st.integers(0, 100)),
        voltage_mv=draw(huge_ints if status is BatteryStatus.UNKNOWN else st.integers(1, 2**80)),
        temp_dc=draw(huge_ints),
        charge_uah=draw(st.none() | st.integers(0, 2**80)),
        status=status,
        health=draw(st.sampled_from(BatteryHealth)),
    )
    return LogRecord(sample=sample, apps=make_app_set(draw(st.lists(tricky_names, max_size=5))))


@st.composite
def records_sharing_sets(draw):
    """Records whose apps come from a few AppSets, each record holding one of
    them or an equal copy: runs that share one object, equal but distinct
    sets, and sets that come back after another."""
    pool = draw(st.lists(st.lists(tricky_names, max_size=5).map(make_app_set), min_size=1, max_size=3))
    records = draw(st.lists(valid_records(), max_size=8))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), min_size=len(records), max_size=len(records)))
    shared = [LogRecord(record.sample, AppSet(apps) if copy else apps) for record, (apps, copy) in zip(records, picks)]
    assert all((record.apps is apps) != copy for record, (apps, copy) in zip(shared, picks))
    return shared


@settings(max_examples=100, deadline=None)
@given(records=st.lists(valid_records(), max_size=6) | records_sharing_sets(), ordered=st.booleans())
def test_write_log_and_log_writer_write_the_same_bytes(tmp_path_factory, records, ordered):
    if ordered:
        records = [replace_ts(record, 1000 * i) for i, record in enumerate(records)]
    written, error = written_both_ways(tmp_path_factory.mktemp("logs"), records)
    kept = written.count(b"\n")
    assert (error is None) == (kept == len(records))
    assert written == b"".join(record_to_json(record).encode() + b"\n" for record in records[:kept])


def test_write_log_memo_follows_each_record_s_own_set(tmp_path):
    """One AppSet object over a run, an equal copy, a set that comes back, and names that need escapes."""
    quoted, other = make_app_set(['a"b\\c', "\x00", "\u2028"]), make_app_set(["plain"])
    apps = [quoted, quoted, AppSet(quoted), other, quoted, AppSet(), other, other]
    records = [LogRecord(make_sample(1000 * i, 80), app_set) for i, app_set in enumerate(apps)]
    written, error = written_both_ways(tmp_path, records)
    assert error is None
    assert written == b"".join(reference_line(record).encode() + b"\n" for record in records)
    assert load_log(tmp_path / "a.jsonl") == records


@settings(max_examples=100, deadline=None)
@given(records=records_sharing_sets())
def test_each_append_writes_its_record_s_line(tmp_path_factory, records):
    """Appends of records that share one AppSet object, hold an equal copy or
    another set: each append adds exactly record_to_json of its record."""
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    with LogWriter(path) as writer:
        for i, record in enumerate(records):
            record = replace_ts(record, 1000 * i)
            size = path.stat().st_size
            writer.append(record)
            assert path.read_bytes()[size:] == record_to_json(record).encode() + b"\n"


def test_append_spells_each_new_set_even_at_a_freed_set_s_address(tmp_path):
    """Each record's AppSet is dropped after its append, so the next may be
    made at the same address: the writer must still spell the new one."""
    path = tmp_path / "log.jsonl"
    names = [("a",), ("b",), ("a",), ("c", "d"), ()]
    with LogWriter(path) as writer:
        for i, apps in enumerate(names * 20):
            writer.append(LogRecord(make_sample(1000 * i, 80), AppSet(apps)))
    assert [record.apps for record in load_log(path)] == names * 20


@pytest.mark.parametrize(
    "refused_at",
    [1, recorder_module.WRITE_BATCH, recorder_module.WRITE_BATCH + 3, 2 * recorder_module.WRITE_BATCH + 1],
)
def test_write_log_keeps_every_line_before_a_refused_record(tmp_path, refused_at):
    """A record out of order past the first batch: the lines of the batches
    written and of the one still pending are all on disk, and the message is
    the one LogWriter gives."""
    records = [make_record(1000 * i, 80, apps=("a",)) for i in range(2 * recorder_module.WRITE_BATCH + 5)]
    last_ts = records[refused_at - 1].sample.ts_ms
    records[refused_at] = replace_ts(records[refused_at], last_ts)
    _, error = written_both_ways(tmp_path, records)
    assert error == f"ts {last_ts} not above last written {last_ts}"
    assert load_log(tmp_path / "a.jsonl") == records[:refused_at]


@settings(max_examples=300, deadline=None)
@given(record=valid_records())
def test_record_to_json_writes_what_json_dumps_wrote(tmp_path_factory, record):
    line = record_to_json(record)
    assert line == reference_line(record)
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    path.write_bytes(line.encode() + b"\n")
    assert load_log(path) == [record]


# st.characters() leaves out category Cs, the surrogates; draw names with them half the time.
any_names = st.text(st.characters(blacklist_categories=())) | st.text(
    st.characters(whitelist_categories=("Cs",)) | st.characters(), min_size=1
)


@settings(max_examples=200, deadline=None)
@given(names=st.lists(any_names, max_size=3))
def test_any_app_names_round_trip_or_are_refused(tmp_path_factory, names):
    """Text names, lone surrogates included: the log keeps them, or building the record refuses them."""
    try:
        record = make_record(1000, 80, apps=names)
    except ValueError as exc:
        assert str(exc) == "app names must be valid UTF-8 text"
        assert any("\ud800" <= char <= "\udfff" for name in names for char in name)
    else:
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        write_log(path, [record])
        assert load_log(path) == [record]


not_ints = (
    st.floats()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.text(max_size=2)
    | st.lists(st.integers(), max_size=1)
)
raw_names = st.lists(tricky_names | any_names | st.sampled_from([" a", "b ", "\ud800", ""]), max_size=4)
# For each field, values of any kind: of the right type, out of range, or of a type the log cannot hold.
ANY_FIELD_VALUES = {
    "ts_ms": not_ints | huge_ints,
    "level_pct": not_ints | st.integers(-5, 105),
    "voltage_mv": not_ints | st.integers(-5, 5),
    "temp_dc": not_ints | st.none(),
    "charge_uah": not_ints | st.integers(-5, 5),
    "status": st.sampled_from([status.value for status in BatteryStatus]) | st.sampled_from(BatteryHealth) | st.none(),
    "health": st.sampled_from([health.value for health in BatteryHealth]) | st.sampled_from(BatteryStatus),
    "apps": raw_names.map(tuple) | raw_names | st.none() | st.text(max_size=2),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_record_that_can_be_built_can_be_written_and_read_back(tmp_path_factory, data):
    """Building a record with any field values raises ValueError, or the log and the columns keep it unchanged."""
    valid = data.draw(valid_records(), label="valid")
    fields = {name: getattr(valid.sample, name) for name in LOG_FIELDS[:-1]}
    fields["apps"] = valid.apps
    for name in data.draw(st.sets(st.sampled_from(LOG_FIELDS), max_size=3), label="changed"):
        fields[name] = data.draw(ANY_FIELD_VALUES[name], label=name)
    apps = fields.pop("apps")
    try:
        record = LogRecord(BatterySample(**fields), apps)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    write_log(path, [record])
    assert load_log(path) == [record]
    read = LogColumns.from_records([record]).records()
    assert read == [record]
    assert_exact_types(read)


# One line per rule of the log, each as line 2 of a log, with the error that load_log and LogWriter give.
ONE_FAULT_PER_RULE = [
    *[
        (key, value, f"field {key} must be an integer, got {value!r}")
        for key in ("ts_ms", "level_pct", "voltage_mv", "temp_dc")
        for value in (79.5, True)
    ],
    ("charge_uah", 79.5, "field charge_uah must be an integer or null, got 79.5"),
    ("charge_uah", True, "field charge_uah must be an integer or null, got True"),
    ("charge_uah", "7", "field charge_uah must be an integer or null, got '7'"),
    ("status", "Sleeping", "unknown status/health: 'Sleeping'/'Good'"),
    ("apps", ["b", "a"], "apps must be sorted and unique"),
    ("level_pct", 101, "level_pct out of range 0..100: 101"),
    ("voltage_mv", 0, "voltage_mv must be positive: 0"),
    ("charge_uah", -1, "charge_uah must be non-negative: -1"),
]


class TestStrictParsing:
    @pytest.mark.parametrize(
        "key, value, message", ONE_FAULT_PER_RULE, ids=[f"{key}={value!r}" for key, value, _ in ONE_FAULT_PER_RULE]
    )
    def test_each_rule_gives_its_pinned_error(self, tmp_path, key, value, message):
        payload = json.loads(record_to_json(make_record(2000, 79, apps=("a", "b"), charge_uah=7)))
        payload[key] = value
        path = tmp_path / "log.jsonl"
        path.write_text(record_to_json(make_record(1000, 80)) + "\n" + json.dumps(payload, separators=(",", ":")) + "\n")
        for read in (load_log, LogWriter):
            with pytest.raises(LogParseError) as refused:
                read(path)
            assert (refused.value.line, str(refused.value)) == (2, f"log line 2: {message}")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = record_to_json(make_record(1000, 80))
        path.write_text(good + "\n{not json\n")
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("ts_ms"),
            lambda d: d.update(extra=1),
            lambda d: d.update(level_pct=80.0),
            lambda d: d.update(level_pct=True),
            lambda d: d.update(level_pct=101),
            lambda d: d.update(charge_uah="many"),
            lambda d: d.update(status="Draining"),
            lambda d: d.update(health=3),
            lambda d: d.update(apps="browser"),
            lambda d: d.update(apps=["b", "a"]),
            lambda d: d.update(apps=["a", "a"]),
            lambda d: d.update(apps=[""]),
            lambda d: d.update(apps=[1]),
        ],
    )
    def test_schema_violations_raise(self, tmp_path, mutate):
        payload = json.loads(record_to_json(make_record(1000, 80, apps=("a", "b"))))
        mutate(payload)
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("field", ["status", "health"])
    @pytest.mark.parametrize("value", [[], {}, ["Good"], None, 3], ids=["list", "dict", "str-list", "null", "int"])
    def test_non_string_status_or_health_is_a_parse_error(self, tmp_path, field, value):
        payload = json.loads(record_to_json(make_record(2000, 79)))
        payload[field] = value
        path = tmp_path / "log.jsonl"
        path.write_text(record_to_json(make_record(1000, 80)) + "\n" + json.dumps(payload) + "\n")
        for read in (load_log, load_columns, LogWriter):
            with pytest.raises(LogParseError, match="^log line 2: unknown status/health: ") as exc:
                read(path)
            assert exc.value.line == 2

    @pytest.mark.parametrize(
        "bad_line,message",
        [
            (record_to_json(make_record(2000, 79, apps=("ab",))).encode().replace(b"ab", b"a\xffb"), "invalid UTF-8"),
            (b"[1,2]", "record must be a JSON object"),
            (
                record_to_json(make_record(2000, 79, apps=("ab",))).encode().replace(b"ab", b"\\ud800"),
                "app names must be valid UTF-8 text",
            ),
            (
                record_to_json(make_record(2000, 79))
                .encode()
                .replace(b'"Discharging"', b'"Discharging","status":"Charging"'),
                "duplicate field status",
            ),
        ],
        ids=["utf8-in-apps", "array", "lone-surrogate-in-apps", "repeated-status"],
    )
    def test_undecodable_or_non_object_line_is_a_parse_error(self, tmp_path, bad_line, message):
        path = tmp_path / "log.jsonl"
        path.write_bytes(record_to_json(make_record(1000, 80)).encode() + b"\n" + bad_line + b"\n")
        for read in (load_log, load_columns, LogWriter):
            with pytest.raises(LogParseError, match=f"^log line 2: {message}$") as exc:
                read(path)
            assert exc.value.line == 2

    def test_non_monotonic_across_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        lines = [record_to_json(make_record(2000, 80)), record_to_json(make_record(1000, 79))]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 2

    def test_non_monotonic_line_reported_before_a_later_malformed_one(self, tmp_path):
        path = tmp_path / "log.jsonl"
        lines = [record_to_json(make_record(2000, 80)), record_to_json(make_record(1000, 79)), "{not json"]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 2

    def test_null_charge_round_trips(self):
        record = make_record(1, 50)
        line = record_to_json(record)
        assert '"charge_uah":null' in line
        assert record_from_json(line) == record

    def test_exact_field_order(self):
        line = record_to_json(make_record(1, 50, apps=("a",), charge_uah=7))
        assert line == (
            '{"ts_ms":1,"level_pct":50,"voltage_mv":3900,"temp_dc":310,'
            '"charge_uah":7,"status":"Discharging","health":"Good","apps":["a"]}'
        )


# strategies for whole-log round trips
app_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=6
)
record_bodies = st.tuples(
    st.integers(0, 100),
    st.integers(1, 6000),
    st.integers(-200, 999),
    st.one_of(st.none(), st.integers(0, 5_000_000)),
    st.sampled_from(BatteryStatus),
    st.sampled_from(BatteryHealth),
    st.lists(app_names, max_size=4),
)


@settings(max_examples=50)
@given(deltas=st.lists(st.integers(1, 100_000), max_size=12), bodies=st.data())
def test_log_round_trip_property(tmp_path_factory, deltas, bodies):
    ts = 0
    records = []
    for delta in deltas:
        ts += delta
        level, voltage, temp, charge, status, health, apps = bodies.draw(record_bodies)
        sample = make_sample(
            ts, level, status=status, charge_uah=charge, voltage_mv=voltage,
            temp_dc=temp, health=health,
        )
        records.append(LogRecord(sample=sample, apps=make_app_set(apps)))
    path = tmp_path_factory.mktemp("logs") / "log.jsonl"
    with LogWriter(path) as writer:
        for record in records:
            writer.append(record)
    assert load_log(path) == records


def test_log_serialization_is_byte_stable(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [make_record(t, 90 - t // 1000, apps=("app", "другое")) for t in (1000, 2000, 3000)]
    write_log(path, records)
    original = path.read_bytes()
    reloaded = load_log(path)
    rewritten = "".join(record_to_json(r) + "\n" for r in reloaded).encode("utf-8")
    assert rewritten == original


def outcome(read, line):
    """What reading one line gives: the record, or the error with its line and message."""
    try:
        return read(line)
    except (LogParseError, ValueError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


def replace_ts(record, ts_ms):
    return LogRecord(sample=dataclasses.replace(record.sample, ts_ms=ts_ms), apps=record.apps)


def fields_of(record):
    """(key, value text) pairs of record_to_json's line, in written order."""
    payload = json.loads(record_to_json(record))
    return [(key, json.dumps(value, ensure_ascii=False, separators=(",", ":"))) for key, value in payload.items()]


def join_fields(fields, end="\n"):
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields) + "}" + end


NUMBER_SPELLINGS = [
    "-0", "007", "00", "1.0", "1e3", "5\u0660", "\u0665", "+5", "- 5", "true", '"5"', "2" * 30,
    "9" * 18, "-" + "9" * 18, str(2**63), str(-(2**63) - 1), "1" + "0" * 18, "-007", "-00", "0" + "9" * 17,
]
WORD_SPELLINGS = [
    '"Draining"', '"discharging"', '"Good "', '"Dis\\u0063harging"', '"G\\u006fod"', "null", "1",
    '""', '"Discharg"', '"Dischargingg"', '"Charginh"', '"Charging","status":"Discharging"',
]
APPS_SPELLINGS = [
    "[]", '["a\\"b"]', '["\u00e9"]', '["\\u00e9"]', '[" game"]', '["game "]', '["\\tgame"]', '["b","a"]',
    '["a","a"]', '[""]', "[1]", "[[]]", '[ "a" ]', '["a",]', '["a"]]', '["a"],"x":["b"]', '["\\ud800"]',
    '"a"', "null", '["a,b"]', '["a\\",\\"b"]', '["a"],"apps":["b"]',
]

# App lists drawn from a few names, so that names repeat across sets and
# blocks, and apps texts over those names: duplicates, wrong order,
# whitespace, names that are no strings, escapes, spacing, a lone surrogate.
NAME_POOL = ("a", "b", "game", "m", "z", "\u00e9")
pool_bodies = st.tuples(record_bodies, st.lists(st.sampled_from(NAME_POOL), max_size=4)).map(
    lambda pair: (*pair[0][:-1], pair[1])
)
POOL_APPS_SPELLINGS = [
    '["a","a"]', '["m","a"]', '["z","b","a"]', '[" a"]', '["game "]', '["b","\\tm"]', "[1]", '["a",1]',
    '[["a"]]', '["a",["b"]]', '["a",{"b":1}]', '["\\ud800"]', '["a","\\ud800"]', '["\\u0061","m"]',
    '["a", "b"]', '["a","b","game","m","z"]', "[]", '["m"],"x":["a"]',
]

SPELLINGS = {
    "ts_ms": NUMBER_SPELLINGS, "level_pct": NUMBER_SPELLINGS, "voltage_mv": NUMBER_SPELLINGS,
    "temp_dc": NUMBER_SPELLINGS, "charge_uah": NUMBER_SPELLINGS,
    "status": WORD_SPELLINGS, "health": WORD_SPELLINGS, "apps": APPS_SPELLINGS,
}


def mutate_line(data, record):
    """record_to_json's line for record, often changed so that the direct path misses it."""
    fields = fields_of(record)
    kind = data.draw(st.sampled_from(["none", "space", "order", "end", "value"]))
    end = "\n"
    if kind == "space":
        i = data.draw(st.integers(0, len(fields) - 1))
        key, text = fields[i]
        ws = data.draw(st.sampled_from([" ", "\t", "\r", "\u00a0"]))
        fields[i] = (key, data.draw(st.sampled_from([ws + text, text + ws])))
    elif kind == "order":
        fields = data.draw(st.permutations(fields))
    elif kind == "end":
        end = data.draw(st.sampled_from(["\r\n", " \n", "\n\n"]))
    elif kind == "value":
        i = data.draw(st.integers(0, len(fields) - 1))
        key = fields[i][0]
        fields[i] = (key, data.draw(st.sampled_from(SPELLINGS[key])))
    return join_fields(fields, end)


def read_line_by_line(data: bytes) -> list:
    """Reference reader: record_from_json on each committed line, then the timestamp check."""
    *lines, _torn = data.split(b"\n")
    records = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = (raw + b"\n").decode()
        except UnicodeDecodeError:
            raise LogParseError(lineno, "invalid UTF-8") from None
        record = record_from_json(line, lineno)
        if records and record.sample.ts_ms <= records[-1].sample.ts_ms:
            last = records[-1].sample.ts_ms
            raise LogParseError(lineno, f"timestamp {record.sample.ts_ms} not above previous {last}")
        records.append(record)
    return records


def read_every_way(path):
    """What load_log, load_columns and LogWriter give for one log, or their errors."""
    got = {
        "load_log": outcome(load_log, path),
        "load_columns": outcome(lambda p: load_columns(p).records(), path),
    }

    def resume(p):
        with LogWriter(p) as writer:
            return writer.last_ts_ms

    got["resume"] = outcome(resume, path)
    return got


def want_every_way(data: bytes):
    records = outcome(read_line_by_line, data)
    resumed = records
    if type(records) is list:
        resumed = records[-1].sample.ts_ms if records else None
    return {"load_log": records, "load_columns": records, "resume": resumed}


# One field of a line spelled otherwise: out of range, or each oracle spelling.
FIELD_SPELLINGS = (
    [("level_pct", "101"), ("level_pct", "-1"), ("charge_uah", "-5"), ("voltage_mv", "0"), ("temp_dc", "-0")]
    + [(key, text) for key in ("ts_ms", "charge_uah") for text in NUMBER_SPELLINGS]
    + [("status", text) for text in WORD_SPELLINGS]
    + [("apps", text) for text in APPS_SPELLINGS]
)


class TestDirectReading:
    """The block reader gives exactly what record_from_json gives, line by line."""

    def test_fields_of_rebuilds_the_written_line(self):
        record = make_record(5, 50, apps=("a", "é"), charge_uah=7)
        assert join_fields(fields_of(record)) == record_to_json(record) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(ts=st.integers(0, 2**53), body=record_bodies, data=st.data())
    def test_same_outcome_as_record_from_json(self, tmp_path_factory, ts, body, data):
        level, voltage, temp, charge, status, health, apps = body
        sample = make_sample(ts, level, status=status, charge_uah=charge, voltage_mv=voltage, temp_dc=temp, health=health)
        record = LogRecord(sample=sample, apps=make_app_set(apps))
        line = mutate_line(data, record).encode()
        # Canonical lines with the same apps around it: the reader has met
        # its apps text before, and the line sits inside a block.
        before = b"".join(f"{record_to_json(replace_ts(record, ts_ms))}\n".encode() for ts_ms in (-30, -20, -10))
        after = b"".join(f"{record_to_json(replace_ts(record, 2**54 + k))}\n".encode() for k in range(3))
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        for text in (line, before + line + after):
            path.write_bytes(text)
            assert read_every_way(path) == want_every_way(text)

    @pytest.mark.parametrize("key,text", FIELD_SPELLINGS)
    def test_every_spelling_loads_as_record_from_json_reads_it(self, tmp_path, key, text):
        fields = fields_of(make_record(1000, 80, apps=("a", "b"), charge_uah=10))
        fields[[k for k, _ in fields].index(key)] = (key, text)
        line = join_fields(fields)
        want = outcome(lambda text: [record_from_json(text, 2)], line)
        path = tmp_path / "log.jsonl"
        path.write_text(record_to_json(make_record(-(10**40), 90)) + "\n" + line, encoding="utf-8")
        assert outcome(lambda _: load_log(path)[1:], line) == want

    @pytest.mark.parametrize("key,text", FIELD_SPELLINGS)
    def test_every_spelling_after_a_canonical_line(self, tmp_path, key, text):
        """The block's first line is one the pattern matches, so the columns meet the spelling first."""
        fields = fields_of(make_record(1000, 80, apps=("a", "b"), charge_uah=10))
        fields[[k for k, _ in fields].index(key)] = (key, text)
        data = (record_to_json(make_record(-(10**17), 90)) + "\n" + join_fields(fields)).encode()
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        assert read_every_way(path) == want_every_way(data)

    def test_canonical_lines_load_without_record_from_json(self, tmp_path):
        """Canonical lines holding every kind of value are read as columns, never line by line."""
        big = 10**18 - 1  # 18 digits
        app_lists = [("a,b",), ('a","b', "z"), (), ("a", "é")]
        records = []
        for k, health in enumerate(HEALTHS):
            status = STATUSES[k % len(STATUSES)]
            records.append(make_record(
                [-big, -5, 0, 7, 60_000, 10**17, big][k],
                [0, 100, 5, 50, 99, 1, 42][k],
                apps=app_lists[k % len(app_lists)],
                status=status,
                health=health,
                charge_uah=[0, None, big, None, 123, None, 9][k],
                voltage_mv=-big if status is BatteryStatus.UNKNOWN else big - k,
                temp_dc=[-big, big, -1, 0, 310, -40, 10**17][k],
            ))
        assert {record.sample.status for record in records} == set(STATUSES)
        path = tmp_path / "log.jsonl"
        write_log(path, records)
        with mock.patch.object(recorder_module, "record_from_json", side_effect=AssertionError("read line by line")):
            columns = load_columns(path)
            with LogWriter(path) as writer:
                assert writer.last_ts_ms == big
        assert columns.ts.dtype == np.int64
        assert columns.charge_null.tolist() == [record.sample.charge_uah is None for record in records]
        assert columns.status.tolist() == [STATUSES.index(record.sample.status) for record in records]
        assert columns.health.tolist() == list(range(len(HEALTHS)))
        assert columns.records() == records

    def test_equal_app_lists_share_one_tuple(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [make_record(1000 * k, 80, apps=("browser", "café")) for k in range(1, 4)])
        records = load_log(path)
        assert records[0].apps == ("browser", "café")
        assert records[0].apps is records[1].apps is records[2].apps

    def test_equal_app_names_share_one_string(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, [
            make_record(1000, 80, apps=("browser", "café")),
            make_record(2000, 80, apps=("café",)),
        ])
        first, second = (record.apps for record in load_log(path))
        assert second == ("café",)
        assert second[0] is first[1]

    def test_app_name_with_surrounding_whitespace_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = record_to_json(make_record(1000, 80, apps=("game",)))
        path.write_text(good + "\n" + good.replace('"game"', '" game"').replace(":1000,", ":2000,") + "\n")
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 2
        assert "whitespace" in exc.value.detail


class TestBlockBoundaries:
    """Blocks of a few lines: every boundary position gives what line-by-line reading gives."""

    @settings(max_examples=200, deadline=None)
    @given(
        bodies=st.lists(record_bodies, min_size=1, max_size=16),
        block_bytes=st.integers(1, 1200),
        fault=st.sampled_from(["none", "mutated", "timestamp", "torn"]),
        data=st.data(),
    )
    def test_same_outcome_as_line_by_line(self, tmp_path_factory, bodies, block_bytes, fault, data):
        records = []
        for k, (level, voltage, temp, charge, status, health, apps) in enumerate(bodies):
            sample = make_sample(
                1000 * (k + 1), level, status=status, charge_uah=charge, voltage_mv=voltage,
                temp_dc=temp, health=health,
            )
            records.append(LogRecord(sample=sample, apps=make_app_set(apps)))
        lines = [record_to_json(record).encode() + b"\n" for record in records]
        k = data.draw(st.integers(0, len(lines) - 1))
        if fault == "mutated":
            lines[k] = mutate_line(data, records[k]).encode()
        elif fault == "timestamp":
            # equal to, or below, the timestamp of line k - 1
            ts_ms = data.draw(st.sampled_from([1000 * k, 1000 * k - 1, -1000]))
            lines[k] = record_to_json(replace_ts(records[k], ts_ms)).encode() + b"\n"
        text = b"".join(lines)
        if fault == "torn":
            text = text[: data.draw(st.integers(len(text) - len(lines[-1]) + 1, len(text) - 1))]
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        path.write_bytes(text)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", block_bytes):
            assert read_every_way(path) == want_every_way(text)

    @settings(max_examples=200, deadline=None)
    @given(
        bodies=st.lists(pool_bodies, min_size=1, max_size=16),
        block_bytes=st.integers(1, 1200),
        changed=st.lists(st.integers(0, 15), max_size=4),
        data=st.data(),
    )
    def test_shared_names_same_outcome_as_line_by_line(self, tmp_path_factory, bodies, block_bytes, changed, data):
        """Names repeat across sets and blocks, so a changed apps text meets names the reader already holds."""
        lines = []
        for k, (level, voltage, temp, charge, status, health, apps) in enumerate(bodies):
            sample = make_sample(
                1000 * (k + 1), level, status=status, charge_uah=charge, voltage_mv=voltage,
                temp_dc=temp, health=health,
            )
            fields = fields_of(LogRecord(sample=sample, apps=make_app_set(apps)))
            if k in changed:
                fields[-1] = ("apps", data.draw(st.sampled_from(POOL_APPS_SPELLINGS)))
            lines.append(join_fields(fields).encode())
        text = b"".join(lines)
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        path.write_bytes(text)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", block_bytes):
            assert read_every_way(path) == want_every_way(text)

    @pytest.mark.parametrize("refused", [False, True])
    def test_names_met_out_of_order_across_blocks(self, tmp_path, refused):
        """"m" gets its name id before "a" does, yet "a" sorts first."""
        sets = [("m",), ("a", "m")] + ([("m", "a")] if refused else [])
        lines = []
        for k, apps in enumerate(sets):
            fields = fields_of(make_record(1000 * (k + 1), 80))
            fields[-1] = ("apps", json.dumps(apps, separators=(",", ":")))
            lines.append(join_fields(fields))
        text = "".join(lines).encode()
        path = tmp_path / "log.jsonl"
        path.write_bytes(text)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", len(lines[0])), mock.patch.object(
            recorder_module, "_record_of_line", wraps=recorder_module._record_of_line
        ) as line_by_line:
            got = read_every_way(path)
        assert got == want_every_way(text)
        if refused:
            assert got["load_log"] == (LogParseError, 3, "log line 3: apps must be sorted and unique")
        else:
            assert [record.apps for record in got["load_log"]] == sets
            line_by_line.assert_not_called()  # both blocks were read as columns


class TestHugeIntegers:
    def line_with(self, key, text):
        fields = fields_of(make_record(2000, 80, apps=("a",), charge_uah=10))
        fields[[k for k, _ in fields].index(key)] = (key, text)
        return join_fields(fields)

    @pytest.mark.parametrize(
        "key,text",
        [("ts_ms", "1" * 5000), ("charge_uah", "7" * 5000), ("apps", "[" * 100_000 + "]" * 100_000)],
        ids=["5000-digit ts_ms", "5000-digit charge_uah", "deeply nested apps"],
    )
    def test_load_log_and_writer_raise_log_parse_error(self, tmp_path, key, text):
        path = tmp_path / "log.jsonl"
        first = record_to_json(make_record(1000, 80))
        path.write_text(first + "\n" + self.line_with(key, text), encoding="utf-8")
        for read in (load_log, load_columns, LogWriter):
            with pytest.raises(LogParseError) as exc:
                read(path)
            assert exc.value.line == 2
            assert exc.value.detail.startswith("invalid JSON: ")

    def test_integers_beyond_int64_load_exactly(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [make_record(10**30 + k, 80, charge_uah=2**63 + k, temp_dc=-(10**19)) for k in range(3)]
        write_log(path, records)
        assert load_log(path) == records
        columns = load_columns(path)
        assert columns.ts.dtype == object
        assert columns.records() == records
        with LogWriter(path) as writer:
            assert writer.last_ts_ms == 10**30 + 2


def test_writer_memory_flat_in_log_length(tmp_path):
    """Opening a LogWriter holds one block at a time, whatever the log's length."""
    peaks = []
    for n in (10_000, 40_000):
        path = tmp_path / f"log{n}.jsonl"
        # a distinct app list per line, so a table of app lists kept across blocks would grow
        write_log(path, (make_record(1 + i * 60_000, 50, apps=(f"app{i}",)) for i in range(n)))
        gc.collect()
        tracemalloc.start()
        try:
            LogWriter(path).close()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], f"peak {peaks[0]} B at 10k lines, {peaks[1]} B at 40k"


def _at_rest(st: os.stat_result) -> tuple[int, int, int]:
    """The device, inode and size of a stat result."""
    return st.st_dev, st.st_ino, st.st_size


class TestSyncOnClose:
    """LogWriter fsyncs the log once, on close, and only when it appended to it."""

    @pytest.fixture
    def synced(self, monkeypatch):
        """Each fsync call's file: its inode and its size at the call."""
        calls = []
        monkeypatch.setattr(recorder_module.os, "fsync", lambda fd: calls.append(_at_rest(os.fstat(fd))))
        return calls

    def test_appends_to_a_new_log_sync_it_and_its_directory_once_on_close(self, tmp_path, synced):
        path = tmp_path / "log.jsonl"
        writer = LogWriter(path)
        for i in range(3):
            writer.append(make_record(1000 * i, 80))
        assert synced == []
        writer.close()
        assert synced == [_at_rest(path.stat()), _at_rest(tmp_path.stat())] and len(load_log(path)) == 3
        writer.close()
        assert len(synced) == 2

    def test_appends_to_an_existing_log_sync_only_the_file(self, tmp_path, synced):
        path = tmp_path / "log.jsonl"
        write_log(path, [make_record(1000, 80)])
        with LogWriter(path) as writer:
            writer.append(make_record(2000, 79))
        assert synced == [_at_rest(path.stat())]

    def test_an_existing_empty_file_is_not_a_new_log(self, tmp_path, synced):
        path = tmp_path / "log.jsonl"
        path.touch()
        with LogWriter(path) as writer:
            writer.append(make_record(1000, 80))
        assert synced == [_at_rest(path.stat())]

    def test_a_new_log_with_no_append_syncs_nothing(self, tmp_path, synced):
        LogWriter(tmp_path / "log.jsonl").close()
        assert synced == [] and (tmp_path / "log.jsonl").exists()

    def test_a_writer_that_only_resumed_syncs_nothing(self, tmp_path, synced):
        path = tmp_path / "log.jsonl"
        write_log(path, [make_record(1000, 80)])
        with LogWriter(path) as writer:
            assert writer.last_ts_ms == 1000
            with pytest.raises(NonMonotonicTimestamp):
                writer.append(make_record(1000, 79))
        assert synced == []

    def test_run_loop_syncs_once(self, tmp_path, synced):
        clock = SimulatedClock(0)
        stop = threading.Event()
        _stop_after(clock, stop, 300_000)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        assert run_loop(config, ReplaySource(_endless_records(10)), clock, stop) == 6
        assert synced == [_at_rest(config.out_path.stat()), _at_rest(tmp_path.stat())]

    def test_a_file_that_cannot_be_synced_has_nothing_to_sync(self, tmp_path, monkeypatch):
        def fsync(fd):
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

        monkeypatch.setattr(recorder_module.os, "fsync", fsync)
        with LogWriter(tmp_path / "log.jsonl") as writer:
            writer.append(make_record(1000, 80))
        assert writer._fh.closed

    def test_a_failed_sync_raises_and_still_closes(self, tmp_path, monkeypatch):
        def fsync(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(recorder_module.os, "fsync", fsync)
        writer = LogWriter(tmp_path / "log.jsonl")
        writer.append(make_record(1000, 80))
        with pytest.raises(OSError) as failed:
            writer.close()
        assert failed.value.errno == errno.EIO and writer._fh.closed


class TestTornFinalLine:
    """A record counts once its newline is on disk; power loss can cut the last one short."""

    def records(self):
        return [make_record(1000 * k, 80 - k, apps=("browser", "café")) for k in range(1, 6)]

    def test_cut_anywhere_in_last_line(self, tmp_path, caplog):
        path = tmp_path / "log.jsonl"
        write_log(path, self.records())
        data = path.read_bytes()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        for cut in range(last_start + 1, len(data)):
            path.write_bytes(data[:cut])
            caplog.clear()
            assert load_log(path) == self.records()[:-1]
            assert f"({cut - last_start} bytes)" in caplog.text
            with LogWriter(path) as writer:
                assert writer.last_ts_ms == 4000
                writer.append(make_record(9000, 70))
            assert load_log(path) == self.records()[:-1] + [make_record(9000, 70)]

    def test_open_without_append_leaves_file_alone(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log(path, self.records())
        torn = path.read_bytes()[:-10]
        path.write_bytes(torn)
        LogWriter(path).close()
        assert path.read_bytes() == torn

    def test_terminated_bad_line_before_torn_line_still_aborts(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = record_to_json(make_record(1000, 80))
        path.write_text(good + "\n{not json\n" + good[:20])
        with pytest.raises(LogParseError) as exc:
            load_log(path)
        assert exc.value.line == 2
        with pytest.raises(LogParseError):
            LogWriter(path)


def curve(records, tail=None):
    return LogColumns.from_records(records).curve(tail)


class TestCurve:
    def test_history_projection(self):
        records = [make_record(t, lv) for t, lv in ((1, 80), (2, 79), (3, 79))]
        assert curve(records) == [(1, 80), (2, 79), (3, 79)]

    def test_tail(self):
        records = [make_record(t, lv) for t, lv in ((1, 80), (2, 79), (3, 78))]
        assert curve(records, tail=2) == [(2, 79), (3, 78)]
        assert curve(records, tail=0) == []
        assert curve(records, tail=10) == curve(records)

    def test_empty(self):
        assert curve([]) == []

    def test_negative_tail(self):
        with pytest.raises(ValueError):
            curve([], tail=-1)

    @given(levels=st.lists(st.integers(0, 100), max_size=20))
    def test_history_length_and_range(self, levels):
        records = [make_record(i + 1, lv) for i, lv in enumerate(levels)]
        series = curve(records)
        assert len(series) == len(records)
        assert all(0 <= level <= 100 for _, level in series)


class TestExportColumnsCsv:
    def test_records_export(self, tmp_path):
        records = [
            make_record(1000, 80, apps=("a", "b"), charge_uah=5),
            make_record(2000, 79, apps=()),
        ]
        path = tmp_path / "out.csv"
        export_columns_csv(LogColumns.from_records(records), path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ts_ms", "level_pct", "voltage_mv", "temp_dc", "charge_uah", "status", "apps"]
        assert len(rows) == 3
        assert rows[1] == ["1000", "80", "3900", "310", "5", "Discharging", "a;b"]
        assert rows[2][4] == ""  # absent charge stays empty


class TestSampleOnce:
    def test_composes_sources(self, tmp_path):
        root = write_source_dir(tmp_path)
        record = sample_once(FileTreeSource(root), SimulatedClock(42))
        assert record.sample.ts_ms == 42
        assert record.sample.level_pct == 80
        assert record.apps == ("browser", "game")

    def test_missing_apps_propagates(self, tmp_path):
        root = write_source_dir(tmp_path, apps=None)
        with pytest.raises(MissingField):
            sample_once(FileTreeSource(root), SimulatedClock())


def _stop_after(clock: SimulatedClock, stop: threading.Event, end_ms: int) -> None:
    def on_advance(now_ms):
        if now_ms > end_ms:
            stop.set()

    clock.on_advance = on_advance


def _endless_records(n, interval_ms=60_000):
    return [make_record(1 + i * interval_ms, max(0, 100 - i // 10), apps=("app",)) for i in range(n)]


class TestRunLoop:
    def test_default_interval_is_one_minute(self, tmp_path):
        assert RecorderConfig(out_path=tmp_path / "x").interval_s == 60

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            RecorderConfig(out_path=tmp_path / "x", interval_s=0)

    def test_interval_at_most_the_longest_wait(self, tmp_path):
        longest = int(threading.TIMEOUT_MAX)
        assert RecorderConfig(out_path=tmp_path / "x", interval_s=longest).interval_s == longest
        for interval_s in (longest + 1, 10**20):
            with pytest.raises(ValueError, match="interval_s"):
                RecorderConfig(out_path=tmp_path / "x", interval_s=interval_s)

    def test_five_minutes_at_default_interval_gives_six_records(self, tmp_path):
        clock = SimulatedClock(0)
        stop = threading.Event()
        _stop_after(clock, stop, 300_000)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        written = run_loop(config, ReplaySource(_endless_records(10)), clock, stop)
        records = load_log(config.out_path)
        assert written == len(records) == 6
        assert [r.sample.ts_ms for r in records] == [0, 60_000, 120_000, 180_000, 240_000, 300_000]

    def test_ten_seconds_at_one_second_interval_gives_eleven(self, tmp_path):
        clock = SimulatedClock(0)
        stop = threading.Event()
        _stop_after(clock, stop, 10_000)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl", interval_s=1)
        run_loop(config, ReplaySource(_endless_records(20, interval_ms=1000)), clock, stop)
        assert len(load_log(config.out_path)) == 11

    def test_stop_midway_leaves_log_intact(self, tmp_path):
        clock = SimulatedClock(0)
        stop = threading.Event()
        _stop_after(clock, stop, 120_000)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        run_loop(config, ReplaySource(_endless_records(10)), clock, stop)
        assert len(load_log(config.out_path)) == 3

    def test_failed_tick_skipped(self, tmp_path, caplog):
        class FlakySource:
            def __init__(self):
                self.calls = 0

            def read_battery_sample(self, clock=None):
                self.calls += 1
                if self.calls == 2:
                    raise MissingField("capacity")
                if self.calls in (4, 5):
                    raise MalformedField("temp", "not an integer")
                if self.calls == 6:
                    raise MalformedField("sample", "field level_pct must be an integer, got 80.0")
                return make_sample(clock.now_ms(), 80)

            def read_running_apps(self):
                return ()

        caplog.set_level(logging.INFO, logger="semo.recorder")
        clock = SimulatedClock(1)
        stop = threading.Event()
        _stop_after(clock, stop, 420_001)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        assert run_loop(config, FlakySource(), clock, stop) == 4
        timestamps = [r.sample.ts_ms for r in load_log(config.out_path)]
        assert timestamps == [1, 120_001, 360_001, 420_001]  # ticks 2, 4, 5 and 6 missing
        assert [r.getMessage() for r in caplog.records if "stopped" in r.getMessage()] == [
            "recorder stopped: 4 ticks written, 4 skipped, MalformedField 3, MissingField 1"
        ]

    def test_unreadable_source_field_skips_the_tick(self, tmp_path, caplog):
        root = write_source_dir(tmp_path / "bat")
        (root / "temp").unlink()
        (root / "temp").mkdir()
        clock = SimulatedClock(0)
        stop = threading.Event()
        _stop_after(clock, stop, 120_000)
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        assert run_loop(config, FileTreeSource(root), clock, stop) == 0
        assert load_log(config.out_path) == []
        assert caplog.text.count("sampling tick skipped") == 3

    def test_log_write_error_propagates(self, tmp_path, monkeypatch, caplog):
        class FailingWriter(LogWriter):
            def append(self, record):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("semo.recorder.LogWriter", FailingWriter)
        caplog.set_level(logging.INFO, logger="semo.recorder")
        root = write_source_dir(tmp_path / "bat")
        config = RecorderConfig(out_path=tmp_path / "log.jsonl")
        with pytest.raises(OSError):
            run_loop(config, FileTreeSource(root), SimulatedClock(0), threading.Event())
        assert "recorder stopped: 0 ticks written, 0 skipped" in caplog.text

    def test_deterministic_with_replay_and_simulated_clock(self, tmp_path):
        outputs = []
        for run in range(2):
            clock = SimulatedClock(0)
            stop = threading.Event()
            _stop_after(clock, stop, 300_000)
            path = tmp_path / f"log{run}.jsonl"
            run_loop(RecorderConfig(out_path=path), ReplaySource(_endless_records(10)), clock, stop)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


# The listing each tick of the scripted session reads, None where the file is
# missing, and how it got there: rewritten in place or replaced by rename.
LISTING_SCRIPT = [
    ("browser\ngame\n", "in place"),
    ("browser\ngame\n", "untouched"),
    ("browser\ngame\n", "in place"),  # the same text written again
    ("maps\n", "in place"),
    ("maps\nchat\n", "rename"),
    ("chat\r\nmaps\n", "in place"),  # the same set, spelled another way
    ("", "in place"),
    (None, "unlinked"),  # a skipped tick
    ("maps\n", "in place"),
    ("game\nbrowser\n", "rename"),
]


def test_run_loop_over_a_listing_that_changes_between_ticks(tmp_path):
    """Each tick logs the listing the file held at that tick, byte for byte
    as each tick's own parse of the listing gives it."""
    root = write_source_dir(tmp_path / "bat", apps=None)
    listing = root / "running_apps"

    def set_tick(k):
        (root / "capacity").write_text(f"{80 - k}\n")
        text, how = LISTING_SCRIPT[k]
        if how == "in place":
            listing.write_text(text)
        elif how == "rename":
            (root / "running_apps.new").write_text(text)
            os.replace(root / "running_apps.new", listing)
        elif how == "unlinked":
            listing.unlink()

    clock = SimulatedClock(0)
    stop = threading.Event()
    ticks = iter(range(1, len(LISTING_SCRIPT) + 1))

    def on_advance(now_ms):
        k = next(ticks)
        if k == len(LISTING_SCRIPT):
            stop.set()
        else:
            set_tick(k)

    set_tick(0)
    clock.on_advance = on_advance
    config = RecorderConfig(out_path=tmp_path / "log.jsonl")
    assert run_loop(config, FileTreeSource(root), clock, stop) == len(LISTING_SCRIPT) - 1
    expected = b"".join(
        record_to_json(LogRecord(make_sample(60_000 * k, 80 - k, temp_dc=310), make_app_set(text.splitlines()))).encode()
        + b"\n"
        for k, (text, _) in enumerate(LISTING_SCRIPT)
        if text is not None
    )
    written = config.out_path.read_bytes()
    assert written == expected
    # the bytes the recorder wrote when it parsed the listing on every tick
    assert hashlib.sha256(written).hexdigest() == "1c0ec741f74c4d3af2a29073a3358980c21cb2d42820dc1e18fbc623ff655fd7"


def test_load_log_10k_lines_under_100ms(tmp_path):
    path = tmp_path / "big.jsonl"
    write_log(path, _endless_records(10_000, interval_ms=60_000))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        records = load_log(path)
        elapsed.append(time.perf_counter() - start)
    assert len(records) == 10_000
    # best-of-3 to shrug off scheduler noise on shared machines
    assert min(elapsed) < 0.1, f"10k-line load took {min(elapsed):.3f}s"
