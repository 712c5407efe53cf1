import csv
import dataclasses
import gc
import json
import logging
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


def hand_built(app_sets=None, **columns) -> LogColumns:
    """Three valid rows as hand-built columns, with the given columns put in.

    app_sets, when given, stands in for the AppSets that app_ids make.
    """
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
        app_names=["a", "b"],
        app_ids=[np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32)],
    )
    built = LogColumns(**{**base, **columns})
    if app_sets is not None:
        object.__setattr__(built, "app_sets", app_sets)
    return built


def reference_records(columns: LogColumns) -> list[LogRecord]:
    """Every row built by the checked constructors, one row after another."""
    samples = map(
        BatterySample,
        columns.ts.tolist(),
        columns.level.tolist(),
        columns.voltage.tolist(),
        columns.temp.tolist(),
        columns.charges(),
        map(STATUSES.__getitem__, columns.status.tolist()),
        map(HEALTHS.__getitem__, columns.health.tolist()),
    )
    return list(map(LogRecord, samples, map(columns.app_sets.__getitem__, columns.apps.tolist())))


def records_or_error(build):
    """What build gives: its records, or the type and message of the error it raises."""
    try:
        return build()
    except (IndexError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


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


# Hand-built columns that each break one rule of records' column check, with
# what records gives: the error of the first failing row, or None for records.
BROKEN_COLUMNS = {
    "float64 ts": (
        dict(ts=np.array([1000.0, 2000.0, 3000.0])),
        (ValueError, "field ts_ms must be an integer, got 1000.0"),
    ),
    "float in object charge": (
        dict(charge=np.array([5, 4.0, 3], dtype=object)),
        (ValueError, "field charge_uah must be an integer, got 4.0"),
    ),
    "bool in object charge": (
        dict(charge=np.array([5, True, 3], dtype=object)),
        (ValueError, "field charge_uah must be an integer, got True"),
    ),
    "int past int64 in object ts": (dict(ts=np.array([1000, 2000, 2**70], dtype=object)), None),
    "level 101": (dict(level=np.array([80, 101, 78])), (ValueError, "level_pct out of range 0..100: 101")),
    "level -1": (dict(level=np.array([80, 79, -1])), (ValueError, "level_pct out of range 0..100: -1")),
    "voltage 0 discharging": (dict(voltage=np.array([3800, 0, 3780])), (ValueError, "voltage_mv must be positive: 0")),
    "voltage 0 unknown": (
        dict(voltage=np.array([3800, 0, 3780]), status=np.array([DISCHARGING, UNKNOWN, DISCHARGING], dtype=np.int8)),
        None,
    ),
    "charge -1": (dict(charge=np.array([5, -1, 3])), (ValueError, "charge_uah must be non-negative: -1")),
    "charge -1 null": (dict(charge=np.array([5, -1, 3]), charge_null=np.array([False, True, False])), None),
    # an int64 charge_null indexes rows 0 and 1 where a bool one would mask row 2
    "charge -1 int64 null": (
        dict(charge=np.array([5, 4, -1]), charge_null=np.array([0, 0, 1])),
        (ValueError, "charge_uah must be non-negative: -1"),
    ),
    "status 5": (
        dict(status=np.array([DISCHARGING, len(STATUSES), DISCHARGING], dtype=np.int8)),
        (IndexError, "tuple index out of range"),
    ),
    "status -1": (dict(status=np.array([DISCHARGING, -1, DISCHARGING], dtype=np.int8)), None),  # the last status
    "health 7": (dict(health=np.array([0, 0, len(HEALTHS)], dtype=np.int8)), (IndexError, "tuple index out of range")),
    "apps id past app_sets": (dict(apps=np.array([0, 2, 0])), (IndexError, "list index out of range")),
    "apps id -1": (dict(apps=np.array([0, -1, 0])), None),  # the last set
    "plain tuple set": (dict(app_sets=[("a",), AppSet(("a", "b"))]), None),
    "unsorted tuple set": (
        dict(app_sets=[AppSet(("a",)), ("b", "a")]),
        (ValueError, "apps must be sorted and unique"),
    ),
    "list set": (
        dict(app_sets=[["a"], AppSet(("a", "b"))]),
        (ValueError, "apps must be a tuple of strings, got ['a']"),
    ),
    "first failing row wins": (
        dict(level=np.array([80, 79, 101]), voltage=np.array([3800, 0, 3780])),
        (ValueError, "voltage_mv must be positive: 0"),
    ),
    "status past STATUSES before a bad level": (
        dict(level=np.array([80, 79, 101]), status=np.array([DISCHARGING, len(STATUSES), DISCHARGING], dtype=np.int8)),
        (IndexError, "tuple index out of range"),
    ),
    "health past HEALTHS before a bad level": (
        dict(level=np.array([80, 79, 101]), health=np.array([0, len(HEALTHS), 0], dtype=np.int8)),
        (IndexError, "tuple index out of range"),
    ),
}


class TestRecordsOfColumns:
    """records() checks whole columns, then fills the rows it cleared, and
    gives what building every row by the checked constructors gives."""

    @pytest.mark.parametrize("columns, expected", BROKEN_COLUMNS.values(), ids=BROKEN_COLUMNS.keys())
    def test_each_rule_gives_what_the_constructors_give(self, columns, expected):
        built = hand_built(**columns)
        got = records_or_error(built.records)
        assert got == records_or_error(lambda: reference_records(built))
        if expected is None:
            assert len(got) == 3
            assert_exact_types(got)
        else:
            assert got == expected

    def test_a_plain_tuple_set_is_made_into_one_app_set(self):
        records = hand_built(app_sets=[("a",), AppSet(("a", "b"))]).records()
        assert records[0].apps is records[2].apps

    @pytest.mark.parametrize(
        "columns",
        [dict(level=np.array([80, 79])), dict(apps=np.array([0])), dict(ts=np.array([[1000, 2000, 3000]]))],
        ids=["short level", "one set id", "two-dimensional ts"],
    )
    def test_columns_of_other_lengths_are_refused(self, columns):
        with pytest.raises(ValueError, match="^columns must be one-dimensional and of one length"):
            hand_built(**columns)

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
            ("apps", -1),  # the last set
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
        built = hand_built(app_sets=app_sets, **columns)
        got = records_or_error(built.records)
        assert got == records_or_error(lambda: reference_records(built))
        if type(got) is list:
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
        ],
        ids=["utf8-in-apps", "array", "lone-surrogate-in-apps"],
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
    "9" * 18, "-" + "9" * 18, str(2**63), str(-(2**63) - 1), "1" + "0" * 18,
]
WORD_SPELLINGS = ['"Draining"', '"discharging"', '"Good "', '"Dis\\u0063harging"', '"G\\u006fod"', "null", "1"]
APPS_SPELLINGS = [
    "[]", '["a\\"b"]', '["\u00e9"]', '["\\u00e9"]', '[" game"]', '["game "]', '["\\tgame"]', '["b","a"]',
    '["a","a"]', '[""]', "[1]", "[[]]", '[ "a" ]', '["a",]', '["a"]]', '["a"],"x":["b"]', '["\\ud800"]',
    '"a"', "null",
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

    @pytest.mark.parametrize(
        "key,text",
        [("level_pct", "101"), ("level_pct", "-1"), ("charge_uah", "-5"), ("voltage_mv", "0"), ("temp_dc", "-0")]
        + [(key, text) for key in ("ts_ms", "charge_uah") for text in NUMBER_SPELLINGS]
        + [("status", text) for text in WORD_SPELLINGS]
        + [("apps", text) for text in APPS_SPELLINGS],
    )
    def test_every_spelling_loads_as_record_from_json_reads_it(self, tmp_path, key, text):
        fields = fields_of(make_record(1000, 80, apps=("a", "b"), charge_uah=10))
        fields[[k for k, _ in fields].index(key)] = (key, text)
        line = join_fields(fields)
        want = outcome(lambda text: [record_from_json(text, 2)], line)
        path = tmp_path / "log.jsonl"
        path.write_text(record_to_json(make_record(-(10**40), 90)) + "\n" + line, encoding="utf-8")
        assert outcome(lambda _: load_log(path)[1:], line) == want

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
