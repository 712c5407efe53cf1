import csv
import gc
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semo import (
    AppSet,
    BatteryStatus,
    ChargeCounterUnavailable,
    DischargeInterval,
    Grouping,
    INSEPARABLE_FLAG,
    LogRecord,
    NoiseModel,
    TooFewSamples,
    attribute,
    build_intervals,
    merge_identifiability_groups,
    rate_to_power,
    make_app_set,
    simulate,
    solve_nnls,
    write_log,
)
import semo.analyzer as analyzer_module
import semo.recorder as recorder_module
from semo.analyzer import attribute_columns, attribute_log, write_result_csv
from semo.recorder import load_columns, load_log, log_blocks

from _helpers import (
    churn_scenario,
    make_record,
    make_sample,
    phone_like_scenario,
    random_exact_scenario,
    weighted_sse,
)

MIN = 60_000  # one minute in ms
HOUR = 3_600_000


def records_from_segments(segments, start_level=100, step_ms=MIN):
    """Build a discharging log from (n_steps, drop_per_step, apps) segments."""
    records = []
    ts, level = 0, start_level
    apps_now = segments[0][2]
    for n_steps, drop, apps in segments:
        apps_now = apps
        for _ in range(n_steps):
            records.append(make_record(ts, level, apps=apps_now))
            ts += step_ms
            level -= drop
    records.append(make_record(ts, level, apps=apps_now))
    return records


class TestBuildIntervals:
    def test_single_pair_rate(self):
        records = [make_record(0, 80, apps=("A",)), make_record(MIN, 79, apps=("A",))]
        intervals = build_intervals(records)
        assert len(intervals) == 1
        assert intervals[0].rate_pct_per_h == pytest.approx(60.0)
        assert intervals[0].active == ("A",)
        with pytest.raises(ValueError, match="^interval must have positive duration$"):
            DischargeInterval(MIN, MIN, 1.0, ("A",))
        with pytest.raises(ValueError, match="^drop_pct must be non-negative$"):
            DischargeInterval(0, MIN, -1.0, ("A",))

    def test_charging_pair_excluded_neighbors_kept(self):
        records = [
            make_record(0 * MIN, 80, apps=("A",)),
            make_record(1 * MIN, 79, apps=("A",)),
            make_record(2 * MIN, 79, apps=("A",), status=BatteryStatus.CHARGING),
            make_record(3 * MIN, 80, apps=("A",), status=BatteryStatus.CHARGING),
            make_record(4 * MIN, 80, apps=("A",)),
            make_record(5 * MIN, 79, apps=("A",)),
        ]
        intervals = build_intervals(records)
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(0, MIN), (4 * MIN, 5 * MIN)]

    @pytest.mark.parametrize("status", [BatteryStatus.FULL, BatteryStatus.UNKNOWN, BatteryStatus.NOT_CHARGING])
    def test_non_discharging_statuses_excluded(self, status):
        records = [
            make_record(0, 80, apps=("A",)),
            make_record(MIN, 79, apps=("A",), status=status, voltage_mv=3900),
            make_record(2 * MIN, 78, apps=("A",)),
            make_record(3 * MIN, 77, apps=("A",)),
        ]
        intervals = build_intervals(records)
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(2 * MIN, 3 * MIN)]

    def test_same_active_set_coalesces(self):
        records = [
            make_record(0, 80, apps=("A",)),
            make_record(MIN, 80, apps=("A",)),
            make_record(2 * MIN, 79, apps=("A",)),
        ]
        intervals = build_intervals(records)
        assert len(intervals) == 1
        assert intervals[0].duration_h == pytest.approx(2 / 60)
        assert intervals[0].rate_pct_per_h == pytest.approx(30.0)

    def test_active_set_change_breaks_coalescing(self):
        records = [
            make_record(0, 80, apps=("A",)),
            make_record(MIN, 79, apps=("B",)),
            make_record(2 * MIN, 78, apps=("B",)),
        ]
        intervals = build_intervals(records)
        assert [iv.active for iv in intervals] == [("A",), ("B",)]

    def test_no_coalescing_across_excluded_pairs(self):
        # same active set on both sides of the gap, but not time-contiguous
        records = [
            make_record(0, 80, apps=("A",)),
            make_record(MIN, 79, apps=("A",)),
            make_record(2 * MIN, 85, apps=("A",)),
            make_record(3 * MIN, 84, apps=("A",)),
            make_record(4 * MIN, 83, apps=("A",)),
        ]
        intervals = build_intervals(records)
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(0, MIN), (2 * MIN, 4 * MIN)]

    def test_active_set_is_start_snapshot(self):
        records = [make_record(0, 80, apps=("A",)), make_record(MIN, 79, apps=("B",))]
        assert build_intervals(records)[0].active == ("A",)

    def test_level_rise_between_discharging_samples_excluded(self):
        # a rise is evidence of hidden charging, not a zero-drop discharge
        records = [
            make_record(0, 80, apps=("A",)),
            make_record(MIN, 79, apps=("A",)),
            make_record(2 * MIN, 85, apps=("A",)),
            make_record(3 * MIN, 84, apps=("A",)),
        ]
        intervals = build_intervals(records)
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(0, MIN), (2 * MIN, 3 * MIN)]

    def test_too_few_records(self):
        with pytest.raises(TooFewSamples):
            build_intervals([make_record(0, 80)])

    def test_no_usable_pairs(self):
        records = [
            make_record(0, 80, status=BatteryStatus.CHARGING),
            make_record(MIN, 81, status=BatteryStatus.CHARGING),
        ]
        with pytest.raises(TooFewSamples):
            build_intervals(records)

    def test_unsorted_records_rejected(self):
        records = [make_record(MIN, 80), make_record(0, 81)]
        with pytest.raises(ValueError):
            build_intervals(records)

    @pytest.mark.parametrize("fn", [build_intervals, attribute])
    def test_first_out_of_order_pair_named(self, fn):
        records = [make_record(0, 80), make_record(MIN, 79), make_record(MIN, 78), make_record(0, 77)]
        message = r"records must be sorted with strictly increasing ts_ms \(60000 after 60000\)"
        with pytest.raises(ValueError, match=message):
            fn(iter(records))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_record(MIN + 0.5, 79), "field ts_ms must be an integer, got 60000.5"),
            (lambda: make_record(MIN, 79.9), "field level_pct must be an integer, got 79.9"),
            (lambda: make_record(MIN, True), "field level_pct must be an integer, got True"),
            (
                lambda: LogRecord(replace(make_sample(MIN, 79), status="Discharging"), ()),
                "unknown status/health: 'Discharging'/<BatteryHealth.GOOD: 'Good'>",
            ),
            (lambda: LogRecord(make_sample(MIN, 79), ["a"]), "apps must be a tuple of strings, got ['a']"),
            (lambda: make_record(MIN, 79, apps=("\ud800",)), "app names must be valid UTF-8 text"),
        ],
        ids=["float-ts", "float-level", "bool-level", "string-status", "list-apps", "lone-surrogate-app"],
    )
    def test_records_the_writer_refused_are_never_built(self, build, message):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message


def full_scale_uah(records):
    """Reference full-scale estimate: charge / level at the highest discharging level, earliest on ties.

    Only samples with a positive counter count.
    """
    best = None
    for record in records:
        s = record.sample
        if s.status is not BatteryStatus.DISCHARGING or not s.charge_uah or s.level_pct <= 0:
            continue
        key = (s.level_pct, -s.ts_ms)
        if best is None or key > best[0]:
            best = (key, s.charge_uah * 100.0 / s.level_pct)
    return None if best is None else best[1]


def pairwise_intervals(records, mode="auto"):
    """Reference interval building: every usable pair rebuilds the open interval."""
    full_scale = full_scale_uah(records) if mode != "off" else None
    intervals = []
    for a, b in zip(records, records[1:]):
        sa, sb = a.sample, b.sample
        if sa.status is not BatteryStatus.DISCHARGING or sb.status is not BatteryStatus.DISCHARGING:
            continue
        if full_scale is not None and sa.charge_uah is not None and sb.charge_uah is not None:
            if sa.charge_uah == 0 or sb.charge_uah == 0:
                continue
            drop = (sa.charge_uah - sb.charge_uah) / full_scale * 100.0
        else:
            if sa.level_pct == 0:
                continue
            drop = float(sa.level_pct - sb.level_pct)
        if drop < 0:
            continue
        if intervals and intervals[-1].t_end_ms == sa.ts_ms and intervals[-1].active == a.apps:
            prev = intervals[-1]
            intervals[-1] = DischargeInterval(prev.t_start_ms, sb.ts_ms, prev.drop_pct + drop, prev.active)
        else:
            intervals.append(DischargeInterval(sa.ts_ms, sb.ts_ms, drop, a.apps))
    return intervals


@st.composite
def long_run_logs(draw):
    """Logs of long same-set runs with counter noise, charging spans and level rises.

    Timestamps and counters may start beyond 2**63, where the analyzer's
    columns hold Python ints.
    """
    records = []
    ts = draw(st.sampled_from([0, 0, 2**63, 10**30]))
    level = 100
    charge = draw(st.sampled_from([4_000_000, 4_000_000, 2**63 + 4_000_000, 10**30]))
    for _ in range(draw(st.integers(1, 8))):
        apps = draw(st.sampled_from([(), ("a",), ("a", "b"), ("b",)]))
        status = draw(st.sampled_from([BatteryStatus.DISCHARGING] * 4 + [BatteryStatus.CHARGING]))
        for _ in range(draw(st.integers(1, 40))):
            charge = max(0, charge - draw(st.integers(-2_000, 9_000)))
            level = max(0, min(100, level - draw(st.integers(-1, 2))))
            with_counter = draw(st.integers(0, 9)) > 0
            records.append(
                make_record(ts, level, apps=apps, status=status, charge_uah=charge if with_counter else None)
            )
            ts += draw(st.integers(1, 3)) * MIN
    return records


class TestIntervalsMatchPairwiseCoalescing:
    @settings(max_examples=150, deadline=None)
    @given(records=long_run_logs(), mode=st.sampled_from(["auto", "off"]))
    def test_same_intervals_as_reference(self, records, mode):
        want = pairwise_intervals(records, mode)
        if not want:
            with pytest.raises(TooFewSamples):
                build_intervals(records, mode)
            return
        assert build_intervals(records, mode) == want  # float drops compared bit for bit

    def test_simulated_churn_log(self):
        records = simulate(churn_scenario(3_000, 20, seed=4, capacity_share=0.7)[0])
        assert build_intervals(records) == pairwise_intervals(records)


class TestColumnsOfTheLog:
    def test_same_result_as_records_beyond_int64(self, tmp_path):
        apps = [(), ("A",), ("A", "B")]
        records = [
            make_record(10**30 + k * HOUR, 100 - 2 * k, apps=apps[k % 3], charge_uah=10**28 - k * 10**25)
            for k in range(9)
        ]
        path = tmp_path / "log.jsonl"
        write_log(path, records)
        columns = load_columns(path)
        assert columns.ts.dtype == object and columns.charge.dtype == object
        assert attribute_columns(columns) == attribute(records)
        assert attribute_columns(columns, "off") == attribute(records, "off")


    @pytest.mark.parametrize("block_bytes", [1, 200, 1 << 20])
    def test_name_ids_give_the_records_result(self, tmp_path, monkeypatch, block_bytes):
        """Names met out of order, an app seen only while charging, an unobserved and an always-on app.

        y and on get their name ids, alone on the charger, before b and
        base do, although each sorts after its twin.
        """
        C = BatteryStatus.CHARGING
        rows = [
            (80, ("y",), {"status": C}),
            (85, ("on",), {"status": C}),
            (100, ("base", "m", "on"), {}),
            (98, ("a", "b", "base", "m", "on", "y"), {}),
            (95, ("base", "on", "z"), {}),
            (93, ("a", "base", "on"), {}),
            (90, ("base", "idle", "on"), {}),  # its only pair ends on the charger: idle is unobserved
            (89, ("charger",), {"status": C}),  # seen only while charging: in no result
            (95, ("charger", "on"), {"status": C}),
            (94, ("base", "on"), {}),
            (92, ("b", "base", "m", "on", "y"), {}),
            (90, ("base", "on"), {}),
        ]
        path = tmp_path / "log.jsonl"
        write_log(path, [make_record(k * HOUR, level, apps=apps, **kw) for k, (level, apps, kw) in enumerate(rows)])
        monkeypatch.setattr(recorder_module, "BLOCK_BYTES", block_bytes)
        result = attribute_columns(load_columns(path))
        assert result == attribute(load_log(path)) == attribute_log(path)
        assert [(g.apps, g.flags) for g in result.groups] == [
            (("a",), ()), (("b", "y"), ()), (("m",), ()), (("z",), ()), (("base", "on"), (INSEPARABLE_FLAG,))
        ]
        assert result.unobserved == ("idle",)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every outcome is compared, errors too
        return type(exc), str(exc)


def streamed_intervals(blocks, mode="auto") -> list[DischargeInterval]:
    """The intervals of a log's blocks, folded a block at a time as attribute_log folds them."""
    fold = analyzer_module._fold(blocks, mode)
    found = fold.intervals()
    return [
        DischargeInterval(start, end, drop, AppSet(map(fold.names.__getitem__, fold.sets[apps].tolist())))
        for start, end, drop, apps in zip(
            found.start.tolist(), found.end.tolist(), found.drop.tolist(), found.apps.tolist()
        )
    ]


def oracle_outcome(records, mode):
    """pairwise_intervals, or the type of error that build_intervals raises for the log in mode."""
    if len(records) < 2:
        return TooFewSamples
    if mode == "on":
        pairs = [
            (a.sample, b.sample) for a, b in zip(records, records[1:])
            if a.sample.status is b.sample.status is BatteryStatus.DISCHARGING
        ]
        if full_scale_uah(records) is None or any(a.charge_uah is None or b.charge_uah is None for a, b in pairs):
            return ChargeCounterUnavailable
    return pairwise_intervals(records, mode) or TooFewSamples


@st.composite
def streamed_logs(draw):
    """long_run_logs whose counter may start late, so that the full-scale sample sits in a late block,
    and may read 0 for a span, so that counted pairs are censored before the counter is known to scale."""
    records = draw(long_run_logs())
    first_counted = draw(st.integers(0, len(records)))
    zeros = range(*sorted(draw(st.lists(st.integers(0, len(records)), min_size=2, max_size=2))))
    for k, record in enumerate(records):
        charge = record.sample.charge_uah
        if k < first_counted:
            charge = None
        elif k in zeros and charge is not None:
            charge = 0
        records[k] = LogRecord(replace(record.sample, charge_uah=charge), record.apps)
    return records


class TestStreamedAnalysis:
    """attribute_log folds the log a block at a time, into what the whole log gives."""

    @settings(max_examples=50, deadline=None)
    @given(records=streamed_logs(), block_bytes=st.integers(1, 1200))
    def test_same_as_whole_log_and_pairwise_oracle(self, tmp_path_factory, records, block_bytes):
        path = tmp_path_factory.mktemp("logs") / "log.jsonl"
        write_log(path, records)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", block_bytes):
            blocks = list(log_blocks(path))  # what attribute_log folds
        for mode in ("auto", "on", "off"):
            want = oracle_outcome(records, mode)
            got = outcome(streamed_intervals, blocks, mode)
            if isinstance(want, list):
                assert got == want, mode  # float drops compared bit for bit
            else:
                assert got[0] is want, (mode, got)
            assert outcome(analyzer_module._attribute, blocks, mode) == outcome(attribute, load_log(path), mode), mode

    def test_runs_past_the_vector_steps_sum_in_order(self, tmp_path):
        """Runs of 1 to 300 pairs, each across several blocks, with counter drops whose order changes their sum."""
        records, ts, charge = [], 0, 4_000_000
        for run, length in enumerate([1, 2, 63, 64, 65, 300, 2]):
            for _ in range(length):
                records.append(make_record(ts, 90, apps=(f"app{run % 2}",), charge_uah=charge))
                ts += MIN
                charge -= 1 + (ts // MIN) ** 3 % 997
        records.append(make_record(ts, 90, charge_uah=charge))
        path = tmp_path / "log.jsonl"
        write_log(path, records)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", 1000):
            intervals = streamed_intervals(log_blocks(path))
        assert intervals == pairwise_intervals(records)
        assert [iv.t_end_ms - iv.t_start_ms for iv in intervals] == [n * MIN for n in (1, 2, 63, 64, 65, 300, 2)]

    def test_too_few_samples_counts_rows_across_blocks(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with mock.patch.object(recorder_module, "BLOCK_BYTES", 1):  # one line a block
            write_log(path, [make_record(0, 80)])
            with pytest.raises(TooFewSamples, match=r"^need at least 2 records, got 1$"):
                attribute_log(path)
            write_log(path, [make_record(k * MIN, 80 - k, apps=("a",) if k % 2 else ()) for k in range(3)])
            assert attribute_log(path) == attribute(load_log(path))
            write_log(path, [make_record(k * MIN, 80, status=BatteryStatus.CHARGING) for k in range(3)])
            with pytest.raises(TooFewSamples, match=r"^no usable discharge intervals in the log$"):
                attribute_log(path)

    def test_counter_overflow_raises_as_the_whole_log_does(self, tmp_path):
        """A counter drop past float range is the error, after the full-scale check, even on an unused pair."""
        records = [
            make_record(0, 90, charge_uah=1000),
            make_record(MIN, 89, charge_uah=10**400),  # a rise: unused, yet its drop is scaled
            make_record(2 * MIN, 88, charge_uah=10**400 - 5),
        ]
        path = tmp_path / "log.jsonl"
        write_log(path, records)
        with mock.patch.object(recorder_module, "BLOCK_BYTES", 1):
            got = outcome(attribute_log, path)
        assert got == outcome(attribute, records) == (OverflowError, "int too large to convert to float")
        assert outcome(attribute_log, path, "off") == outcome(attribute, records, "off")


def test_analysis_memory_flat_in_log_length(tmp_path):
    """attribute_log holds one block, the set table and a compact drop per used pair, whatever the log's length."""
    peaks = []
    for n in (10_000, 40_000):
        path = tmp_path / f"log{n}.jsonl"
        write_log(path, simulate(phone_like_scenario(n)))
        attribute_log(path)  # first use: numpy's lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            attribute_log(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], f"peak {peaks[0]} B at 10k lines, {peaks[1]} B at 40k"


class TestChargeCounter:
    def cc_records(self):
        # 1_000_000 µAh full scale; the counter moves inside one level unit
        return [
            make_record(0, 100, apps=("A",), charge_uah=1_000_000),
            make_record(MIN, 99, apps=("A",), charge_uah=995_000),
            make_record(2 * MIN, 99, apps=("A",), charge_uah=990_000),
        ]

    def test_auto_prefers_counter(self):
        intervals = build_intervals(self.cc_records(), "auto")
        assert len(intervals) == 1  # coalesced: same active set
        assert intervals[0].drop_pct == pytest.approx(1.0)  # 10_000 µAh of 1_000_000

    def test_off_uses_levels(self):
        intervals = build_intervals(self.cc_records(), "off")
        assert intervals[0].drop_pct == pytest.approx(1.0)  # level 100 -> 99 then flat
        assert len(intervals) == 1

    @pytest.mark.parametrize("fn", [build_intervals, attribute])
    def test_unknown_mode_rejected(self, fn):
        with pytest.raises(ValueError, match="use_charge_counter must be one of"):
            fn(self.cc_records(), "never")

    def test_full_scale_from_best_populated_sample(self):
        # highest-level sample pins full scale: 990_000/90*100 = 1_100_000
        records = [
            make_record(0, 90, apps=("A",), charge_uah=990_000),
            make_record(MIN, 89, apps=("B",), charge_uah=979_000),
            make_record(2 * MIN, 88, apps=("B",), charge_uah=968_000),
        ]
        intervals = build_intervals(records, "on")
        assert [iv.drop_pct for iv in intervals] == [pytest.approx(1.0), pytest.approx(1.0)]
        assert [iv.active for iv in intervals] == [("A",), ("B",)]

    def test_on_without_counter_raises(self):
        records = [make_record(0, 80), make_record(MIN, 79)]
        with pytest.raises(ChargeCounterUnavailable):
            build_intervals(records, "on")

    def test_on_with_partial_counter_raises(self):
        records = [
            make_record(0, 80, charge_uah=800_000),
            make_record(MIN, 79, charge_uah=None),
        ]
        with pytest.raises(ChargeCounterUnavailable):
            build_intervals(records, "on")

    def test_auto_falls_back_per_pair(self):
        records = [
            make_record(0, 80, apps=("A",), charge_uah=800_000),
            make_record(MIN, 79, apps=("B",)),
            make_record(2 * MIN, 78, apps=("B",), charge_uah=780_000),
        ]
        intervals = build_intervals(records, "auto")
        assert [iv.drop_pct for iv in intervals] == [1.0, 1.0]

    def test_charge_rise_excluded(self):
        records = [
            make_record(0, 80, apps=("A",), charge_uah=800_000),
            make_record(MIN, 80, apps=("A",), charge_uah=810_000),
            make_record(2 * MIN, 79, apps=("A",), charge_uah=790_000),
        ]
        intervals = build_intervals(records, "auto")
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(MIN, 2 * MIN)]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            build_intervals(self.cc_records(), "sometimes")


class TestEmptyBattery:
    """A pair that touches an empty battery is censored: its drop understates consumption."""

    def test_counter_pair_touching_zero_charge_excluded(self):
        records = [
            make_record(0, 100, apps=("A",), charge_uah=1_000_000),
            make_record(MIN, 1, apps=("A",), charge_uah=10_000),
            make_record(2 * MIN, 0, apps=("B",), charge_uah=0),
            make_record(3 * MIN, 0, apps=("B",), charge_uah=0),
        ]
        intervals = build_intervals(records, "on")
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(0, MIN)]

    def test_level_pair_starting_at_zero_excluded(self):
        records = [
            make_record(0, 2, apps=("A",)),
            make_record(MIN, 1, apps=("B",)),
            make_record(2 * MIN, 0, apps=("C",)),
            make_record(3 * MIN, 0, apps=("C",)),
        ]
        intervals = build_intervals(records, "off")
        assert [(iv.t_start_ms, iv.t_end_ms) for iv in intervals] == [(0, MIN), (MIN, 2 * MIN)]
        assert [iv.drop_pct for iv in intervals] == [1.0, 1.0]

    def test_zero_counter_at_the_top_level_does_not_set_full_scale(self):
        records = [
            make_record(0 * HOUR, 90, apps=(), charge_uah=0),
            make_record(1 * HOUR, 80, apps=(), charge_uah=500),
            make_record(2 * HOUR, 79, apps=(), charge_uah=400),
        ]
        # full scale 500 µAh / 80 % = 625 µAh; the pair from 0 µAh is censored
        result = attribute(records)
        assert result.baseline_pct_per_h == pytest.approx(16.0)
        [interval] = build_intervals(records)
        assert (interval.t_start_ms, interval.t_end_ms) == (1 * HOUR, 2 * HOUR)
        assert interval.drop_pct == pytest.approx(16.0)

    def test_churn_run_to_empty_recovers_true_rates(self):
        # capacity covers 70 % of the schedule: the device powers off at its one 0 µAh sample, the last
        scenario, truth = churn_scenario(10_000, 50, seed=1, capacity_share=0.7)
        records = simulate(scenario)
        charges = [r.sample.charge_uah for r in records]
        assert charges.count(0) == 1 and charges[-1] == 0
        result = attribute(records)
        assert result.baseline_pct_per_h == pytest.approx(truth["baseline"], rel=1e-9)
        assert result.groups
        for group in result.groups:
            assert len(group.apps) == 1 and group.flags == ()
            assert group.rate_pct_per_h == pytest.approx(truth[group.apps[0]], rel=1e-9)


class TestMergeGroups:
    def test_identical_patterns_merge(self):
        records = records_from_segments([(2, 1, ()), (2, 1, ("A", "B"))])
        grouping = merge_identifiability_groups(build_intervals(records))
        assert grouping.groups == (("A", "B"),)

    def test_distinct_patterns_stay_separate(self):
        # A active in intervals 1 and 2, B only in 2
        records = records_from_segments([(2, 1, ("A",)), (2, 1, ("A", "B")), (2, 1, ())])
        grouping = merge_identifiability_groups(build_intervals(records))
        assert grouping.groups == (("A",), ("B",))
        assert grouping.inseparable == ()

    def test_design_matrix_shape_and_baseline_column(self):
        records = records_from_segments([(2, 1, ()), (2, 1, ("A",)), (2, 1, ("B",))])
        intervals = build_intervals(records)
        grouping = merge_identifiability_groups(intervals)
        assert grouping.design.shape == (len(intervals), 1 + len(grouping.groups))
        np.testing.assert_array_equal(grouping.design[:, 0], np.ones(len(intervals)))

    def test_always_on_app_is_inseparable(self):
        records = records_from_segments([(2, 1, ("A",)), (2, 1, ("A", "B"))])
        grouping = merge_identifiability_groups(build_intervals(records))
        assert grouping.inseparable == ("A",)
        assert grouping.groups == (("B",),)

    def test_unobserved_from_universe(self):
        records = records_from_segments([(2, 1, ("A",))])
        grouping = merge_identifiability_groups(build_intervals(records), all_apps={"A", "ghost"})
        assert grouping.unobserved == ("ghost",)

    def test_empty_intervals_rejected(self):
        with pytest.raises(TooFewSamples):
            merge_identifiability_groups([])


def tuple_pattern_grouping(intervals, all_apps=None) -> Grouping:
    """Reference grouping: one membership tuple per app, scanned interval by interval."""
    intervals = list(intervals)
    seen = sorted({name for iv in intervals for name in iv.active})
    patterns: dict[tuple[bool, ...], list[str]] = {}
    for name in seen:
        patterns.setdefault(tuple(name in iv.active for iv in intervals), []).append(name)
    inseparable = make_app_set(patterns.pop(tuple(True for _ in intervals), []))
    groups = sorted(make_app_set(apps) for apps in patterns.values())
    columns = [np.ones(len(intervals))]
    for group in groups:
        columns.append(np.array([float(group[0] in iv.active) for iv in intervals]))
    universe = set(all_apps) if all_apps is not None else set(seen)
    return Grouping(
        design=np.column_stack(columns),
        groups=tuple(groups),
        inseparable=inseparable,
        unobserved=make_app_set(universe - set(seen)),
    )


@st.composite
def interval_sets(draw):
    """Intervals over apps that are always on, share a pattern, vary freely or never run."""
    n = draw(st.integers(1, 12))
    free = [f"f{i}" for i in range(draw(st.integers(0, 5)))]
    always = [f"on{i}" for i in range(draw(st.integers(0, 2)))]
    active = [set(always) | draw(st.sets(st.sampled_from(free))) if free else set(always) for _ in range(n)]
    # twins copy the pattern of a free app, so they must land in its group
    for i in range(draw(st.integers(0, 3)) if free else 0):
        source = draw(st.sampled_from(free))
        for apps in active:
            if source in apps:
                apps.add(f"twin{i}")
    ghosts = {f"ghost{i}" for i in range(draw(st.integers(0, 2)))}
    intervals = [
        DischargeInterval(t_start_ms=k * MIN, t_end_ms=(k + 1) * MIN, drop_pct=1.0, active=make_app_set(apps))
        for k, apps in enumerate(active)
    ]
    universe = None if draw(st.booleans()) else {a for apps in active for a in apps} | ghosts
    return intervals, universe


class TestGroupingMatchesTuplePatterns:
    @settings(max_examples=200, deadline=None)
    @given(case=interval_sets())
    def test_same_grouping_as_reference(self, case):
        intervals, universe = case
        got = merge_identifiability_groups(intervals, all_apps=universe)
        want = tuple_pattern_grouping(intervals, all_apps=universe)
        assert got.groups == want.groups
        assert got.inseparable == want.inseparable
        assert got.unobserved == want.unobserved
        assert got.design.dtype == want.design.dtype
        np.testing.assert_array_equal(got.design, want.design)


class TestAttribute:
    def exact_additive_records(self):
        # hour-long spans with active sets {}, {A}, {B}, {A,B} and
        # drain rates 2, 5, 7, 10 pct/h
        records = [
            make_record(0 * HOUR, 100, apps=()),
            make_record(1 * HOUR, 98, apps=("A",)),
            make_record(2 * HOUR, 93, apps=("B",)),
            make_record(3 * HOUR, 86, apps=("A", "B")),
            make_record(4 * HOUR, 76, apps=()),
        ]
        return records

    def test_additive_model_recovered(self):
        result = attribute(self.exact_additive_records())
        assert result.baseline_pct_per_h == pytest.approx(2.0, abs=1e-9)
        rates = {g.apps: g.rate_pct_per_h for g in result.groups}
        assert rates[("A",)] == pytest.approx(3.0, abs=1e-9)
        assert rates[("B",)] == pytest.approx(5.0, abs=1e-9)
        assert result.residual_rms == pytest.approx(0.0, abs=1e-9)
        assert [g.apps for g in result.ranking] == [("B",), ("A",)]

    def test_records_checked_once_and_generators_accepted(self, monkeypatch):
        calls = []
        first_not_increasing = recorder_module._first_not_increasing

        def counting(ts, prev_ts):
            calls.append(1)
            return first_not_increasing(ts, prev_ts)

        monkeypatch.setattr(recorder_module, "_first_not_increasing", counting)
        result = attribute(iter(self.exact_additive_records()))
        assert len(calls) == 1
        assert result == attribute(self.exact_additive_records())

    def test_equal_rates_rank_lexicographically(self):
        records = [
            make_record(0 * HOUR, 100, apps=()),
            make_record(1 * HOUR, 98, apps=("zeta",)),
            make_record(2 * HOUR, 93, apps=("alpha",)),
            make_record(3 * HOUR, 88, apps=()),
        ]
        result = attribute(records)
        assert [g.apps for g in result.ranking] == [("alpha",), ("zeta",)]

    def test_single_app_with_idle_gets_marginal(self):
        records = [
            make_record(0 * HOUR, 100, apps=("A",)),
            make_record(1 * HOUR, 95, apps=()),
            make_record(2 * HOUR, 93, apps=()),
        ]
        result = attribute(records)
        assert result.baseline_pct_per_h == pytest.approx(2.0, abs=1e-9)
        assert result.groups[0].apps == ("A",)
        assert result.groups[0].rate_pct_per_h == pytest.approx(3.0, abs=1e-9)
        assert result.groups[0].flags == ()

    def test_always_running_app_folds_into_baseline(self):
        records = [
            make_record(0 * HOUR, 100, apps=("A",)),
            make_record(1 * HOUR, 95, apps=("A",)),
            make_record(2 * HOUR, 90, apps=("A",)),
        ]
        result = attribute(records)
        assert result.baseline_pct_per_h == pytest.approx(5.0, abs=1e-9)
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.apps == ("A",)
        assert group.flags == (INSEPARABLE_FLAG,)
        assert group.rate_pct_per_h == 0.0
        assert result.ranking == result.groups

    def test_app_seen_only_in_charging_spans_is_invisible(self):
        records = [
            make_record(0, 100, apps=("A",)),
            make_record(MIN, 99, apps=("A",)),
            make_record(2 * MIN, 99, apps=("A", "plugonly"), status=BatteryStatus.CHARGING),
            make_record(3 * MIN, 99, apps=("A",)),
            make_record(4 * MIN, 98, apps=("A",)),
        ]
        result = attribute(records)
        all_named = {name for g in result.groups for name in g.apps} | set(result.unobserved)
        assert "plugonly" not in all_named

    def test_app_in_boundary_sample_only_is_unobserved(self):
        records = [
            make_record(0, 100, apps=("A",)),
            make_record(MIN, 99, apps=("A",)),
            make_record(2 * MIN, 99, apps=("A", "fleeting"), status=BatteryStatus.CHARGING),
            make_record(3 * MIN, 99, apps=("A", "fleeting")),
            make_record(4 * MIN, 99, apps=("A",), status=BatteryStatus.CHARGING),
            make_record(5 * MIN, 99, apps=("A",)),
            make_record(6 * MIN, 98, apps=("A",)),
        ]
        result = attribute(records)
        assert result.unobserved == ("fleeting",)

    def test_propagates_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            attribute([make_record(0, 80)])

    def test_charging_exclusion_equivalence(self):
        records = [
            make_record(0, 90, apps=("A",), charge_uah=1_800_000),
            make_record(MIN, 89, apps=("A",), charge_uah=1_782_000),
            make_record(2 * MIN, 89, apps=("A", "B"), charge_uah=1_778_000),
            make_record(3 * MIN, 91, apps=("B",), status=BatteryStatus.CHARGING, charge_uah=1_820_000),
            make_record(4 * MIN, 94, apps=("B",), status=BatteryStatus.CHARGING, charge_uah=1_880_000),
            make_record(5 * MIN, 95, apps=("B",), charge_uah=1_900_000),
            make_record(6 * MIN, 94, apps=("B",), charge_uah=1_882_000),
            make_record(7 * MIN, 94, apps=(), charge_uah=1_878_000),
        ]
        pruned = [r for r in records if r.sample.status is not BatteryStatus.CHARGING]
        assert len(pruned) < len(records)
        for mode in ("auto", "off"):
            assert attribute(records, mode) == attribute(pruned, mode)

    def test_ranking_invariant_under_time_rescale(self):
        records = self.exact_additive_records()
        result = attribute(records)
        for factor in (3, 10):
            scaled = [
                make_record(r.sample.ts_ms * factor, r.sample.level_pct, apps=r.apps)
                for r in records
            ]
            rescaled = attribute(scaled)
            assert [g.apps for g in rescaled.ranking] == [g.apps for g in result.ranking]
            for a, b in zip(rescaled.ranking, result.ranking):
                assert a.rate_pct_per_h == pytest.approx(b.rate_pct_per_h / factor)


@st.composite
def random_logs(draw):
    n_apps = draw(st.integers(1, 4))
    names = [f"app{i}" for i in range(n_apps)]
    n_segments = draw(st.integers(1, 6))
    segments = []
    for _ in range(n_segments):
        segment_apps = draw(st.sets(st.sampled_from(names)))
        steps = draw(st.integers(1, 3))
        drop = draw(st.integers(0, 2))
        segments.append((steps, drop, tuple(sorted(segment_apps))))
    # max total drop 6*3*2 = 36, so a start of 100 never goes negative
    return records_from_segments(segments, start_level=100)


class TestResultInvariants:
    @settings(max_examples=60, deadline=None)
    @given(records=random_logs())
    def test_partition_and_feasibility(self, records):
        try:
            result = attribute(records)
        except TooFewSamples:
            return
        universe = {
            name
            for r in records
            if r.sample.status is BatteryStatus.DISCHARGING
            for name in r.apps
        }
        named = [name for g in result.groups for name in g.apps] + list(result.unobserved)
        assert sorted(named) == sorted(universe)
        assert result.baseline_pct_per_h >= 0
        assert all(g.rate_pct_per_h >= 0 for g in result.groups)
        assert result.residual_rms >= 0
        assert sorted(g.apps for g in result.ranking) == sorted(g.apps for g in result.groups)

    @settings(max_examples=40, deadline=None)
    @given(records=random_logs())
    def test_local_optimality_of_fit(self, records):
        try:
            intervals = build_intervals(records)
        except TooFewSamples:
            return
        grouping = merge_identifiability_groups(intervals)
        y = np.array([iv.rate_pct_per_h for iv in intervals])
        w = np.array([iv.duration_h for iv in intervals])
        from semo import solve_nnls

        beta = solve_nnls(grouping.design, y, weights=w)
        base = weighted_sse(grouping.design, y, beta, w)
        for j in range(len(beta)):
            for delta in (1e-6, -1e-6):
                tweaked = beta.copy()
                tweaked[j] = max(0.0, tweaked[j] + delta)
                assert weighted_sse(grouping.design, y, tweaked, w) >= base - 1e-12


class TestExactRecovery:
    def test_random_noise_free_scenarios(self):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            scenario, truth = random_exact_scenario(rng)
            result = attribute(simulate(scenario), use_charge_counter="on")
            assert result.baseline_pct_per_h == pytest.approx(truth["baseline"], abs=1e-6)
            for group in result.groups:
                assert len(group.apps) == 1
                assert group.rate_pct_per_h == pytest.approx(truth[group.apps[0]], abs=1e-6)


class TestRateToPower:
    def test_reference_values(self):
        assert rate_to_power(60, 1000, 3700) == pytest.approx(2220.0)
        assert rate_to_power(0, 1234, 5000) == 0.0
        assert rate_to_power(30, 1500, 3700) == pytest.approx(1665.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rate_to_power(-1, 1000, 3700)
        with pytest.raises(ValueError):
            rate_to_power(10, 0, 3700)
        with pytest.raises(ValueError):
            rate_to_power(10, 1000, 0)
        with pytest.raises(ValueError, match="power_mw is not finite"):
            rate_to_power(10, 1e308, 1e308)


class TestExportCsv:
    def test_result_export(self, tmp_path):
        records = [
            make_record(0 * HOUR, 100, apps=()),
            make_record(1 * HOUR, 98, apps=("A",)),
            make_record(2 * HOUR, 93, apps=("B",)),
            make_record(3 * HOUR, 86, apps=()),
        ]
        result = attribute(records)
        path = tmp_path / "result.csv"
        with path.open("w", newline="") as fh:
            write_result_csv(fh, result, capacity_mah=1000, nominal_voltage_mv=3700)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "rate_pct_per_h", "power_mw", "flags"]
        assert len(rows) == 3  # header + 2 groups
        assert rows[1][0] == "B"  # ranking order
        assert float(rows[1][2]) == pytest.approx(rate_to_power(float(rows[1][1]), 1000, 3700), abs=1e-3)

    def test_result_export_without_constants(self, tmp_path):
        records = [
            make_record(0 * HOUR, 100, apps=("A",)),
            make_record(1 * HOUR, 95, apps=()),
            make_record(2 * HOUR, 93, apps=()),
        ]
        path = tmp_path / "result.csv"
        with path.open("w", newline="") as fh:
            write_result_csv(fh, attribute(records))
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(row[2] == "" for row in rows[1:])


class TestFitOnDistinctSets:
    """attribute solves on one row per distinct active set, weighted by its intervals' summed duration."""

    @staticmethod
    def noisy_records():
        # four apps toggled at random recur in sets far apart; the noise leaves residuals
        scenario, _ = churn_scenario(n_records=300, n_apps=4, seed=7, capacity_share=1.5)
        return simulate(replace(scenario, noise=NoiseModel(sigma_mw=120.0, seed=7)))

    def test_same_fit_as_per_interval_solve(self):
        records = self.noisy_records()
        intervals = build_intervals(records)
        assert len({iv.active for iv in intervals}) < len(intervals)
        universe = {name for r in records if r.sample.status is BatteryStatus.DISCHARGING for name in r.apps}
        grouping = merge_identifiability_groups(intervals, all_apps=universe)
        y = [iv.rate_pct_per_h for iv in intervals]
        w = [iv.duration_h for iv in intervals]
        beta = solve_nnls(grouping.design, y, weights=w)

        result = attribute(records)
        assert result.baseline_pct_per_h == pytest.approx(beta[0], rel=1e-12)
        fitted = {g.apps: g.rate_pct_per_h for g in result.groups if not g.flags}
        assert list(fitted) == list(grouping.groups)
        for group, rate in zip(grouping.groups, beta[1:]):
            assert fitted[group] == pytest.approx(rate, rel=1e-12)
        residual_rms = np.sqrt(weighted_sse(grouping.design, y, beta, w) / np.sum(w))
        assert residual_rms > 0
        assert result.residual_rms == pytest.approx(residual_rms, rel=0, abs=1e-12)

    def test_one_solver_row_per_distinct_set(self, monkeypatch):
        rows = []

        def counting_solve(X, y, weights=None):
            rows.append(np.shape(X)[0])
            return solve_nnls(X, y, weights=weights)

        monkeypatch.setattr(analyzer_module, "solve_nnls", counting_solve)
        records = self.noisy_records()
        intervals = build_intervals(records)
        attribute(records)
        assert rows == [len({iv.active for iv in intervals})]
        assert rows[0] < len(intervals)
