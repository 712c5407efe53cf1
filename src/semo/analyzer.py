"""Per-application energy attribution over recorded logs.

The drain model is additive: each discharge interval's observed rate
(percent of capacity per hour) is a baseline (OS/idle) plus the rates of
whatever applications were running.  Rates are estimated by
non-negative least squares on one row per distinct active set, weighted
by its intervals' summed duration: the minimizer of the duration-weighted
fit over the intervals.  Apps whose on/off pattern is indistinguishable
share one identifiability group instead of receiving an arbitrary split;
apps running in every interval are folded into the baseline and flagged,
and apps never seen in a usable discharge interval are unobserved.

The intervals are one fold over a log's blocks (recorder.LogColumns
that share one name and set table): per block, pair masks, counter and
level drops, censoring and run boundaries are array operations on the
pairs inside it and the one that joins it to the row before.  The fold
carries the full-scale sample, the set ids of discharging rows, the
runs, and each used pair's integer drop, unscaled until the full scale
is known at the end, when each run's drops are summed one by one, in
pair order, so every interval is bit-identical to a pair-by-pair loop.
Its errors wait for the end, so a bad line anywhere in the log wins.
App sets stay the reader's arrays of name ids up to the solver: the
grouping fills its incidence with one index assignment, and the app
universe is the ids of the discharging rows' sets, so no name of a set
is walked one by one in Python on the way from log to result.
attribute and build_intervals fold one block, the columns of records
(recorder.LogColumns.from_records, which refuses records out of order),
and attribute_columns one it is given.  `semo analyze` calls
attribute_log, which folds recorder.log_blocks: it holds one block, the
set table and a few bytes per used pair, never the log's columns.  The
analyzer holds no rule of the log format itself: the CSV of `semo
export` spells the log's fields, so recorder.export_columns_csv writes
it.  Battery constants must be finite and positive, and rate_to_power
refuses a power that overflows to infinity.  The result formats of
`semo analyze`, table, CSV and JSON, live here too and render one
payload that holds every mW, so such a power leaves no output and fails
alike in every format.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ChargeCounterUnavailable, TooFewSamples
from .nnls import solve_nnls
from .recorder import STATUSES, LogColumns, log_blocks
from .sources import AppSet, BatteryStatus, make_app_set

MS_PER_HOUR = 3_600_000.0

_DISCHARGING = STATUSES.index(BatteryStatus.DISCHARGING)

INSEPARABLE_FLAG = "inseparable-from-baseline"

CHARGE_COUNTER_MODES = ("auto", "on", "off")


def check_charge_counter_mode(mode: str) -> str:
    if mode not in CHARGE_COUNTER_MODES:
        raise ValueError(f"use_charge_counter must be one of {CHARGE_COUNTER_MODES}: {mode!r}")
    return mode


@dataclass(frozen=True)
class DischargeInterval:
    """A span between discharging samples: the regression's row.

    drop_pct is the percent of full capacity consumed over the span;
    active is the app set recorded at the span's start.
    """

    t_start_ms: int
    t_end_ms: int
    drop_pct: float
    active: AppSet

    def __post_init__(self):
        if self.t_end_ms <= self.t_start_ms:
            raise ValueError("interval must have positive duration")
        if self.drop_pct < 0:
            raise ValueError("drop_pct must be non-negative")

    @property
    def duration_h(self) -> float:
        return (self.t_end_ms - self.t_start_ms) / MS_PER_HOUR

    @property
    def rate_pct_per_h(self) -> float:
        return self.drop_pct / self.duration_h


@dataclass(frozen=True)
class GroupRate:
    apps: AppSet
    rate_pct_per_h: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttributionResult:
    baseline_pct_per_h: float
    groups: tuple[GroupRate, ...]
    unobserved: AppSet
    residual_rms: float

    @property
    def ranking(self) -> tuple[GroupRate, ...]:
        """The groups by rate, highest first; ties go to the first app name."""
        return tuple(sorted(self.groups, key=lambda g: (-g.rate_pct_per_h, g.apps[0])))

    def to_dict(self) -> dict:
        def group_dict(g: GroupRate) -> dict:
            return {"apps": list(g.apps), "rate_pct_per_h": g.rate_pct_per_h, "flags": list(g.flags)}

        return {
            "baseline_pct_per_h": self.baseline_pct_per_h,
            "groups": [group_dict(g) for g in self.groups],
            "unobserved": list(self.unobserved),
            "residual_rms": self.residual_rms,
            "ranking": [group_dict(g) for g in self.ranking],
        }


def check_battery_constants(capacity_mah=None, nominal_voltage_mv=None) -> None:
    """ValueError naming the first given battery constant that is not finite and positive."""
    for name, value in (("capacity_mah", capacity_mah), ("nominal_voltage_mv", nominal_voltage_mv)):
        if value is None:
            continue
        value = float(value)
        if not value > 0:
            raise ValueError(f"{name} must be positive: {value}")
        if value == math.inf:
            raise ValueError(f"{name} must be finite: {value}")


def rate_to_power(rate_pct_per_h: float, capacity_mah: float, nominal_voltage_mv: float) -> float:
    """Convert percent-per-hour drain into milliwatts."""
    if rate_pct_per_h < 0:
        raise ValueError(f"rate_pct_per_h must be non-negative: {rate_pct_per_h}")
    check_battery_constants(capacity_mah, nominal_voltage_mv)
    power = rate_pct_per_h / 100.0 * capacity_mah * nominal_voltage_mv / 1000.0
    if not math.isfinite(power):
        raise ValueError(
            f"power_mw is not finite: {rate_pct_per_h} pct/h at {capacity_mah} mAh and {nominal_voltage_mv} mV"
        )
    return power


def build_intervals(records, use_charge_counter: str = "auto") -> list[DischargeInterval]:
    """Extract discharge intervals from adjacent record pairs.

    A pair is usable only when both samples have status Discharging; pairs
    touching Charging/Full/Unknown/NotCharging samples are excluded.  The
    drop comes from the µAh coulomb counter when the mode allows and both
    endpoints carry it (finer than 1% level quantization), otherwise from
    the level delta.  A pair whose raw drop is negative is excluded as
    well: remaining energy cannot rise during an uninterrupted discharge,
    so a rise is evidence of an unobserved charging episode inside the
    pair.  A pair that touches an empty battery is censored, since its
    drop understates what was consumed: a counter drop is excluded when
    either end reads 0 µAh, a level drop when its start reads 0 %.
    Contiguous intervals with the same active set coalesce, which absorbs
    level quantization over steady spans.
    """
    mode = check_charge_counter_mode(use_charge_counter)
    columns = LogColumns.from_records(records)
    found = _fold([columns], mode).intervals()
    return [
        DischargeInterval(start, end, drop, columns.app_sets[apps])
        for start, end, drop, apps in zip(
            found.start.tolist(), found.end.tolist(), found.drop.tolist(), found.apps.tolist()
        )
    ]


class _Intervals(NamedTuple):
    """Discharge intervals as columns: the fields of DischargeInterval, apps as app ids."""

    start: np.ndarray
    end: np.ndarray
    drop: np.ndarray
    apps: np.ndarray


class _Rows(NamedTuple):
    """The columns of consecutive log rows that the intervals read."""

    ts: np.ndarray
    level: np.ndarray
    charge: np.ndarray
    charge_null: np.ndarray
    discharging: np.ndarray
    apps: np.ndarray


class _Runs:
    """The used pairs of one way to take the counted pairs, as runs of coalesced pairs, a stretch at a time.

    Each stretch of pairs directly follows the one before it.  It adds
    its runs as columns, the ts that start and end each, its set id, its
    pair count and whether it opens a run (only the first may continue
    the run before), and its used pairs' integer drops, unscaled and in
    the smallest dtype that holds them, with where the counter gave them.
    """

    def __init__(self):
        self.parts: list[tuple] = []
        self.last = (-2, -1)  # the last used pair and its set id
        self.overflow: OverflowError | None = None  # a counter drop past float range

    def copy(self) -> "_Runs":
        twin = _Runs()
        twin.parts, twin.last, twin.overflow = list(self.parts), self.last, self.overflow
        return twin

    def add(self, rows: _Rows, first_pair: int, used: np.ndarray, raw: np.ndarray, by_counter: np.ndarray) -> None:
        """Add the used pairs of rows, indices of pairs from first_pair on, with each pair's raw drop."""
        if raw.dtype == object:  # Python ints: float() each, as scaling would, so that one past float range raises
            try:
                raw = raw.astype(float)
            except OverflowError as exc:
                self.overflow = self.overflow or exc
                return
        if not used.size:
            return
        # A run of coalesced pairs goes on while the next used pair is the
        # next pair and starts with the same app set.
        sets = rows.apps[used]
        opens = np.ones(used.size, dtype=bool)
        opens[1:] = (used[1:] != used[:-1] + 1) | (sets[1:] != sets[:-1])
        firsts = np.flatnonzero(opens)
        lasts = np.append(firsts[1:], used.size) - 1
        new = np.ones(firsts.size, dtype=bool)
        new[0] = (int(used[0]) + first_pair, int(sets[0])) != (self.last[0] + 1, self.last[1])
        self.last = (int(used[-1]) + first_pair, int(sets[-1]))
        raw = raw[used]
        if raw.dtype != float:  # non-negative ints
            raw = raw.astype(np.min_scalar_type(raw.max()))
        runs = (rows.ts[used[firsts]], rows.ts[used[lasts] + 1], sets[firsts], lasts - firsts + 1, new)
        self.parts.append((*runs, raw, by_counter[used]))

    def intervals(self, full_scale: float | None) -> _Intervals:
        """The runs as intervals, counter drops scaled by full_scale; build_intervals' errors past the full scale."""
        if self.overflow is not None:
            raise self.overflow
        if not self.parts:
            raise TooFewSamples("no usable discharge intervals in the log")
        start, end, sets, lens, new, raw, by_counter = map(np.concatenate, zip(*self.parts))
        firsts = np.flatnonzero(new)  # the runs that are not the last one continued
        lasts = np.append(firsts[1:], new.size) - 1
        drop = raw.astype(float)
        if full_scale is not None:
            with np.errstate(over="ignore"):  # a drop past float range is inf, as in Python floats
                drop[by_counter] = drop[by_counter] / full_scale * 100.0
        return _Intervals(start[firsts], end[lasts], _run_sums(drop, np.add.reduceat(lens, firsts)), sets[firsts])


# Runs of at most this many pairs are summed by vector steps, one per
# place in a run; a longer run by one np.add.accumulate of its own.
_VECTOR_STEPS = 64


def _run_sums(drop: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The sum of each run of drop, runs of lens items one after another.

    Each run's items are added one by one in order, so that every sum is
    the one a running total gives (np.add.reduceat adds pairwise, while
    np.add.accumulate adds in order): step k adds the kth item of every
    short run that long.
    """
    firsts = np.cumsum(lens) - lens
    sums = drop[firsts]
    short = lens <= _VECTOR_STEPS
    for k in range(1, min(int(lens.max()), _VECTOR_STEPS)):
        going = np.flatnonzero(short & (lens > k))
        sums[going] += drop[firsts[going] + k]
    for run in np.flatnonzero(~short).tolist():
        sums[run] = np.add.accumulate(drop[firsts[run] : firsts[run] + lens[run]])[-1]
    return sums


class _Fold:
    """build_intervals over a log's blocks, one at a time: LogColumns that share one name and set table.

    Per block it takes the pairs inside the block and the pair that joins
    it to the last row before it, and carries only what the intervals
    need: the row count, the full-scale sample, the set ids of
    discharging rows, the first discharging pair without a counter, the
    last row, and the runs.  Whether counted pairs take the counter is
    known only at the end, from the full-scale sample, so mode auto keeps
    the runs both ways until a block holds that sample; until a stretch
    holds a counted pair the two are one.  Its errors wait for the end,
    so a bad line anywhere in the log is raised first.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.rows = 0
        self.best: tuple[int, int, int] | None = None  # the full-scale sample's level, charge and ts
        self.uncounted: int | None = None  # the ts that starts the first discharging pair without a counter
        self.discharging = np.zeros(0, dtype=bool)  # by set id: whether a discharging row holds the set
        self.names: list[str] = []
        self.sets: list[np.ndarray] = []
        self.last: _Rows | None = None
        # The runs as counted pairs take the counter, and as they take the level: auto keeps both,
        # one object until a counted pair comes before any full-scale sample.
        self.by_counter = _Runs() if mode != "off" else None
        self.by_level = {"auto": self.by_counter, "on": None, "off": _Runs()}[mode]

    def add(self, block: LogColumns) -> None:
        self.names, self.sets = block.app_names, block.app_ids
        discharging = block.status == _DISCHARGING
        rows = _Rows(block.ts, block.level, block.charge, block.charge_null, discharging, block.apps)
        seen = np.zeros(len(self.sets), dtype=bool)
        seen[: self.discharging.size] = self.discharging
        seen[block.apps[discharging]] = True
        self.discharging = seen
        if self.mode != "off":
            self._full_scale_sample(rows)
        if self.last is not None:
            self._stretch(_Rows(*map(np.concatenate, zip(self.last, (column[:1] for column in rows)))), self.rows - 1)
        self._stretch(rows, self.rows)
        self.rows += len(block)
        self.last = _Rows(*(column[-1:].copy() for column in rows))

    def _full_scale_sample(self, rows: _Rows) -> None:
        """Keep the discharging sample with a positive counter and level of the highest level, earliest on ties."""
        found = np.flatnonzero(rows.discharging & ~rows.charge_null & (rows.charge > 0) & (rows.level > 0))
        if not found.size:
            return
        best = found[np.argmax(rows.level[found])]  # argmax takes the first of equals: the earliest
        if self.best is None or rows.level[best] > self.best[0]:
            self.best = (int(rows.level[best]), int(rows.charge[best]), int(rows.ts[best]))
        if self.mode == "auto":  # counted pairs take the counter
            self.by_level = None

    def _stretch(self, rows: _Rows, first_pair: int) -> None:
        """Add the pairs of rows, which are pairs first_pair on, to the runs."""
        ts, level, charge, null, discharging, _ = rows
        pairs = discharging[:-1] & discharging[1:]
        counted = pairs & ~null[:-1] & ~null[1:]
        if self.mode == "on" and self.uncounted is None and (pairs > counted).any():
            self.uncounted = int(ts[np.argmax(pairs > counted)])
        level_drop = level[:-1] - level[1:]
        if self.by_level is not None:
            if self.by_level is self.by_counter and counted.any():
                self.by_level = self.by_counter.copy()
            used = np.flatnonzero(pairs & (level[:-1] != 0) & (level_drop >= 0))
            self.by_level.add(rows, first_pair, used, level_drop, np.zeros_like(pairs))
        if self.by_counter is not None and self.by_counter is not self.by_level:
            by_counter = counted & (charge[:-1] != 0) & (charge[1:] != 0)
            raw = np.where(by_counter, charge[:-1] - charge[1:], level_drop)
            uncensored = by_counter | (pairs & ~counted & (level[:-1] != 0))
            self.by_counter.add(rows, first_pair, np.flatnonzero(uncensored & (raw >= 0)), raw, by_counter)

    def intervals(self) -> _Intervals:
        """The intervals of the blocks added, or the error that build_intervals gives the log."""
        if self.rows < 2:
            raise TooFewSamples(f"need at least 2 records, got {self.rows}")
        full_scale = None
        if self.best is not None:
            level, charge, ts = self.best
            try:
                full_scale = charge * 100.0 / level
            except OverflowError:
                raise ValueError(
                    f"charge_uah of the sample at ts_ms {ts} is too large for a float;"
                    " analyze with --use-charge-counter off to use levels alone"
                ) from None
        if self.mode == "on":
            if full_scale is None:
                raise ChargeCounterUnavailable("log has no discharging sample with a charge counter")
            if self.uncounted is not None:
                raise ChargeCounterUnavailable(f"charge_uah missing on a discharging sample at ts {self.uncounted}")
        return (self.by_counter if full_scale is not None else self.by_level).intervals(full_scale)


def _fold(blocks, mode: str) -> _Fold:
    """The _Fold of blocks, LogColumns that share one name and set table, whose ts increase strictly."""
    fold = _Fold(mode)
    for block in blocks:
        fold.add(block)
        del block  # hold no block while the next is read
    return fold


@dataclass(frozen=True)
class Grouping:
    """Regression design: a baseline column plus one column per group.

    design column 0 is the always-on baseline; column j+1 marks the rows,
    one per interval (merge_identifiability_groups) or per distinct active
    set (_grouping, which takes each set as its name ids), where groups[j]
    was active.  groups are in the order of their first names.
    inseparable holds apps active in every interval; unobserved holds
    apps never active in any.
    """

    design: np.ndarray
    groups: tuple[AppSet, ...]
    inseparable: AppSet
    unobserved: AppSet


def merge_identifiability_groups(intervals, all_apps=None) -> Grouping:
    """Merge apps with identical interval-membership patterns into groups.

    _grouping decides on the distinct active sets; each interval takes its set's design row.
    """
    intervals = list(intervals)
    if not intervals:
        raise TooFewSamples("no intervals to group")
    sets: dict[AppSet, int] = {}
    rows = np.fromiter((sets.setdefault(iv.active, len(sets)) for iv in intervals), np.intp, len(intervals))
    names = sorted({name for apps in sets for name in apps})
    index = {name: j for j, name in enumerate(names)}
    ids = [np.fromiter(map(index.__getitem__, apps), np.int32, len(apps)) for apps in sets]
    grouping = _grouping(names, ids, all_apps)
    return replace(grouping, design=grouping.design[rows])


def _grouping(names: list[str], sets: list[np.ndarray], all_apps=None) -> Grouping:
    """Grouping with one design row per array of sets, the intervals' distinct active sets.

    Each array holds the set's name ids, indices into names.  Apps with
    equal columns in the sets x names incidence, so over the intervals,
    form one group.
    """
    incidence = np.zeros((len(sets), len(names)), dtype=bool)
    incidence[np.repeat(np.arange(len(sets)), [len(ids) for ids in sets]), np.concatenate(sets)] = True
    seen = sorted(np.flatnonzero(incidence.any(axis=0)).tolist(), key=names.__getitem__)

    patterns: dict[bytes, list[int]] = {}
    always_on: list[str] = []
    for j in seen:
        column = incidence[:, j]
        if column.all():
            always_on.append(names[j])
        else:
            patterns.setdefault(column.tobytes(), []).append(j)
    # Groups are disjoint, so their order is that of their first names.
    ranked = sorted(patterns.values(), key=lambda group: names[group[0]])
    groups = tuple(AppSet(map(names.__getitem__, group)) for group in ranked)

    design = np.ones((len(sets), len(groups) + 1))
    design[:, 1:] = incidence[:, np.array([group[0] for group in ranked], dtype=np.intp)]

    seen_names = set(map(names.__getitem__, seen))
    universe = set(all_apps) if all_apps is not None else seen_names
    unobserved = make_app_set(universe - seen_names)
    return Grouping(design=design, groups=groups, inseparable=AppSet(always_on), unobserved=unobserved)


def attribute(records, use_charge_counter: str = "auto") -> AttributionResult:
    """Estimate baseline and per-group drain rates and rank the groups.

    The app universe is taken from discharging samples only, so results
    are identical whether or not charging spans are present in the log.
    Apps seen only outside usable discharge intervals come back in
    `unobserved`; apps running in every interval come back as a group
    flagged inseparable-from-baseline with their drain folded into the
    baseline estimate rather than split arbitrarily.
    """
    return attribute_columns(LogColumns.from_records(records), use_charge_counter)


def attribute_columns(columns: LogColumns, use_charge_counter: str = "auto") -> AttributionResult:
    """attribute on a log's columns, valid as every LogColumns is; that ts increase strictly is the caller's to keep."""
    return _attribute([columns], use_charge_counter)


def attribute_log(path, use_charge_counter: str = "auto") -> AttributionResult:
    """attribute on the log at path, read one block at a time (recorder.log_blocks).

    It holds one block, the set table and, per used pair, its integer
    drop, never the log's columns.  Errors are load_log's and then
    attribute's: a bad line anywhere wins over a log too short to analyse.
    """
    return _attribute(log_blocks(path), use_charge_counter)  # the mode is checked before the log is opened


def _attribute(blocks, use_charge_counter: str) -> AttributionResult:
    """attribute on blocks, LogColumns that share one name and set table, whose ts increase strictly."""
    fold = _fold(blocks, check_charge_counter_mode(use_charge_counter))
    found = fold.intervals()
    names, sets = fold.names, fold.sets
    discharging = np.zeros(len(names), dtype=bool)
    discharging[np.concatenate([sets[i] for i in np.flatnonzero(fold.discharging).tolist()])] = True
    universe = set(map(names.__getitem__, np.flatnonzero(discharging).tolist()))
    used, rows = np.unique(found.apps, return_inverse=True)
    grouping = _grouping(names, [sets[i] for i in used.tolist()], all_apps=universe)

    # A set's intervals, of summed duration W and drop D, add W (D/W - x beta)^2 + const.
    w = np.asarray((found.end - found.start) / MS_PER_HOUR, dtype=float)
    W = np.bincount(rows, weights=w)
    beta = solve_nnls(grouping.design, np.bincount(rows, weights=found.drop) / W, weights=W)

    baseline = float(beta[0])
    groups = [GroupRate(apps=g, rate_pct_per_h=float(b)) for g, b in zip(grouping.groups, beta[1:])]
    if grouping.inseparable:
        groups.append(GroupRate(apps=grouping.inseparable, rate_pct_per_h=0.0, flags=(INSEPARABLE_FLAG,)))
    residual_rms = float(np.sqrt(w @ (found.drop / w - (grouping.design @ beta)[rows]) ** 2 / np.sum(w)))

    return AttributionResult(
        baseline_pct_per_h=baseline,
        groups=tuple(groups),
        unobserved=grouping.unobserved,
        residual_rms=residual_rms,
    )


# The result formats of `semo analyze` render one payload.  It shows mW
# only when both battery constants are given, and holds every mW, the
# baseline's first, before a format writes its first line.


def _payload(result: AttributionResult, capacity_mah, nominal_voltage_mv) -> dict:
    """result.to_dict(), plus baseline_power_mw and each entry's power_mw when both constants are given."""
    payload = result.to_dict()
    if capacity_mah is not None and nominal_voltage_mv is not None:
        baseline_mw = rate_to_power(result.baseline_pct_per_h, capacity_mah, nominal_voltage_mv)
        for entry in payload["groups"] + payload["ranking"]:
            entry["power_mw"] = rate_to_power(entry["rate_pct_per_h"], capacity_mah, nominal_voltage_mv)
        payload["baseline_power_mw"] = baseline_mw
    return payload


def write_result_table(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    payload = _payload(result, capacity_mah, nominal_voltage_mv)
    baseline_mw = payload.get("baseline_power_mw")
    labels = [";".join(entry["apps"]) for entry in payload["ranking"]]
    width = max([len("group"), *map(len, labels)])
    header = f"{'rank':>4}  {'group':<{width}}  {'rate_pct_per_h':>14}"
    if baseline_mw is not None:
        header += f"  {'power_mw':>10}"
    header += "  flags"
    print(header, file=stream)
    for rank, (entry, label) in enumerate(zip(payload["ranking"], labels), start=1):
        row = f"{rank:>4}  {label:<{width}}  {entry['rate_pct_per_h']:>14.4f}"
        if baseline_mw is not None:
            row += f"  {entry['power_mw']:>10.1f}"
        row += f"  {' '.join(entry['flags'])}"
        print(row.rstrip(), file=stream)
    baseline = f"baseline: {payload['baseline_pct_per_h']:.4f} pct/h"
    if baseline_mw is not None:
        baseline += f" ({baseline_mw:.1f} mW)"
    print(baseline, file=stream)
    print(f"residual rms: {payload['residual_rms']:.6f} pct/h", file=stream)
    if payload["unobserved"]:
        print(f"unobserved: {', '.join(payload['unobserved'])}", file=stream)


def write_result_csv(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    payload = _payload(result, capacity_mah, nominal_voltage_mv)
    writer = csv.writer(stream)
    writer.writerow(["group", "rate_pct_per_h", "power_mw", "flags"])
    for entry in payload["ranking"]:
        power_text = f"{entry['power_mw']:.3f}" if "power_mw" in entry else ""
        rate_text = f"{entry['rate_pct_per_h']:.6f}"
        writer.writerow([";".join(entry["apps"]), rate_text, power_text, " ".join(entry["flags"])])


def write_result_json(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    print(json.dumps(_payload(result, capacity_mah, nominal_voltage_mv), allow_nan=False), file=stream)
