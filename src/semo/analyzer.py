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

The intervals are computed on the log's columns (recorder.LogColumns):
pair masks, counter and level drops, censoring and run boundaries are
array operations, and only each run's drops are summed one by one, in
pair order, so every interval is bit-identical to a pair-by-pair loop.
App sets stay the reader's arrays of name ids up to the solver: the
grouping fills its incidence with one index assignment, and the app
universe is the ids of the discharging rows' sets, so no name of a set
is walked one by one in Python on the way from log to result.
attribute and build_intervals build those columns from records with
recorder.LogColumns.from_records, which refuses records out of order;
`semo analyze` reads them from the log with recorder.load_columns.  The
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
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import ChargeCounterUnavailable, TooFewSamples
from .nnls import solve_nnls
from .recorder import STATUSES, LogColumns
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


def _infer_full_scale_uah(columns: LogColumns) -> float | None:
    """Estimate the full battery charge in µAh from the log itself.

    Uses charge_uah / level_pct at the best-populated discharging sample
    with a positive counter and level (highest level, earliest on ties);
    only discharging samples count so the estimate is unchanged when
    charging spans are dropped from a log.  Raises ValueError, naming the
    sample, when its counter is past float range.
    """
    rows = np.flatnonzero(
        (columns.status == _DISCHARGING) & ~columns.charge_null & (columns.charge > 0) & (columns.level > 0)
    )
    if not rows.size:
        return None
    best = rows[np.argmax(columns.level[rows])]  # argmax takes the first of equals: the earliest
    try:
        return int(columns.charge[best]) * 100.0 / int(columns.level[best])
    except OverflowError:
        raise ValueError(
            f"charge_uah of the sample at ts_ms {int(columns.ts[best])} is too large for a float;"
            " analyze with --use-charge-counter off to use levels alone"
        ) from None


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
    found = _discharge_intervals(columns, mode)
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


def _discharge_intervals(columns: LogColumns, mode: str) -> _Intervals:
    """build_intervals on the columns of records whose ts increase strictly."""
    n = len(columns)
    if n < 2:
        raise TooFewSamples(f"need at least 2 records, got {n}")

    full_scale = _infer_full_scale_uah(columns) if mode != "off" else None
    if mode == "on" and full_scale is None:
        raise ChargeCounterUnavailable("log has no discharging sample with a charge counter")

    # Pair i joins rows i and i + 1.
    ts, level, charge, apps = columns.ts, columns.level, columns.charge, columns.apps
    discharging = columns.status == _DISCHARGING
    pairs = discharging[:-1] & discharging[1:]
    counted = np.zeros(n - 1, dtype=bool)
    if full_scale is not None:
        counted = ~columns.charge_null[:-1] & ~columns.charge_null[1:]
    if mode == "on":
        missing = np.flatnonzero(pairs & ~counted)
        if missing.size:
            first = int(ts[missing[0]])
            raise ChargeCounterUnavailable(f"charge_uah missing on a discharging sample at ts {first}")

    drop = (level[:-1] - level[1:]).astype(float)
    censored = np.where(counted, (charge[:-1] == 0) | (charge[1:] == 0), level[:-1] == 0)
    by_counter = np.flatnonzero(pairs & counted & ~censored)
    drop[by_counter] = (charge[by_counter] - charge[by_counter + 1]) / full_scale * 100.0
    used = np.flatnonzero(pairs & ~censored & (drop >= 0))
    if not used.size:
        raise TooFewSamples("no usable discharge intervals in the log")

    # A run of coalesced pairs goes on while the next used pair is the
    # next pair and starts with the same app set.
    opens = np.ones(used.size, dtype=bool)
    opens[1:] = (used[1:] != used[:-1] + 1) | (apps[used[1:]] != apps[used[:-1]])
    firsts = np.flatnonzero(opens)
    lasts = np.append(firsts[1:], used.size) - 1
    # Each run's drops are added one by one in pair order, so that every
    # sum is the one a running total gives (np.add.reduceat adds pairwise).
    drops = drop[used].tolist()
    sums = [reduce(add, drops[first : last + 1]) for first, last in zip(firsts.tolist(), lasts.tolist())]
    return _Intervals(
        start=ts[used[firsts]],
        end=ts[used[lasts] + 1],
        drop=np.array(sums, dtype=float),
        apps=apps[used[firsts]],
    )


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
    found = _discharge_intervals(columns, check_charge_counter_mode(use_charge_counter))
    names, sets = columns.app_names, columns.app_ids
    discharging = np.zeros(len(names), dtype=bool)
    discharging_sets = np.unique(columns.apps[columns.status == _DISCHARGING]).tolist()
    discharging[np.concatenate([sets[i] for i in discharging_sets])] = True
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
