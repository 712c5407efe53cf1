"""Per-application energy attribution over recorded logs.

The drain model is additive: each discharge interval's observed rate
(percent of capacity per hour) is a baseline (OS/idle) plus the rates of
whatever applications were running.  Rates are estimated by
duration-weighted non-negative least squares over the intervals.
Applications whose on/off pattern is indistinguishable across the data
share one identifiability group instead of receiving an arbitrary split;
applications running in every interval are folded into the baseline and
flagged, and applications never seen in a usable discharge interval are
reported as unobserved.

The intervals are computed on the log's columns (recorder.LogColumns):
pair masks, counter and level drops, censoring and run boundaries are
array operations, and only each run's drops are summed one by one, in
pair order, so every interval is bit-identical to a pair-by-pair loop.
attribute and build_intervals build those columns from records with
recorder.LogColumns.from_records, which also refuses records out of
order; `semo analyze` reads them from the log with recorder.load_columns.
The analyzer holds no rule of the log format itself.  Battery constants
must be finite and positive, and the JSON result refuses a power that
overflowed to infinity rather than print a non-JSON `Infinity`.
The result formats of `semo analyze`, table, CSV and JSON, live here too.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import ChargeCounterUnavailable, NotFittedError, TooFewSamples
from .nnls import solve_nnls, weighted_sse
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

    @property
    def label(self) -> str:
        return ";".join(self.apps)


@dataclass(frozen=True)
class AttributionResult:
    baseline_pct_per_h: float
    groups: tuple[GroupRate, ...]
    unobserved: AppSet
    residual_rms: float
    ranking: tuple[GroupRate, ...]

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
    return rate_pct_per_h / 100.0 * capacity_mah * nominal_voltage_mv / 1000.0


def _power_mw(rate_pct_per_h: float, capacity_mah, nominal_voltage_mv) -> float | None:
    """rate_to_power, or None unless both battery constants are given."""
    if capacity_mah is None or nominal_voltage_mv is None:
        return None
    return rate_to_power(rate_pct_per_h, capacity_mah, nominal_voltage_mv)


def _infer_full_scale_uah(columns: LogColumns) -> float | None:
    """Estimate the full battery charge in µAh from the log itself.

    Uses charge_uah / level_pct at the best-populated discharging sample
    with a positive counter and level (highest level, earliest on ties);
    only discharging samples count so the estimate is unchanged when
    charging spans are dropped from a log.
    """
    rows = np.flatnonzero(
        (columns.status == _DISCHARGING) & ~columns.charge_null & (columns.charge > 0) & (columns.level > 0)
    )
    if not rows.size:
        return None
    best = rows[np.argmax(columns.level[rows])]  # argmax takes the first of equals: the earliest
    return int(columns.charge[best]) * 100.0 / int(columns.level[best])


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

    design column 0 is the always-on baseline; column j+1 indicates the
    intervals where groups[j] was active.  inseparable holds apps active
    in every interval (their column would duplicate the baseline);
    unobserved holds apps never active in any interval.
    """

    design: np.ndarray
    groups: tuple[AppSet, ...]
    inseparable: AppSet
    unobserved: AppSet


def merge_identifiability_groups(intervals, all_apps=None) -> Grouping:
    """Merge apps with identical interval-membership patterns into groups.

    A boolean incidence matrix of the distinct active sets x apps, taken
    once per interval, gives the intervals x apps incidence; apps whose
    columns are equal form one group, and the design takes that shared
    column once per group.
    """
    intervals = list(intervals)
    if not intervals:
        raise TooFewSamples("no intervals to group")
    ids: dict[AppSet, int] = {}
    active = np.fromiter((ids.setdefault(iv.active, len(ids)) for iv in intervals), np.intp, len(intervals))
    return _grouping(active, list(ids), all_apps)


def _grouping(active: np.ndarray, app_sets: list[AppSet], all_apps=None) -> Grouping:
    """merge_identifiability_groups of intervals whose active sets are app_sets[active]."""
    used, rows = np.unique(active, return_inverse=True)
    used_sets = [app_sets[i] for i in used.tolist()]
    seen = sorted({name for apps in used_sets for name in apps})
    index = {name: j for j, name in enumerate(seen)}
    set_incidence = np.zeros((len(used_sets), len(seen)), dtype=bool)
    set_rows = np.repeat(np.arange(len(used_sets)), [len(apps) for apps in used_sets])
    cols = np.fromiter((index[name] for apps in used_sets for name in apps), dtype=np.intp, count=set_rows.size)
    set_incidence[set_rows, cols] = True
    incidence = set_incidence[rows]

    patterns: dict[bytes, list[str]] = {}
    always_on: list[str] = []
    for name, column in zip(seen, incidence.T):
        if column.all():
            always_on.append(name)
        else:
            patterns.setdefault(column.tobytes(), []).append(name)
    ranked = sorted((make_app_set(apps), index[apps[0]]) for apps in patterns.values())
    groups = tuple(group for group, _ in ranked)

    design = np.ones((len(active), len(groups) + 1))
    design[:, 1:] = incidence[:, np.array([j for _, j in ranked], dtype=np.intp)]

    universe = set(all_apps) if all_apps is not None else set(seen)
    unobserved = make_app_set(universe - set(seen))
    return Grouping(design=design, groups=groups, inseparable=make_app_set(always_on), unobserved=unobserved)


def _rank(groups) -> tuple[GroupRate, ...]:
    return tuple(sorted(groups, key=lambda g: (-g.rate_pct_per_h, g.apps[0])))


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
    """attribute on a log's columns, as load_columns gives them; ts must increase strictly."""
    found = _discharge_intervals(columns, check_charge_counter_mode(use_charge_counter))
    discharging_sets = np.unique(columns.apps[columns.status == _DISCHARGING]).tolist()
    universe = {name for i in discharging_sets for name in columns.app_sets[i]}
    grouping = _grouping(found.apps, columns.app_sets, all_apps=universe)

    w = np.asarray((found.end - found.start) / MS_PER_HOUR, dtype=float)
    y = found.drop / w
    beta = solve_nnls(grouping.design, y, weights=w)

    baseline = float(beta[0])
    groups = [GroupRate(apps=g, rate_pct_per_h=float(b)) for g, b in zip(grouping.groups, beta[1:])]
    if grouping.inseparable:
        groups.append(GroupRate(apps=grouping.inseparable, rate_pct_per_h=0.0, flags=(INSEPARABLE_FLAG,)))
    residual_rms = float(np.sqrt(weighted_sse(grouping.design, y, beta, w) / np.sum(w)))

    return AttributionResult(
        baseline_pct_per_h=baseline,
        groups=tuple(groups),
        unobserved=grouping.unobserved,
        residual_rms=residual_rms,
        ranking=_rank(groups),
    )


def export_csv(records, path) -> None:
    """Write records as CSV.

    Columns ts_ms,level_pct,voltage_mv,temp_dc,charge_uah,status,apps,
    apps semicolon-joined.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_records_csv(fh, records)


def write_records_csv(stream, records) -> None:
    writer = csv.writer(stream)
    writer.writerow(["ts_ms", "level_pct", "voltage_mv", "temp_dc", "charge_uah", "status", "apps"])
    for record in records:
        s = record.sample
        writer.writerow(
            [
                s.ts_ms,
                s.level_pct,
                s.voltage_mv,
                s.temp_dc,
                "" if s.charge_uah is None else s.charge_uah,
                s.status.value,
                ";".join(record.apps),
            ]
        )


# The result formats of `semo analyze`.  Each shows mW only when both
# battery constants are given.


def write_result_table(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    baseline_mw = _power_mw(result.baseline_pct_per_h, capacity_mah, nominal_voltage_mv)
    labels = [g.label for g in result.ranking]
    width = max([len("group"), *map(len, labels)]) if labels else len("group")
    header = f"{'rank':>4}  {'group':<{width}}  {'rate_pct_per_h':>14}"
    if baseline_mw is not None:
        header += f"  {'power_mw':>10}"
    header += "  flags"
    print(header, file=stream)
    for rank, group in enumerate(result.ranking, start=1):
        row = f"{rank:>4}  {group.label:<{width}}  {group.rate_pct_per_h:>14.4f}"
        power = _power_mw(group.rate_pct_per_h, capacity_mah, nominal_voltage_mv)
        if power is not None:
            row += f"  {power:>10.1f}"
        row += f"  {' '.join(group.flags)}"
        print(row.rstrip(), file=stream)
    baseline = f"baseline: {result.baseline_pct_per_h:.4f} pct/h"
    if baseline_mw is not None:
        baseline += f" ({baseline_mw:.1f} mW)"
    print(baseline, file=stream)
    print(f"residual rms: {result.residual_rms:.6f} pct/h", file=stream)
    if result.unobserved:
        print(f"unobserved: {', '.join(result.unobserved)}", file=stream)


def write_result_csv(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    writer = csv.writer(stream)
    writer.writerow(["group", "rate_pct_per_h", "power_mw", "flags"])
    for group in result.ranking:
        power = _power_mw(group.rate_pct_per_h, capacity_mah, nominal_voltage_mv)
        power_text = "" if power is None else f"{power:.3f}"
        writer.writerow([group.label, f"{group.rate_pct_per_h:.6f}", power_text, " ".join(group.flags)])


def write_result_json(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    payload = result.to_dict()
    baseline_mw = _power_mw(result.baseline_pct_per_h, capacity_mah, nominal_voltage_mv)
    if baseline_mw is not None:
        for entry in payload["groups"] + payload["ranking"]:
            entry["power_mw"] = rate_to_power(entry["rate_pct_per_h"], capacity_mah, nominal_voltage_mv)
        payload["baseline_power_mw"] = baseline_mw
    print(json.dumps(payload, allow_nan=False), file=stream)


class EnergyAttributor:
    """Scikit-learn style wrapper around :func:`attribute`.

    fit() consumes a list of LogRecords and exposes the estimates through
    trailing-underscore attributes; get_params/set_params follow the
    ecosystem protocol so the estimator clones and grid-searches like any
    other.  No scikit-learn import is required.

    >>> est = EnergyAttributor().fit(records)
    >>> est.ranking_[0].apps
    ('file download',)
    """

    def __init__(self, use_charge_counter: str = "auto"):
        self.use_charge_counter = use_charge_counter

    def get_params(self, deep: bool = True) -> dict:
        return {"use_charge_counter": self.use_charge_counter}

    def set_params(self, **params) -> "EnergyAttributor":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for EnergyAttributor")
            setattr(self, key, value)
        return self

    def fit(self, records, y=None) -> "EnergyAttributor":
        result = attribute(records, self.use_charge_counter)
        self.result_ = result
        self.baseline_pct_per_h_ = result.baseline_pct_per_h
        self.groups_ = result.groups
        self.ranking_ = result.ranking
        self.unobserved_ = result.unobserved
        self.residual_rms_ = result.residual_rms
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "result_"):
            raise NotFittedError("EnergyAttributor must be fitted before calling predict()")

    def predict(self, records) -> np.ndarray:
        """Predicted drain rate (pct/h) for each discharge interval of `records`.

        Fitted group rates apply where the whole group is running; apps
        outside the fitted vocabulary contribute nothing beyond baseline.
        """
        self._check_fitted()
        intervals = build_intervals(records, self.use_charge_counter)
        rates = []
        for iv in intervals:
            active = set(iv.active)
            rate = self.baseline_pct_per_h_
            for group in self.groups_:
                if set(group.apps) <= active:
                    rate += group.rate_pct_per_h
            rates.append(rate)
        return np.array(rates)
