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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ChargeCounterUnavailable, NotFittedError, TooFewSamples
from .nnls import solve_nnls, weighted_sse
from .sources import AppSet, BatteryStatus, make_app_set
from .validation import check_charge_counter_mode, check_positive, check_records

MS_PER_HOUR = 3_600_000.0

INSEPARABLE_FLAG = "inseparable-from-baseline"


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


@dataclass(frozen=True)
class PowerEstimate:
    """A drain rate converted to milliwatts via the battery constants."""

    rate_pct_per_h: float
    capacity_mah: float
    nominal_voltage_mv: int

    @property
    def power_mw(self) -> float:
        return rate_to_power(self.rate_pct_per_h, self.capacity_mah, self.nominal_voltage_mv)


def rate_to_power(rate_pct_per_h: float, capacity_mah: float, nominal_voltage_mv: float) -> float:
    """Convert percent-per-hour drain into milliwatts."""
    if rate_pct_per_h < 0:
        raise ValueError(f"rate_pct_per_h must be non-negative: {rate_pct_per_h}")
    check_positive("capacity_mah", capacity_mah)
    check_positive("nominal_voltage_mv", nominal_voltage_mv)
    return rate_pct_per_h / 100.0 * capacity_mah * nominal_voltage_mv / 1000.0


def _infer_full_scale_uah(records) -> float | None:
    """Estimate the full battery charge in µAh from the log itself.

    Uses charge_uah / level_pct at the best-populated discharging sample
    (highest level, earliest on ties); only discharging samples count so
    the estimate is unchanged when charging spans are dropped from a log.
    """
    best = None
    for record in records:
        s = record.sample
        if s.status is not BatteryStatus.DISCHARGING:
            continue
        if s.charge_uah is None or s.level_pct <= 0:
            continue
        key = (s.level_pct, -s.ts_ms)
        if best is None or key > best[0]:
            best = (key, s.charge_uah * 100.0 / s.level_pct)
    return None if best is None else best[1]


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
    return _discharge_intervals(check_records(records), mode)


def _discharge_intervals(records: list, mode: str) -> list[DischargeInterval]:
    """build_intervals on records already checked by check_records."""
    if len(records) < 2:
        raise TooFewSamples(f"need at least 2 records, got {len(records)}")

    full_scale = _infer_full_scale_uah(records) if mode != "off" else None
    if mode == "on" and full_scale is None:
        raise ChargeCounterUnavailable("log has no discharging sample with a charge counter")

    intervals: list[DischargeInterval] = []
    # The open run of coalesced pairs; it becomes one interval when it closes.
    start = end = None
    run_drop = 0.0
    run_active = None
    for a, b in zip(records, records[1:]):
        sa, sb = a.sample, b.sample
        if sa.status is not BatteryStatus.DISCHARGING or sb.status is not BatteryStatus.DISCHARGING:
            continue
        have_charge = full_scale is not None and sa.charge_uah is not None and sb.charge_uah is not None
        if mode == "on" and not have_charge:
            raise ChargeCounterUnavailable(f"charge_uah missing on a discharging sample at ts {sa.ts_ms}")
        if have_charge:
            if sa.charge_uah == 0 or sb.charge_uah == 0:
                continue
            drop = (sa.charge_uah - sb.charge_uah) / full_scale * 100.0
        else:
            if sa.level_pct == 0:
                continue
            drop = float(sa.level_pct - sb.level_pct)
        if drop < 0:
            continue
        if end == sa.ts_ms and run_active == a.apps:
            end = sb.ts_ms
            run_drop += drop
            continue
        if start is not None:
            intervals.append(DischargeInterval(start, end, run_drop, run_active))
        start, end, run_drop, run_active = sa.ts_ms, sb.ts_ms, drop, a.apps
    if start is not None:
        intervals.append(DischargeInterval(start, end, run_drop, run_active))
    if not intervals:
        raise TooFewSamples("no usable discharge intervals in the log")
    return intervals


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

    One pass over the intervals fills a boolean intervals x apps
    incidence matrix; apps whose columns are equal form one group, and
    the design takes that shared column once per group.
    """
    intervals = list(intervals)
    if not intervals:
        raise TooFewSamples("no intervals to group")
    seen = sorted({name for iv in intervals for name in iv.active})
    index = {name: j for j, name in enumerate(seen)}
    incidence = np.zeros((len(intervals), len(seen)), dtype=bool)
    rows = np.repeat(np.arange(len(intervals)), [len(iv.active) for iv in intervals])
    cols = np.fromiter((index[name] for iv in intervals for name in iv.active), dtype=np.intp, count=rows.size)
    incidence[rows, cols] = True

    patterns: dict[bytes, list[str]] = {}
    always_on: list[str] = []
    for name, column in zip(seen, incidence.T):
        if column.all():
            always_on.append(name)
        else:
            patterns.setdefault(column.tobytes(), []).append(name)
    ranked = sorted((make_app_set(apps), index[apps[0]]) for apps in patterns.values())
    groups = tuple(group for group, _ in ranked)

    design = np.ones((len(intervals), len(groups) + 1))
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
    records = check_records(records)
    intervals = _discharge_intervals(records, check_charge_counter_mode(use_charge_counter))
    universe = {
        name
        for record in records
        if record.sample.status is BatteryStatus.DISCHARGING
        for name in record.apps
    }
    grouping = merge_identifiability_groups(intervals, all_apps=universe)

    y = np.array([iv.rate_pct_per_h for iv in intervals])
    w = np.array([iv.duration_h for iv in intervals])
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


def export_csv(data, path, capacity_mah=None, nominal_voltage_mv=None) -> None:
    """Write either a record list or an AttributionResult as CSV.

    Records export with columns ts_ms,level_pct,voltage_mv,temp_dc,
    charge_uah,status,apps (apps semicolon-joined); results export with
    columns group,rate_pct_per_h,power_mw,flags in ranking order, the
    power column filled only when the battery constants are given.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(data, AttributionResult):
            write_result_csv(fh, data, capacity_mah, nominal_voltage_mv)
        else:
            write_records_csv(fh, data)


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


def write_result_csv(stream, result: AttributionResult, capacity_mah=None, nominal_voltage_mv=None) -> None:
    writer = csv.writer(stream)
    writer.writerow(["group", "rate_pct_per_h", "power_mw", "flags"])
    for group in result.ranking:
        if capacity_mah is not None and nominal_voltage_mv is not None:
            power = f"{rate_to_power(group.rate_pct_per_h, capacity_mah, nominal_voltage_mv):.3f}"
        else:
            power = ""
        writer.writerow([group.label, f"{group.rate_pct_per_h:.6f}", power, " ".join(group.flags)])


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

    def __init__(self, use_charge_counter: str = "auto", capacity_mah=None, nominal_voltage_mv=None):
        self.use_charge_counter = use_charge_counter
        self.capacity_mah = capacity_mah
        self.nominal_voltage_mv = nominal_voltage_mv

    def get_params(self, deep: bool = True) -> dict:
        return {
            "use_charge_counter": self.use_charge_counter,
            "capacity_mah": self.capacity_mah,
            "nominal_voltage_mv": self.nominal_voltage_mv,
        }

    def set_params(self, **params) -> "EnergyAttributor":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for EnergyAttributor")
            setattr(self, key, value)
        return self

    def fit(self, records, y=None) -> "EnergyAttributor":
        check_charge_counter_mode(self.use_charge_counter)
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

    def power_estimate(self, rate_pct_per_h: float) -> PowerEstimate:
        """Bundle a rate with the configured battery constants."""
        if self.capacity_mah is None or self.nominal_voltage_mv is None:
            raise ValueError("capacity_mah and nominal_voltage_mv must be set for power estimates")
        return PowerEstimate(rate_pct_per_h, self.capacity_mah, self.nominal_voltage_mv)
