"""Ground-truth checks on the program's outputs.

The *_error functions return None when the output is right and a
one-line reason when it is not; ticks_bad counts the wrong ticks.  Truth comes from the scenario (workloads.py) or,
for the curve, from the simulated records themselves, never from the
analyzer.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations


def analysis_error(workload, payload: dict) -> str | None:
    """Check `semo analyze --format json` output against the scenario's rates."""
    truth, tol = workload.truth, workload.tolerance
    estimates = {"baseline": payload["baseline_pct_per_h"]}
    for group in payload["groups"]:
        if len(group["apps"]) != 1 or group["flags"]:
            return f"expected one app per group and no flags, got {group}"
        estimates[group["apps"][0]] = group["rate_pct_per_h"]
    if estimates.keys() != {"baseline", *workload.observed}:
        return f"estimated {sorted(estimates)}, expected baseline and {sorted(workload.observed)}"
    unobserved = set(workload.scenario.apps) - workload.observed
    if set(payload["unobserved"]) != unobserved:
        return f"unobserved {payload['unobserved']}, expected {sorted(unobserved)}"
    for name, rate in estimates.items():
        if not abs(rate - truth[name]) <= tol[name]:
            return f"{name}: {rate!r} pct/h, true {truth[name]!r} +- {tol[name]:.3g}"

    ranking = [group["apps"][0] for group in payload["ranking"]]
    if sorted(ranking) != sorted(workload.observed):
        return f"ranking lists {ranking}"
    position = {app: i for i, app in enumerate(ranking)}
    for a, b in combinations(workload.true_order(), 2):
        if truth[a] - truth[b] > tol[a] + tol[b] and position[a] > position[b]:
            return f"ranking puts {b} above {a}"
    return None


def curve_error(records, tail: int, stdout: str) -> str | None:
    """Check `semo curve --tail N` CSV output against the last N records."""
    lines = stdout.splitlines()
    expected = [f"{r.sample.ts_ms},{r.sample.level_pct}" for r in records[-tail:]]
    if lines[:1] != ["ts_ms,level_pct"] or lines[1:] != expected:
        return f"curve has {len(lines) - 1} rows, not the last {tail} samples"
    return None


def resume_error(workload, last_ts_ms) -> str | None:
    """The resumed writer must continue after the scenario's last sample."""
    expected = workload.scenario.duration_s * 1000
    if last_ts_ms != expected:
        return f"resumed at ts {last_ts_ms}, expected {expected}"
    return None


def ticks_bad(reloaded, base_records: int, source_record, start_ms: int, interval_ms: int, ticks: int) -> int:
    """Count the ticks whose record is missing or wrong in the re-loaded log.

    The log must hold exactly `ticks` more records than before, each one
    carrying the source directory's values at one interval apart from
    `start_ms`.
    """
    if len(reloaded) != base_records + ticks:
        return ticks
    return sum(
        record.apps != source_record.apps
        or record.sample != replace(source_record.sample, ts_ms=start_ms + i * interval_ms)
        for i, record in enumerate(reloaded[base_records:])
    )
