"""Timed and traced runs of semo's user-facing operations on one workload.

A run sets the workload up (simulate + write_log, SETUP_REPS times), then
repeats whole rounds of the same operations while the next round should
end within `seconds`, checking every output against ground truth.  Only
the program's own calls are timed; checks, copies and re-loads sit
outside the timers.  End-to-end times are reported adjusted for the
host's speed (hostspeed.py); the raw wall times are kept beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from semo import (
    FileTreeSource,
    LogRecord,
    LogWriter,
    RecorderConfig,
    SimulatedClock,
    attribute,
    build_intervals,
    load_log,
    merge_identifiability_groups,
    run_loop,
    simulate,
    solve_nnls,
    write_log,
)
from semo.analyzer import write_result_csv
from semo.cli import main as semo_main
from semo.sources import BatteryStatus

from checks import analysis_error, curve_error, resume_error, ticks_bad
from hostspeed import Scaler
from workloads import WORKLOADS, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 5
CURVE_TAIL = 60
TICKS = 3000  # recorder ticks per round
TICK_BATCH = 300  # ticks between two host-speed probes
LAYER_CALLS = 200  # calls per round to each per-call layer function (traced run)
MB = 1e6


@dataclass
class Tally:
    """Operations attempted and failed; `correct` turns false on a wrong output."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def check(self, error: str | None, count: int = 1) -> None:
        self.attempted += count
        if error is not None:
            self.failed += count
            self.correct = False
            print(f"check failed: {error}", flush=True)


class Tracer:
    """One span per layer call: name, start, end and parent, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _ in self.spans if span == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path: Path) -> None:
        spans = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"clock": "time.perf_counter, seconds", "spans": spans}))


class NoTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield


@dataclass
class Setup:
    """The workload's files and the little of its records the checks need."""

    workload: Workload
    log: Path
    source_dir: Path
    tail: list  # the last CURVE_TAIL simulated records
    n_records: int

    @property
    def last(self):
        return self.tail[-1]

    @property
    def interval_ms(self) -> int:
        return self.workload.scenario.sample_interval_s * 1000


def set_up(workload: Workload, workdir: Path, scaler: Scaler, tracer=NoTracer()) -> Setup:
    """simulate + write_log the workload SETUP_REPS times, timing each as setup_s."""
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "log.jsonl"
    for _ in range(SETUP_REPS):
        records = None
        gc.collect()
        start = time.perf_counter()
        with tracer.span("simulator.simulate"):
            records = simulate(workload.scenario)
        with tracer.span("recorder.write_log"):
            write_log(log, records)
        scaler.add("setup_s", [time.perf_counter() - start])
    setup = Setup(workload, log, workdir / "source", records[-CURVE_TAIL:], len(records))
    write_source_dir(setup.source_dir, setup.last)
    return setup


def write_source_dir(root: Path, record) -> None:
    """Power-supply layout holding the state of `record`."""
    s = record.sample
    root.mkdir(exist_ok=True)
    fields = {
        "capacity": s.level_pct,
        "voltage_now": s.voltage_mv * 1000,
        "temp": s.temp_dc,
        "charge_now": s.charge_uah,
        "status": s.status.label,
        "health": s.health.label,
        "running_apps": "\n".join(record.apps),
    }
    for name, value in fields.items():
        (root / name).write_text(f"{value}\n")


def semo(*argv) -> tuple[float, str | None, str]:
    """Run one semo CLI command in this process: (seconds, error, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = semo_main([str(a) for a in argv])
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"semo {argv[0]} exited {code}", out.getvalue()


def analyze(setup: Setup, tally: Tally) -> float:
    elapsed, error, stdout = semo("analyze", setup.log, "--format", "json")
    tally.check(error or analysis_error(setup.workload, json.loads(stdout)))
    return elapsed


def curve(setup: Setup, tally: Tally) -> float:
    elapsed, error, stdout = semo("curve", setup.log, "--tail", CURVE_TAIL)
    tally.check(error or curve_error(setup.tail, CURVE_TAIL, stdout))
    return elapsed


def resume(setup: Setup, tally: Tally) -> float:
    start = time.perf_counter()
    with LogWriter(setup.log) as writer:
        elapsed = time.perf_counter() - start
        last_ts = writer.last_ts_ms
    tally.check(resume_error(setup.workload, last_ts))
    return elapsed


def record_ticks(setup: Setup, scaler: Scaler, tick_log: Path, start_ms: int) -> None:
    """TICKS recorder ticks through run_loop, appended to `tick_log`, timed as tick_us.

    The SimulatedClock's advance callback fires once per tick, after its
    append.  A tick is timed from the end of one callback to the start of
    the next, so the first tick, which also opens the log, is left out,
    and so are the host-speed probes that the callback runs every
    TICK_BATCH ticks.
    """
    clock = SimulatedClock(start_ms)
    stop = threading.Event()
    count = 0
    left_at = None
    batch: list[float] = []

    def on_advance(now_ms):
        nonlocal count, left_at
        if left_at is not None:
            batch.append((time.perf_counter() - left_at) * 1e6)
        count += 1
        if count % TICK_BATCH == 0 or count == TICKS:
            scaler.add("tick_us", batch)
            batch.clear()
        if count == TICKS:
            stop.set()
        left_at = time.perf_counter()

    clock.on_advance = on_advance
    config = RecorderConfig(out_path=tick_log, interval_s=setup.workload.scenario.sample_interval_s)
    run_loop(config, FileTreeSource(setup.source_dir), clock, stop)


def collected(op, *args):
    """Run `op` after a full garbage collection, so each call starts alike."""
    gc.collect()
    return op(*args)


def peak_mb(setup: Setup, tally: Tally) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        analyze(setup, tally)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def rounds(seconds: float):
    """Yield round numbers while the next round should end within `seconds`.

    The first round always runs; each later one is expected to last as
    long as the average round before it.
    """
    start = time.perf_counter()
    count = 0
    while True:
        yield count
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


TIMED = {"analyze_s": "s", "curve_s": "s", "resume_s": "s", "tick_us": "us", "setup_s": "s"}


def run_end_to_end(setup: Setup, scaler: Scaler, seconds: float, tally: Tally) -> dict:
    """Whole rounds of analyze, curve, resume and TICKS ticks within `seconds`.

    The ticks of every round append to one copy of the workload's log,
    which is re-loaded and checked once, after the last round, so the
    re-load does not take time from the measured rounds.  Timed metrics
    are medians of the host-speed-adjusted samples in `scaler`.
    """
    peak = peak_mb(setup, tally)  # also the warm-up: imports, caches, first touch of the log
    tick_log = setup.log.with_name("ticks.jsonl")
    shutil.copyfile(setup.log, tick_log)
    first_tick_ms = setup.last.sample.ts_ms + setup.interval_ms
    scaler.reprobe()
    for count in rounds(seconds):
        scaler.add("analyze_s", [collected(analyze, setup, tally)])
        scaler.add("curve_s", [collected(curve, setup, tally)])
        scaler.add("resume_s", [collected(resume, setup, tally)])
        collected(record_ticks, setup, scaler, tick_log, first_tick_ms + count * TICKS * setup.interval_ms)
    ticked = (count + 1) * TICKS
    bad = ticks_bad(load_log(tick_log), setup.n_records, setup.last, first_tick_ms, setup.interval_ms, ticked)
    tally.check(f"{bad} of {ticked} ticks missing or wrong" if bad else None, count=ticked)
    tick_log.unlink()
    metrics = {name: (scaler.median(name), unit) for name, unit in TIMED.items()}
    metrics["analyze_peak_mb"] = (peak, "MB")
    return metrics


def traced_round(setup: Setup, tracer: Tracer, tally: Tally) -> dict:
    """One pass over every layer in pipeline order; returns the round's counts."""
    workload = setup.workload
    with tracer.span("round"):
        gc.collect()
        with tracer.span("recorder.load_log"):
            records = load_log(setup.log)
        with tracer.span("analyzer.build_intervals"):
            intervals = build_intervals(records)
        universe = {name for r in records if r.sample.status is BatteryStatus.DISCHARGING for name in r.apps}
        with tracer.span("analyzer.merge_identifiability_groups"):
            grouping = merge_identifiability_groups(intervals, all_apps=universe)
        y = np.array([iv.rate_pct_per_h for iv in intervals])
        w = np.array([iv.duration_h for iv in intervals])
        with tracer.span("nnls.solve_nnls"):
            beta = solve_nnls(grouping.design, y, weights=w)
        with tracer.span("analyzer.attribute"):
            result = attribute(records)
        with tracer.span("analyzer.render"):
            text = json.dumps(result.to_dict())
            write_result_csv(io.StringIO(), result)
        tally.check(analysis_error(workload, json.loads(text)))
        counts = {
            "recorder.records": len(records),
            "analyzer.intervals": len(intervals),
            "analyzer.distinct_sets": len({iv.active for iv in intervals}),
            "analyzer.groups": len(grouping.groups),
            "nnls.rows": grouping.design.shape[0],
            "nnls.cols": grouping.design.shape[1],
            "nnls.zero_cols": int((beta == 0).sum()),
        }
        del records, intervals, grouping, result

        source = FileTreeSource(setup.source_dir)
        clock = SimulatedClock(setup.last.sample.ts_ms)
        wrong = 0
        for _ in range(LAYER_CALLS):
            with tracer.span("sources.read_battery_sample"):
                sample = source.read_battery_sample(clock)
            with tracer.span("sources.read_running_apps"):
                apps = source.read_running_apps()
            wrong += (sample, apps) != (setup.last.sample, setup.last.apps)
        tally.check(f"{wrong} source reads differ from the source directory" if wrong else None, count=LAYER_CALLS)

        append_log = setup.log.with_name("appends.jsonl")
        shutil.copyfile(setup.log, append_log)
        with LogWriter(append_log) as writer:
            for i in range(1, LAYER_CALLS + 1):
                ts_ms = setup.last.sample.ts_ms + i * setup.interval_ms
                record = LogRecord(sample=replace(setup.last.sample, ts_ms=ts_ms), apps=setup.last.apps)
                with tracer.span("recorder.append"):
                    writer.append(record)
        append_log.unlink()
    return counts


def run_traced(setup: Setup, tracer: Tracer, seconds: float, tally: Tally) -> dict:
    analyze(setup, tally)  # warm-up
    base = []
    for _ in rounds(seconds):
        counts = traced_round(setup, tracer, tally)
        base.append(collected(analyze, setup, tally))
    stages = ("recorder.load_log", "analyzer.build_intervals", "analyzer.merge_identifiability_groups", "nnls.solve_nnls", "analyzer.render")
    base_s = statistics.median(base)
    metrics = {
        "recorder.load_log_s": (tracer.median("recorder.load_log"), "s"),
        "recorder.records": (counts["recorder.records"], "count"),
        "recorder.log_mb": (setup.log.stat().st_size / MB, "MB"),
        "recorder.append_us": (tracer.median("recorder.append") * 1e6, "us"),
        "recorder.write_log_s": (tracer.median("recorder.write_log"), "s"),
        "sources.read_battery_sample_us": (tracer.median("sources.read_battery_sample") * 1e6, "us"),
        "sources.read_running_apps_us": (tracer.median("sources.read_running_apps") * 1e6, "us"),
        "analyzer.build_intervals_s": (tracer.median("analyzer.build_intervals"), "s"),
        "analyzer.intervals": (counts["analyzer.intervals"], "count"),
        "analyzer.distinct_sets": (counts["analyzer.distinct_sets"], "count"),
        "analyzer.grouping_s": (tracer.median("analyzer.merge_identifiability_groups"), "s"),
        "analyzer.groups": (counts["analyzer.groups"], "count"),
        "analyzer.attribute_s": (tracer.median("analyzer.attribute"), "s"),
        "analyzer.render_ms": (tracer.median("analyzer.render") * 1e3, "ms"),
        "nnls.solve_s": (tracer.median("nnls.solve_nnls"), "s"),
        "nnls.rows": (counts["nnls.rows"], "count"),
        "nnls.cols": (counts["nnls.cols"], "count"),
        "nnls.zero_cols": (counts["nnls.zero_cols"], "count"),
        "simulator.simulate_s": (tracer.median("simulator.simulate"), "s"),
        "simulator.records": (setup.n_records, "count"),
        "trace.analyze_base_s": (base_s, "s"),
        "trace.stage_share": (100.0 * sum(tracer.median(s) for s in stages) / base_s, "%"),
    }
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark semo analyze, curve and record on a simulated log.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    workdir = OUT_DIR / args.workload
    tally = Tally()
    tracer = Tracer() if args.trace else NoTracer()
    scaler = Scaler()
    setup = set_up(workload, workdir, scaler, tracer)
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the program's collections
    if args.trace:
        metrics = run_traced(setup, tracer, args.seconds, tally)
        tracer.write(workdir / f"trace-seed{args.seed}.json")
    else:
        metrics = run_end_to_end(setup, scaler, args.seconds, tally)
        samples = {"adjusted": scaler.adjusted, "raw": scaler.raw, "probe_s": scaler.probes}
        (workdir / f"samples-seed{args.seed}.json").write_text(json.dumps(samples))
    for name, (value, unit) in metrics.items():
        raw = f"  (raw wall time {scaler.raw_median(name):.6g} {unit})" if name in TIMED and not args.trace else ""
        print(f"{name:32} {value:>14.6g} {unit}{raw}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
