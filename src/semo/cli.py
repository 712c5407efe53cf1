"""Command-line surface: inspect / record / curve / analyze / export / simulate.

Exit codes, used consistently by every subcommand:

    0  success
    1  usage, parse or I/O error
    2  inspect found warnings, or the analysis is degenerate

Data goes to stdout; diagnostics and progress go to stderr, so pipelines
stay machine-clean.  Every subcommand takes --json for machine-readable
output (a single JSON document).
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading

from . import __version__
from .analyzer import (
    CHARGE_COUNTER_MODES,
    attribute_columns,
    check_battery_constants,
    write_result_csv,
    write_result_json,
    write_result_table,
)
from .errors import DegenerateSystem, SemoError, TooFewSamples
from .inspector import describe, evaluate
from .recorder import RecorderConfig, export_columns_csv, load_columns, run_loop, sample_dict, write_log
from .simulator import load_scenario, simulate
from .sources import FileTreeSource

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

RESULT_WRITERS = {"table": write_result_table, "csv": write_result_csv, "json": write_result_json}

log = logging.getLogger("semo")


def cmd_inspect(args) -> int:
    sample = FileTreeSource(args.source_root).read_battery_sample()
    warnings = evaluate(sample)
    if args.json:
        payload = {
            "sample": sample_dict(sample),
            "warnings": [
                {"kind": w.kind.value, "message": w.message, "threshold": w.threshold}
                for w in warnings
            ],
        }
        print(json.dumps(payload))
    else:
        print(describe(sample))
        for w in warnings:
            print(f"warning {w.kind.value}: {w.message}")
    return EXIT_WARNINGS if warnings else EXIT_OK


def cmd_record(args) -> int:
    config = RecorderConfig(out_path=args.out, interval_s=args.interval)
    source = FileTreeSource(args.source_root)
    stop = threading.Event()

    def _handle(signum, frame):
        stop.set()

    # signal.signal gives None for a handler not set from Python; SIG_DFL stands in for it.
    previous = {sig: signal.signal(sig, _handle) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        log.info("recording to %s every %d s; stop with SIGINT", args.out, args.interval)
        written = run_loop(config, source, stop=stop)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, signal.SIG_DFL if handler is None else handler)
    if args.json:  # run_loop itself logs the ticks written and skipped
        print(json.dumps({"records_written": written, "log": str(args.out)}))
    return EXIT_OK


def cmd_curve(args) -> int:
    series = load_columns(args.log).curve(tail=args.tail)
    if args.json:
        print(json.dumps({"series": [[ts, level] for ts, level in series]}))
    else:
        print("ts_ms,level_pct")
        for ts, level in series:
            print(f"{ts},{level}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # Before any output: a bad constant must fail even when given alone.
    check_battery_constants(args.capacity_mah, args.voltage_mv)
    columns = load_columns(args.log)
    try:
        result = attribute_columns(columns, use_charge_counter=args.use_charge_counter)
    except (TooFewSamples, DegenerateSystem) as exc:
        print(f"error: analysis degenerate: {exc}", file=sys.stderr)
        return EXIT_WARNINGS

    write = RESULT_WRITERS["json" if args.json else args.format]
    write(sys.stdout, result, args.capacity_mah, args.voltage_mv)
    return EXIT_OK


def cmd_export(args) -> int:
    columns = load_columns(args.log)
    export_columns_csv(columns, args.csv)
    if args.json:
        print(json.dumps({"rows": len(columns), "csv": str(args.csv)}))
    else:
        log.info("exported %d records to %s", len(columns), args.csv)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    records = simulate(scenario)
    write_log(args.out, records)
    if args.json:
        print(json.dumps({"records_written": len(records), "log": str(args.out)}))
    else:
        log.info("simulated %d records to %s", len(records), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semo",
        description="Battery monitoring and per-application energy attribution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser gives every subcommand the same --json.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="print one JSON document on stdout")

    p = sub.add_parser("inspect", parents=[json_flag], help="print the battery report and any warnings")
    p.add_argument("--source-root", default=None, help="battery source directory (default: $SEMO_SOURCE_ROOT)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("record", parents=[json_flag], help="sample battery and apps periodically into a JSONL log")
    p.add_argument("--out", required=True, help="log file to append to")
    p.add_argument("--interval", type=int, default=60, help="seconds between samples (default 60)")
    p.add_argument("--source-root", default=None)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("curve", parents=[json_flag], help="emit the battery-level curve as ts_ms,level_pct rows")
    p.add_argument("log")
    p.add_argument("--tail", type=int, default=None, help="only the last N points (real-time view)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("analyze", parents=[json_flag], help="rank applications by estimated drain rate")
    p.add_argument("log")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--capacity-mah", type=float, default=None, help="battery capacity for mW conversion")
    p.add_argument("--voltage-mv", type=float, default=None, help="nominal voltage for mW conversion")
    p.add_argument("--use-charge-counter", choices=CHARGE_COUNTER_MODES, default="auto")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", parents=[json_flag], help="export a log to CSV for external analysis")
    p.add_argument("log")
    p.add_argument("--csv", required=True, help="destination CSV path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("simulate", parents=[json_flag], help="generate a synthetic log from a scenario file")
    p.add_argument("scenario", help="scenario JSON document")
    p.add_argument("--out", required=True, help="log file to write")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (SemoError, OSError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
