"""``python -m repro.bench`` — run, compare, and list benchmark snapshots."""

from __future__ import annotations

import argparse
import sys

from repro.bench.compare import (
    PERF_ALLOWANCE,
    SEMANTIC_RTOL,
    compare_snapshots,
    numpy_note,
)
from repro.bench.scenarios import SCENARIOS, run_suite
from repro.bench.snapshot import load_snapshot, write_snapshot
from repro.errors import SimulationError


def _cmd_run(args: argparse.Namespace) -> int:
    body = run_suite(args.scenario or None)
    for name, entry in body["scenarios"].items():
        perf = entry["perf"]
        print(
            f"{name}: {perf['wall_seconds']:.3f}s "
            f"(normalized {perf['normalized']:.2f})"
        )
    if args.out:
        path = write_snapshot(args.out, body)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_snapshot(args.baseline)
    if args.current:
        current = load_snapshot(args.current)
    else:
        print("no current snapshot given; running the suite...", flush=True)
        current = {"schema_version": baseline["schema_version"], **run_suite()}
    result = compare_snapshots(
        baseline,
        current,
        semantic_rtol=args.semantic_rtol,
        perf_allowance=args.perf_allowance,
    )
    note = numpy_note(baseline, current)
    if note:
        print(note)
    print(result.describe())
    return 0 if result.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    for scenario in SCENARIOS:
        print(f"{scenario.name}: {scenario.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Pinned benchmark suite for the BENCH_*.json trajectory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the suite, optionally snapshotting")
    run.add_argument("--out", help="write the snapshot to this path")
    run.add_argument(
        "--scenario",
        action="append",
        help="run only this scenario (repeatable)",
    )
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="gate a run against a baseline snapshot"
    )
    compare.add_argument("baseline", help="committed BENCH_*.json to gate against")
    compare.add_argument(
        "current",
        nargs="?",
        help="snapshot to compare (omitted: run the suite now)",
    )
    compare.add_argument(
        "--semantic-rtol",
        type=float,
        default=SEMANTIC_RTOL,
        help="relative tolerance for semantic metrics",
    )
    compare.add_argument(
        "--perf-allowance",
        type=float,
        default=PERF_ALLOWANCE,
        help="allowed relative growth of normalized perf (0.5 = +50%%)",
    )
    compare.set_defaults(func=_cmd_compare)

    lister = sub.add_parser("list", help="list the pinned scenarios")
    lister.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"FAIL: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
