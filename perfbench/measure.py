"""Measure every workload over repeats, each repeat in a fresh process.

    python3 perfbench/measure.py --seed 1 --repeats 5 --out before.json [--trace]

Every repeat of every workload is one ``run.py`` subprocess with tracing
off, at BENCHMARK.json's ``run_seconds``; end-to-end metrics are
summarized as median, quartiles and sample count.  Repeats go round
robin (repeat r of every workload before repeat r + 1 of any), so host
speed that drifts over minutes widens each workload's quartiles instead
of moving all of one workload's samples together.  ``--trace`` adds one
traced run per workload for the per-layer metrics.  Exits 1 if any run
failed its checks or one workload's ``outputs_digest`` differed between
repeats (same seed, same outputs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = "perfbench-measure/1"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``run.py`` subprocess; its result line, digest and exit code."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[-1] for line in lines if line.startswith(f"{workload} outputs_digest ")]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        sys.stderr.write(proc.stderr)
    return {
        "returncode": proc.returncode,
        "digest": digests[0] if digests else None,
        "result": result,
    }


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def summarize_workload(runs: list[dict], traced: dict | None) -> dict:
    """One workload's entry from its untraced repeats and optional traced run."""
    every = runs + ([traced] if traced else [])
    ok = all(r["result"] is not None and r["result"]["correct"] for r in every)
    ok = ok and all(r["returncode"] == 0 for r in every)
    digests = [r["digest"] for r in every]
    entry: dict = {
        "correct": ok and len(set(digests)) == 1,
        "attempted": sum(r["result"]["attempted"] for r in every if r["result"]),
        "failed": sum(r["result"]["failed"] for r in every if r["result"]),
        "digests": digests,
        "end_to_end": {},
    }
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in runs:
        for name, metric in (r["result"] or {"metrics": {}})["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    entry["end_to_end"] = {name: summarize(v, units[name]) for name, v in samples.items()}
    if traced and traced["result"]:
        entry["per_layer"] = {
            name: {"unit": metric["unit"], "value": metric["value"]}
            for name, metric in traced["result"]["metrics"].items()
        }
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
        "workloads": {},
    }
    runs: dict[str, list[dict]] = {workload: [] for workload in WORKLOAD_NAMES}
    for _ in range(args.repeats):
        for workload in WORKLOAD_NAMES:
            runs[workload].append(run_once(workload, args.seed, seconds, trace=False))
    for workload in WORKLOAD_NAMES:
        traced = run_once(workload, args.seed, seconds, trace=True) if args.trace else None
        entry = summarize_workload(runs[workload], traced)
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(
                f"{workload:12s} {name:16s} {s['median']:.6g} {s['unit']} "
                f"[{s['q1']:.6g} .. {s['q3']:.6g}] n={s['n']}"
            )
        print(f"{workload:12s} outputs_digest {entry['digests'][0]} correct={entry['correct']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(e["correct"] for e in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
