"""Compare two measurements: one row per workload and end-to-end metric.

    python3 perfbench/diff.py before.json after.json

Each side is a ``measure.py`` output file, or a directory of them whose
samples are pooled (the way alternated pairs are collected, see
README.md).  A row's verdict, against the metric's bound in
BENCHMARK.json:

* ``worse`` / ``better`` -- the medians differ by more than the bound;
* ``same`` -- they differ by less;
* ``unresolved`` -- either side's spread (quartile distance over median)
  is wider than the bound, unless every ``after`` sample beats every
  ``before`` sample (then ``better``).

When the two sides hold the same number of samples they are taken as
pairs, and ``better`` also needs the rule for claiming a gain: the change
won at least nine tenths of the pairs and the medians differ by more than
the ``before`` side's quartile distance; otherwise the row reads
``unresolved``.  On workloads whose request is the whole pass
(``run.WHOLE_PASS_REQUESTS``) the ``latency_*`` rows restate ``wall_s``;
they are printed without a verdict, so one slow stretch counts once.

When both sides hold traced runs, each workload also names the layer
whose self time moved most.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from measure import summarize
from run import WHOLE_PASS_REQUESTS

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """One measurement, or a directory of them pooled into one."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no measurement files in {path}")
    pooled: dict = {}
    for file in files:
        for workload, entry in json.loads(file.read_text())["workloads"].items():
            target = pooled.setdefault(workload, {"end_to_end": {}, "layers": []})
            for name, s in entry["end_to_end"].items():
                target["end_to_end"].setdefault(name, (s["unit"], []))[1].extend(s["values"])
            if "per_layer" in entry:
                target["layers"].append(entry["per_layer"])
    return pooled


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    a, b = statistics.median(before), statistics.median(after)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    spread = max(_spread(before), _spread(after))
    if spread > bound:
        if better == "lower":
            beats_all = max(after) < min(before)
        else:
            beats_all = min(after) > max(before)
        word = "better" if beats_all else "unresolved"
    elif worse_by > bound:
        return "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        return "same"
    if word == "better" and len(before) == len(after) and not _gain_holds(before, after, better):
        # Paired runs must also meet the rule for claiming a gain.
        return "unresolved"
    return word


def _gain_holds(before: list[float], after: list[float], better: str) -> bool:
    """At least 9/10 of pairs won, and the medians differ by more than
    the parent's own quartile distance."""
    s = summarize(before, "")
    moved = abs(statistics.median(after) - s["median"])
    return _wins(before, after, better) >= 0.9 * len(before) and moved > s["q3"] - s["q1"]


def _spread(values: list[float]) -> float:
    s = summarize(values, "")
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def _wins(before: list[float], after: list[float], better: str) -> int:
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (b - a) < 0 for a, b in zip(before, after, strict=True))


def pairs_won(before: list[float], after: list[float], better: str) -> str:
    """``k/n`` pairs the change won (ties count for neither), when paired."""
    if len(before) != len(after):
        return "-"
    return f"{_wins(before, after, better)}/{len(before)}"


def biggest_self_time_move(before: list[dict], after: list[dict]) -> str | None:
    """The ``<layer>.self_s`` metric whose median moved most, in seconds."""
    if not before or not after:
        return None
    moves = []
    for name in sorted(before[0]):
        if not name.endswith(".self_s") or name not in after[0]:
            continue
        a = statistics.median(layer[name]["value"] for layer in before)
        b = statistics.median(layer[name]["value"] for layer in after)
        moves.append((abs(b - a), name, a, b))
    if not moves:
        return None
    _, name, a, b = max(moves)
    return f"{name} {a:.4g} s -> {b:.4g} s ({b - a:+.4g} s)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(args.before), load(args.after)
    header = (
        f"{'workload':12s} {'metric':16s} {'before median [q1 .. q3]':>34s} "
        f"{'after median [q1 .. q3]':>34s} {'change':>8s} {'bound':>6s} {'pairs':>6s} verdict"
    )
    print(header)
    any_worse = False
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload]["end_to_end"], after[workload]["end_to_end"]
        for name, metric in metrics.items():
            if name not in old or name not in new:
                continue
            unit, a = old[name]
            _, b = new[name]
            sa, sb = summarize(a, unit), summarize(b, unit)
            change = (sb["median"] - sa["median"]) / sa["median"]
            if workload in WHOLE_PASS_REQUESTS and name.startswith("latency_"):
                word = "(= wall_s)"
            else:
                word = verdict(a, b, metric["better"], metric["bound"])
            any_worse = any_worse or word == "worse"
            print(
                f"{workload:12s} {name:16s} "
                f"{_cell(sa):>34s} {_cell(sb):>34s} {change:+8.2%} "
                f"{metric['bound']:6.2f} {pairs_won(a, b, metric['better']):>6s} {word}"
            )
        move = biggest_self_time_move(before[workload]["layers"], after[workload]["layers"])
        if move:
            print(f"{workload:12s} largest self-time move: {move}")
    return 1 if any_worse else 0


def _cell(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g} .. {s['q3']:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
