"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload paper-redis --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run and reports the
per-layer metrics (spans land in ``.perfbench/spans/``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-redis", "fig11-sweep", "fleet-noisy", "service-wal")
#: Workloads whose timed request is a whole pass, so that their
#: ``latency_*`` metrics restate ``wall_s``.
WHOLE_PASS_REQUESTS = ("paper-redis", "fleet-noisy")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    outcome, units = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, traced=bool(args.trace)
    )
    for name, value in outcome.values.items():
        print(f"{args.workload} {name} {value:.6g} {units.get(name, '?')}")
    print(f"{args.workload} outputs_digest {outcome.digest}")
    for problem in outcome.problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    print(json.dumps(outcome.line(units)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
