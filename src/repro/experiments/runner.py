"""CLI entry point: regenerate every table and figure of the paper.

Installed as ``thermostat-repro``.  Examples::

    thermostat-repro                 # everything, default scale
    thermostat-repro fig3 table4     # a subset
    thermostat-repro --scale 0.05    # faster, smaller footprints
    thermostat-repro --jobs 4        # fan simulations out over processes
    thermostat-repro --cache-dir .thermostat-cache   # persist runs on disk
    thermostat-repro --list

``--jobs`` only changes wall-clock time: reports are bit-identical to a
serial run.  With ``--cache-dir`` a second invocation reuses every
finished simulation from disk (the trailing ``[result store: ...]`` line
shows hits vs misses).

``--timeout``, ``--retries``, and ``--resume`` engage the supervisor
(:mod:`repro.experiments.supervisor`): crashed, hung, or flaky
simulations are retried with backoff; tasks that fail every attempt are
quarantined into ``quarantine.json`` while the rest of the suite
completes.  ``--audit`` runs every simulation with epoch-boundary
invariant auditing.  Reports stay bit-identical either way.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.config import SupervisorConfig
from repro.errors import ConfigError, QuarantinedTaskError
from repro.experiments import common
from repro.experiments import (
    ext_counting,
    ext_faults,
    ext_fleet,
    ext_latency,
    ext_oracle,
    ext_service,
    ext_thp_tradeoff,
    ext_wear,
    fig1_idle_fraction,
    fig2_accessbit_scatter,
    fig3_slowmem_rate,
    fig4_example,
    fig5to10_footprint,
    fig11_slowdown_sweep,
    table1_thp_gain,
    table2_footprints,
    table3_migration,
    table4_cost,
)
from repro.ioutil import atomic_write_text


def _fig5to10(scale: float, seed: int, jobs: int) -> str:
    figures = fig5to10_footprint.run(scale, seed, jobs=jobs)
    parts = [fig5to10_footprint.render(f) for f in figures]
    parts.append(fig5to10_footprint.summary_table(figures))
    return "\n\n".join(parts)


#: Experiment name -> callable(scale, seed, jobs) -> report text.  Single-run
#: experiments (fig1/fig2/fig4, tables 1-2, ext-counting) ignore ``jobs``;
#: ext-fleet and ext-service also take their flags as keywords
#: (:func:`_extension_flags`).
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "fig1": lambda scale, seed, jobs: fig1_idle_fraction.render(
        fig1_idle_fraction.run(scale, seed)
    ),
    "fig2": lambda scale, seed, jobs: fig2_accessbit_scatter.render(
        fig2_accessbit_scatter.run(scale=scale, seed=seed)
    ),
    "table1": lambda scale, seed, jobs: table1_thp_gain.render(
        table1_thp_gain.run(scale)
    ),
    "table2": lambda scale, seed, jobs: table2_footprints.render(
        table2_footprints.run(scale)
    ),
    "fig3": lambda scale, seed, jobs: fig3_slowmem_rate.render(
        fig3_slowmem_rate.run(scale=scale, seed=seed, jobs=jobs)
    ),
    "fig4": lambda scale, seed, jobs: fig4_example.render(fig4_example.run(seed=seed)),
    "fig5to10": _fig5to10,
    "fig11": lambda scale, seed, jobs: fig11_slowdown_sweep.render(
        fig11_slowdown_sweep.run(scale, seed, jobs=jobs)
    ),
    "table3": lambda scale, seed, jobs: table3_migration.render(
        table3_migration.run(scale, seed, jobs=jobs)
    ),
    "table4": lambda scale, seed, jobs: table4_cost.render(
        table4_cost.run(scale, seed, jobs=jobs)
    ),
    # Extensions beyond the paper's tables (Section 6 material).
    "ext-counting": lambda scale, seed, jobs: ext_counting.render(
        ext_counting.run(seed)
    ),
    "ext-faults": lambda scale, seed, jobs: ext_faults.render(
        ext_faults.run(scale, seed, jobs=jobs)
    ),
    "ext-wear": lambda scale, seed, jobs: ext_wear.render(
        ext_wear.run_lifetimes(scale, seed, jobs=jobs),
        ext_wear.run_start_gap_demo(seed=seed),
    ),
    "ext-latency": lambda scale, seed, jobs: ext_latency.render(
        ext_latency.run(scale, seed, jobs=jobs)
    ),
    "ext-oracle": lambda scale, seed, jobs: ext_oracle.render(
        ext_oracle.run(scale, seed, jobs=jobs)
    ),
    "ext-thp": lambda scale, seed, jobs: ext_thp_tradeoff.render(
        ext_thp_tradeoff.run(scale, seed, jobs=jobs)
    ),
    "ext-fleet": lambda scale, seed, jobs, **flags: ext_fleet.render(
        ext_fleet.run(scale, seed, jobs=jobs, **flags)
    ),
    "ext-service": lambda scale, seed, jobs, **flags: ext_service.render(
        ext_service.run(scale, seed, **flags)
    ),
}


def _extension_flags(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> dict[str, dict]:
    """Validate the extension-only flags; keyword arguments per experiment."""
    chaos = None
    if args.chaos is not None:
        chaos = tuple(
            name.strip() for name in args.chaos.split(",") if name.strip()
        )
    try:
        ext_fleet.check_run_args(chaos, args.tenants, args.slo)
        ext_service.check_run_args(args.service_decisions)
    except ConfigError as exc:
        parser.error(str(exc))
    return {
        "ext-fleet": {
            "chaos": chaos,
            "tenants": args.tenants,
            "slo": args.slo,
            "scorecard_dir": args.output_dir,
        },
        "ext-service": {"decisions": args.service_decisions},
    }


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their reports."""
    parser = argparse.ArgumentParser(
        prog="thermostat-repro",
        description="Regenerate the tables and figures of the Thermostat paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="subset to run (default: all); see --list",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=common.DEFAULT_SCALE,
        help="footprint scale factor (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=common.DEFAULT_SEED, help="RNG seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for suite simulations (default %(default)s); "
        "results are bit-identical to --jobs 1",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist simulation results under this directory so repeated "
        "invocations skip finished runs",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-simulation wall-clock budget in seconds; engages the "
        "supervisor (hung tasks are killed and retried)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per failed simulation before quarantine (default "
        f"{SupervisorConfig().max_attempts - 1} when supervised); engages "
        "the supervisor",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted invocation from --cache-dir, re-running "
        "only unfinished simulations; engages the supervisor",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run every simulation with epoch-boundary invariant auditing "
        "(results are bit-identical; violations raise)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-run decision traces (JSONL + Chrome trace_event "
        "files under the observability directory); reports stay "
        "bit-identical",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record per-run metrics and write merged metrics.json / "
        "metrics.prom snapshots; reports stay bit-identical",
    )
    parser.add_argument(
        "--self-profile",
        action="store_true",
        help="time each engine phase (profile/charge/sample/classify/...) and "
        "print a wall-clock self-profile table",
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        help="directory for observability artifacts (default: "
        "OUTPUT_DIR/obs with --output-dir, else .thermostat-obs)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="ext-fleet: number of base tenants in the fleet "
        f"(default {ext_fleet.DEFAULT_TENANTS})",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        help="ext-fleet: comma-separated chaos scenarios to run "
        "(default noisy-neighbor,dram-shrink,adversarial); "
        "see repro.fleet.SCENARIOS",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        help="ext-fleet: per-tenant slowdown SLO as a fraction "
        "(default 0.05)",
    )
    parser.add_argument(
        "--service-decisions",
        type=int,
        default=None,
        help="ext-service: decisions per posture in the robustness report "
        f"(default {ext_service.DEFAULT_DECISIONS})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also write each report (and, for the suite runs, per-workload "
        "CSV time series) under this directory",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1 (got {args.jobs})")
    if args.retries is not None and args.retries < 0:
        parser.error(f"--retries must be >= 0 (got {args.retries})")
    if args.resume and args.cache_dir is None:
        parser.error("--resume requires --cache-dir (that is what it resumes from)")
    if args.cache_dir is not None:
        common.configure_store(args.cache_dir)

    supervised = args.timeout is not None or args.retries is not None or args.resume
    if supervised:
        quarantine_path = (
            str(Path(args.cache_dir) / "quarantine.json")
            if args.cache_dir is not None
            else "quarantine.json"
        )
        kwargs = {} if args.retries is None else {"max_attempts": args.retries + 1}
        common.configure_supervisor(
            SupervisorConfig(
                timeout=args.timeout,
                seed=args.seed,
                quarantine_path=quarantine_path,
                **kwargs,
            )
        )
    else:
        common.configure_supervisor(None)
    common.configure_audit(args.audit)

    flags = _extension_flags(args, parser)

    observing = args.trace or args.metrics or args.self_profile
    if observing:
        from repro.obs import ObsConfig

        if args.obs_dir is not None:
            obs_dir = args.obs_dir
        elif args.output_dir is not None:
            obs_dir = str(Path(args.output_dir) / "obs")
        else:
            obs_dir = ".thermostat-obs"
        common.configure_observability(
            ObsConfig(
                trace=args.trace,
                metrics=args.metrics,
                self_profile=args.self_profile,
                out_dir=obs_dir,
            )
        )
    else:
        common.configure_observability(None)

    requested = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiments: {', '.join(unknown)} "
            f"(choose from {', '.join(EXPERIMENTS)})"
        )

    output_dir = Path(args.output_dir) if args.output_dir else None
    failed: list[str] = []
    quarantined = False
    for name in requested:
        started = time.perf_counter()
        try:
            report = EXPERIMENTS[name](
                args.scale, args.seed, args.jobs, **flags.get(name, {})
            )
        except Exception as exc:  # one bad figure must not sink the rest
            elapsed = time.perf_counter() - started
            message = str(exc).splitlines()[0] if str(exc) else ""
            print(f"[FAILED {name}: {type(exc).__name__}: {message}] ({elapsed:.1f}s)")
            print()
            failed.append(name)
            quarantined = quarantined or isinstance(exc, QuarantinedTaskError)
            continue
        elapsed = time.perf_counter() - started
        print(report)
        print(f"[{name}: {elapsed:.1f}s]")
        print()
        if output_dir is not None:
            output_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(output_dir / f"{name}.txt", report + "\n")
    if output_dir is not None and not failed:
        _export_series(output_dir, args.scale, args.seed)
        print(f"[reports and CSV series written to {output_dir}]")
    if observing:
        obs_summary = common.finalize_observability()
        if obs_summary is not None:
            if args.self_profile:
                from repro.obs.profiling import render_profile_table

                print(render_profile_table(obs_summary["profile_rows"]))
            print(
                f"[observability: {obs_summary['traces']} trace(s), "
                f"{obs_summary['metrics']} metrics snapshot(s) in "
                f"{obs_summary['out_dir']}]"
            )
    store = common.get_store()
    print(f"[result store: {store.hits} hits, {store.misses} misses]")
    if supervised:
        totals = common.supervisor_totals()
        print(
            f"[supervisor: {totals['retried']} retried, "
            f"{totals['quarantined']} quarantined, {totals['resumed']} resumed]"
        )
    if failed:
        print(f"[{len(failed)} experiment(s) failed: {', '.join(failed)}]")
        return 2 if quarantined else 1
    return 0


def _export_series(output_dir: Path, scale: float, seed: int) -> None:
    """Dump per-workload CSV time series plus headline/fault summaries."""
    from repro.experiments.common import run_suite
    from repro.metrics.export import export_simulation_series, export_summaries

    results = run_suite(scale=scale, seed=seed)
    for name, result in results.items():
        export_simulation_series(output_dir, f"series_{name}", result)
    export_summaries(output_dir, results)


if __name__ == "__main__":
    sys.exit(main())
