"""Extension experiment: multi-tenant fleet resilience under chaos.

The paper evaluates Thermostat one application at a time.  Real
deployments pack many tenants onto one host and the interesting failures
are *between* them: a noisy neighbor inflating a victim's access rates,
the host's DRAM budget shrinking under them, migration bandwidth
contention, or a tenant whose SLO simply cannot be met.  This experiment
runs the :mod:`repro.fleet` simulation through a set of bundled chaos
scenarios and emits a machine-readable **resilience scorecard** per
scenario: per-tenant SLO attainment, violation minutes, arbiter
responses, ladder outcomes, and recovery time after each chaos window.

Every scenario must also *prove* resilience, not just survive:

* no fleet invariant fired (shared-DRAM conservation held throughout);
* every SLO-violating epoch drew a recorded arbiter response;
* the adversarial scenario's impossible tenant was quarantined by the
  degradation ladder rather than crashing the fleet.

A scenario that cannot prove all three raises, failing the runner.
Scorecards are deterministic: same seed, same flags → byte-identical
JSON (the rendered digests make drift visible in CI).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.errors import ConfigError, SimulationError
from repro.experiments.common import DEFAULT_SEED
from repro.fleet import (
    SCENARIOS,
    FleetConfig,
    FleetSimulation,
    TenantSpec,
    scenario_schedule,
)
from repro.ioutil import atomic_write_json
from repro.metrics.report import format_table

#: Default tenant count (before any scenario's extra arrivals).
DEFAULT_TENANTS = 4
#: Default per-tenant SLO (mean epoch slowdown ceiling).
DEFAULT_SLO = 0.05
#: Default scenario bundle (the acceptance gate's trio).
DEFAULT_CHAOS = ("noisy-neighbor", "dram-shrink", "adversarial")
#: Simulated duration per scenario, seconds.
DURATION = 1200.0
EPOCH = 30.0
#: Fleet-relative footprint scale (fleet runs N engines, so each tenant
#: uses a smaller default scale than the single-run experiments).
DEFAULT_FLEET_SCALE = 0.05
#: Workloads assigned round-robin to tenants.
TENANT_WORKLOADS = (
    "redis",
    "cassandra",
    "web-search",
    "mysql-tpcc",
    "in-memory-analytics",
    "aerospike",
)


def build_fleet(
    scenario: str,
    scale: float,
    seed: int,
    tenants: int = DEFAULT_TENANTS,
    slo: float = DEFAULT_SLO,
    observer=None,
) -> FleetSimulation:
    """Assemble the fleet one scenario runs (tenants + chaos schedule)."""
    specs = [
        TenantSpec(
            name=f"tenant{i}",
            workload=TENANT_WORKLOADS[i % len(TENANT_WORKLOADS)],
            scale=scale,
            slo_slowdown=slo,
            seed=seed + i,
        )
        for i in range(tenants)
    ]
    extra, events = scenario_schedule(
        scenario, [s.name for s in specs], DURATION, scale
    )
    config = FleetConfig(duration=DURATION, epoch=EPOCH, seed=seed)
    return FleetSimulation(
        specs + list(extra), events, config, observer=observer
    )


def _run_scenario(args: tuple) -> dict:
    """Worker entry point: run one scenario and return its scorecard."""
    from repro.obs import config_from_env, write_run_artifacts

    scenario, scale, seed, tenants, slo = args
    obs_config = config_from_env()
    observer = (
        obs_config.make_observer(process=f"fleet_{scenario}")
        if obs_config is not None
        else None
    )
    fleet = build_fleet(scenario, scale, seed, tenants, slo, observer=observer)
    result = fleet.run()
    if obs_config is not None and observer is not None:
        write_run_artifacts(obs_config, f"fleet_{scenario}", observer)
    return {
        "scenario": scenario,
        "scorecard": result.scorecard,
        "digest": result.scorecard_digest,
    }


def _check_resilience(scenario: str, scorecard: dict) -> None:
    """Raise unless the scorecard proves the fleet degraded gracefully."""
    problems: list[str] = []
    if scorecard["invariants"]["violations"]:
        problems.append(
            f"{scorecard['invariants']['violations']} fleet invariant "
            "violation(s)"
        )
    slo = scorecard["slo"]
    if slo["violations_with_response"] != slo["violations_total"]:
        problems.append(
            f"only {slo['violations_with_response']} of "
            f"{slo['violations_total']} SLO violations drew an arbiter "
            "response"
        )
    for name, card in scorecard["tenants"].items():
        if (
            card["admitted"]
            and card["violation_episodes"] > 0
            and card["arbiter_responses"] < card["violation_episodes"]
        ):
            problems.append(
                f"tenant {name!r}: {card['violation_episodes']} violation "
                f"episodes but only {card['arbiter_responses']} responses"
            )
    if scenario == "adversarial":
        impossible = scorecard["tenants"].get("impossible")
        if impossible is None or not impossible["quarantined"]:
            problems.append(
                "the impossible-SLO tenant was not quarantined by the ladder"
            )
    if problems:
        raise SimulationError(
            f"chaos scenario {scenario!r} failed its resilience gate: "
            + "; ".join(problems)
        )


def check_run_args(
    chaos: tuple[str, ...] | None, tenants: int | None, slo: float | None
) -> None:
    """Reject out-of-range :func:`run` arguments (``None`` is the default).

    The runner's flag checks too, so the messages name its flags.
    """
    if chaos is not None:
        if not chaos:
            raise ConfigError("--chaos must name at least one scenario")
        unknown = [name for name in chaos if name not in SCENARIOS]
        if unknown:
            raise ConfigError(
                f"unknown chaos scenarios: {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(SCENARIOS))})"
            )
    if tenants is not None and tenants < 1:
        raise ConfigError(f"--tenants must be >= 1 (got {tenants})")
    if slo is not None and not 0.0 < slo < 1.0:
        raise ConfigError(f"--slo must be in (0, 1) (got {slo})")


def run(
    scale: float = DEFAULT_FLEET_SCALE,
    seed: int = DEFAULT_SEED,
    chaos: tuple[str, ...] | None = None,
    tenants: int | None = None,
    slo: float | None = None,
    jobs: int = 1,
    scorecard_dir: str | None = None,
) -> list[dict]:
    """Run every requested scenario; each must pass its resilience gate.

    With ``scorecard_dir`` each scenario's scorecard is also written there
    as ``fleet_scorecard_<scenario>.json``.
    """
    check_run_args(chaos, tenants, slo)
    scenarios = DEFAULT_CHAOS if chaos is None else chaos
    tenants = DEFAULT_TENANTS if tenants is None else tenants
    slo = DEFAULT_SLO if slo is None else slo
    work = [(name, scale, seed, tenants, slo) for name in scenarios]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            rows = list(pool.map(_run_scenario, work))
    else:
        rows = [_run_scenario(args) for args in work]
    for row in rows:
        _check_resilience(row["scenario"], row["scorecard"])
    if scorecard_dir is not None:
        out = Path(scorecard_dir)
        out.mkdir(parents=True, exist_ok=True)
        for row in rows:
            atomic_write_json(
                out / f"fleet_scorecard_{row['scenario']}.json",
                {"digest": row["digest"], **row["scorecard"]},
                indent=2,
            )
    return rows


def render(rows: list[dict]) -> str:
    """The scorecards as a text table plus their digests."""
    body = []
    for row in rows:
        sc = row["scorecard"]
        tenants = sc["tenants"].values()
        admitted = [t for t in tenants if t["admitted"]]
        worst = min(
            (t["slo_attainment"] for t in admitted), default=1.0
        )
        violation_minutes = sum(t["violation_minutes"] for t in admitted)
        recoveries = [
            r
            for event in sc["chaos"]
            for r in event["recovery_seconds"].values()
            if r is not None
        ]
        body.append(
            (
                row["scenario"],
                f"{len(admitted)}/{len(sc['tenants'])}",
                f"{100 * worst:.1f}%",
                f"{violation_minutes:.1f}",
                f"{sc['slo']['violations_with_response']}"
                f"/{sc['slo']['violations_total']}",
                f"{sc['arbiter']['reallocations']}",
                f"{sc['arbiter']['quarantines']}",
                f"{max(recoveries):.0f}s" if recoveries else "-",
            )
        )
    table = format_table(
        "Fleet resilience scorecard (per chaos scenario)",
        [
            "scenario",
            "admitted",
            "worst attainment",
            "violation min",
            "responded",
            "reallocs",
            "quarantines",
            "max recovery",
        ],
        body,
    )
    digests = "\n".join(
        f"  {row['scenario']}: sha256:{row['digest']}" for row in rows
    )
    return (
        f"{table}\n(every violation drew an arbiter response; invariants "
        f"held; unrecoverable tenants were quarantined, not crashed)\n"
        f"scorecard digests:\n{digests}"
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
