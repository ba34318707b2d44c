"""One benchmark run: set up, measure, check, and report one workload.

:func:`measure` is the end-to-end run (tracing off).  It sets the
workload up several times and runs passes over the run's inputs until
the time budget is spent, then reports medians.  :func:`trace` is the
separate traced run: an untraced pass of each input, then one set-up and
pass of each under a :class:`~spans.SpanRecorder`, from which it derives
the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``; a run whose metrics do not match the declared set
fails its checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from spans import SpanRecorder
from workloads import SCRATCH, Pass

ROOT = Path(__file__).resolve().parent.parent

#: ``setup_s`` is the median of ``SETUP_SAMPLES`` samples.  A sample is
#: the fastest of back-to-back set-ups lasting at least
#: ``SETUP_SAMPLE_SECONDS`` (at most ``MAX_SETUPS_PER_SAMPLE``), so a slow
#: set-up is one sample by itself.  The host's speed flips between a fast
#: and a twice-slower state every few milliseconds, in a mix that drifts
#: over minutes; a sub-millisecond set-up timed alone lands in one state
#: or the other, while the fastest of a batch is the same in either mix.
SETUP_SAMPLES = 3
SETUP_SAMPLE_SECONDS = 0.2
MAX_SETUPS_PER_SAMPLE = 2000


@dataclass
class Outcome:
    """A finished run: the result line plus what the human summary shows."""

    values: dict[str, float]
    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def line(self, units: dict[str, str]) -> dict:
        """The result object the benchmark prints last."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values[name], "unit": unit}
                for name, unit in units.items()
                if name in self.values
            },
        }


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_seeds(workload, seed: int) -> list[int]:
    """The seeds of the independent inputs one run covers.

    A workload whose cost depends on its input draws
    ``workload.seeds_per_run`` inputs per run, so that no single draw
    sets a run's numbers; distinct ``--seed`` values never share a draw.
    """
    per_run = workload.seeds_per_run
    return [seed * per_run + i for i in range(per_run)]


def _one_pass(workload, inputs) -> Pass:
    state = workload.setup(inputs)
    try:
        return workload.run(state)
    finally:
        workload.discard(state)


def _pass_problems(by_input: list[list[Pass]]) -> list[str]:
    problems = [problem for passes in by_input for p in passes for problem in p.problems]
    if any(len({p.digest for p in passes}) != 1 for passes in by_input):
        problems.append("outputs_digest differs between passes of one input")
    return problems


def _digest(by_input: list[list[Pass]]) -> str:
    """One digest over every input's outputs, in input order."""
    return hashlib.sha256("".join(passes[0].digest for passes in by_input).encode()).hexdigest()


def _check_declared(values: dict, declared: dict[str, str]) -> list[str]:
    if set(values) == set(declared):
        return []
    return [
        f"metrics differ from BENCHMARK.json: extra {sorted(set(values) - set(declared))}, "
        f"missing {sorted(set(declared) - set(values))}"
    ]


def measure(workload, seed: int, seconds: float, declared: dict[str, str]) -> Outcome:
    """The end-to-end run: passes until ``seconds`` are spent, medians out.

    Passes cycle through the run's inputs, at least one pass each.  A
    time is the mean over inputs of each input's median pass.
    """
    inputs = [workload.prepare(s) for s in run_seeds(workload, seed)]
    setup_samples: list[float] = []
    by_input: list[list[Pass]] = [[] for _ in inputs]
    state = None
    # Set-up samples first, cycling through the inputs; the last set-up
    # feeds the first pass, and every later pass sets up anew (untimed).
    for sample in range(SETUP_SAMPLES):
        which = sample % len(inputs)
        batch: list[float] = []
        spent = 0.0
        while spent < SETUP_SAMPLE_SECONDS and len(batch) < MAX_SETUPS_PER_SAMPLE:
            if state is not None:
                workload.discard(state)
                state = None
                if not batch:
                    # Engines and fleets hold reference cycles; free the
                    # last one now so peak memory counts one at a time.
                    gc.collect()
            start = time.perf_counter()
            state = workload.setup(inputs[which])
            batch.append(time.perf_counter() - start)
            spent += batch[-1]
        setup_samples.append(min(batch))
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        start = time.perf_counter()
        try:
            by_input[which].append(workload.run(state))
        finally:
            workload.discard(state)
            state = None
            gc.collect()
        done += 1
        # Stop, once every input ran, when one more pass of the same
        # length would overrun.
        if done >= len(inputs) and 2 * time.perf_counter() - start > deadline:
            break
        which = (which + 1) % len(inputs)
        state = workload.setup(inputs[which])
    passes = [p for runs in by_input for p in runs]
    latencies = [latency for p in passes for latency in p.latencies]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(statistics.median(p.wall for p in runs) for runs in by_input),
        "latency_p50_ms": _percentile_ms(latencies, 50),
        "latency_p90_ms": _percentile_ms(latencies, 90),
        "peak_rss_mb": _peak_rss_mb(),
        "cold_fraction": statistics.fmean(runs[0].cold_fraction for runs in by_input),
        "slowdown": statistics.fmean(runs[0].slowdown for runs in by_input),
    }
    return Outcome(
        values=values,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        digest=_digest(by_input),
        problems=_pass_problems(by_input) + _check_declared(values, declared),
    )


def trace(workload, seed: int, declared: dict[str, str], spans_path: Path) -> Outcome:
    """The traced run: per-layer metrics from spans, plus tracing overhead.

    It runs one untraced pass of each of the run's inputs, then one
    set-up and pass of each under the recorder.  A parallel workload is
    traced serially, because spans recorded in worker processes would
    stay there; its untraced serial passes are the reference the overhead
    is measured against, and the gap between them and the parallel passes
    is the fan-out overhead.
    """
    inputs = [workload.prepare(s) for s in run_seeds(workload, seed)]
    base = [_one_pass(workload, x) for x in inputs]
    jobs = getattr(workload, "jobs", 1)
    serial: list[Pass] = []
    if jobs > 1:
        workload = replace(workload, jobs=1)
        serial = [_one_pass(workload, x) for x in inputs]
    reference = serial or base
    recorder = SpanRecorder()
    traced: list[Pass] = []
    with recorder.installed():
        for x in inputs:
            state = None
            try:
                with recorder.span("bench.setup"):
                    state = workload.setup(x)
                with recorder.span("bench.pass"):
                    traced.append(workload.run(state))
            finally:
                if state is not None:
                    workload.discard(state)
    recorder.write(spans_path)
    values = layer_metrics(recorder, traced)
    base_wall, reference_wall = sum(p.wall for p in base), sum(p.wall for p in reference)
    values["experiments.fanout_overhead_s"] = (
        base_wall - reference_wall / jobs if jobs > 1 else 0.0
    )
    values["trace.overhead"] = sum(p.wall for p in traced) / reference_wall - 1.0
    groups = zip(base, traced, *([serial] if serial else []), strict=True)
    by_input = [list(group) for group in groups]
    passes = base + serial + traced
    return Outcome(
        values=values,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        digest=_digest(by_input),
        problems=_pass_problems(by_input) + _check_declared(values, declared),
    )


def layer_metrics(r: SpanRecorder, traced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics derived from the traced passes' spans and counts."""

    def durations(name: str) -> list[float]:
        return [end - start for _, start, end, _ in r.named(name)]

    # Counts add up and samples concatenate, in pass order.
    extra: dict = {}
    for p in traced:
        for key, value in p.extra.items():
            extra[key] = extra[key] + value if key in extra else value
    profile_s = r.total("workloads.profile")
    subpages = r.counts["workloads.subpages"]
    demoted = r.counts["core.demoted_pages"]
    promoted = r.counts["core.promoted_pages"]
    wal = durations("service.wal_append")
    dues = extra.get("decide_dues", [])
    # Decides are answered in arrival order; ``dues`` has one entry per
    # decide, None for those sent in a closed-loop burst.
    decide_starts = [start for _, start, _, _ in r.named("service.decide")]
    waits = [
        start - due
        for start, due in zip(decide_starts, dues, strict=False)
        if due is not None
    ]
    return {
        "workloads.build_s": r.total("workloads.build"),
        "workloads.builds": r.count("workloads.build"),
        "workloads.profile_s": profile_s,
        "workloads.profile_calls": r.count("workloads.profile"),
        "workloads.profile_ns_per_subpage": profile_s * 1e9 / subpages if subpages else 0.0,
        "workloads.self_s": r.layer_self_time("workloads"),
        "sim.step_s": r.total("sim.step"),
        "sim.step_self_s": r.self_time("sim.step"),
        "sim.migrate_s": r.total("sim.demote", "sim.promote"),
        "sim.pages_migrated": r.counts["sim.pages_migrated"],
        "sim.self_s": r.layer_self_time("sim"),
        "core.policy_s": r.total("core.policy"),
        "core.sample_s": r.total("core.sample"),
        "core.classify_s": r.total("core.classify"),
        "core.migrate_s": r.total("sim.demote", parent="core.policy"),
        "core.correct_s": r.total("core.correct")
        + r.total("sim.promote", parent="core.policy"),
        "core.demoted_pages": demoted,
        "core.promoted_pages": promoted,
        "core.correction_ratio": promoted / demoted if demoted else 0.0,
        "core.self_s": r.layer_self_time("core"),
        "experiments.payload_s": r.total("experiments.payload"),
        "experiments.self_s": r.layer_self_time("experiments"),
        "fleet.arbiter_s": r.total("fleet.arbiter"),
        "fleet.tenant_step_s": r.total("fleet.tenant_step"),
        "fleet.arbiter_actions": extra.get("arbiter_actions", 0),
        "fleet.self_s": r.layer_self_time("fleet"),
        "service.ingest_s": r.total("service.ingest"),
        "service.parse_s": r.total("service.parse"),
        "service.queue_wait_ms_p99": _percentile_ms(waits, 99),
        "service.send_lag_ms_p99": _percentile_ms(extra.get("send_lags", []), 99),
        "service.decide_s": r.total("service.decide"),
        "service.engine_s": r.total("sim.step", parent="service.decide"),
        "service.wal_append_ms_p50": _percentile_ms(wal, 50),
        "service.wal_append_ms_p99": _percentile_ms(wal, 99),
        "service.wal_appends": len(wal),
        "service.checkpoint_s": r.total("service.checkpoint"),
        "service.checkpoints": r.count("service.checkpoint"),
        "service.degraded": extra.get("degraded", 0),
        "service.shed": extra.get("shed", 0),
        "service.rejected": extra.get("rejected", 0),
        "service.self_s": r.layer_self_time("service"),
    }


def run(workload, seed: int, seconds: float, traced: bool) -> tuple[Outcome, dict[str, str]]:
    """Measure or trace one workload; returns the outcome and its declared units."""
    declared = declared_metrics()["per_layer" if traced else "end_to_end"]
    if traced:
        spans_path = SCRATCH / "spans" / f"{workload.name}-seed{seed}.json"
        return trace(workload, seed, declared, spans_path), declared
    return measure(workload, seed, seconds, declared), declared
