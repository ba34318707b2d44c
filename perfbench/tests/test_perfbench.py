"""The benchmark's own checks, on every workload at reduced size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import harness
import pytest
import run
from diff import verdict
from workloads import WORKLOADS, Fig11Sweep, FleetNoisy, PaperRedis, ServiceWal

from repro.service.core import PlacementService, ServiceConfig
from repro.service.traffic import drive
from repro.service.wal import LOG_NAME

SMALL = {
    "paper-redis": PaperRedis(scale=0.02, epochs=6),
    "fig11-sweep": Fig11Sweep(
        scale=0.02, duration=300.0, targets=(0.03, 0.10), workloads=("redis", "web-search")
    ),
    "fleet-noisy": FleetNoisy(scale=0.02, tenants=3, seeds_per_run=2),
    "service-wal": ServiceWal(huge_pages=32, rate=2000.0, open_decides=60, closed_decides=40),
}
SEED = 3
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be nonzero on each workload.  The spans
#: behind them wrap program entry points by name, so a renamed or inlined
#: entry point fails here instead of reading as a silent zero.
ENGINE_LAYERS = (
    "sim.step_s", "sim.step_self_s", "sim.migrate_s", "sim.pages_migrated",
    "core.policy_s", "core.sample_s", "core.classify_s", "core.migrate_s",
    "core.demoted_pages",
)
PROFILE_LAYERS = (
    "workloads.build_s", "workloads.builds", "workloads.profile_s",
    "workloads.profile_calls", "workloads.profile_ns_per_subpage",
)
SERVICE_LAYERS = (
    "service.ingest_s", "service.parse_s", "service.decide_s", "service.engine_s",
    "service.wal_append_ms_p50", "service.wal_appends", "service.checkpoint_s",
    "service.checkpoints",
)
BUSY_LAYERS = {
    "paper-redis": ENGINE_LAYERS + PROFILE_LAYERS,
    "fig11-sweep": ENGINE_LAYERS + PROFILE_LAYERS + ("experiments.payload_s",),
    "fleet-noisy": ENGINE_LAYERS + PROFILE_LAYERS
    + ("fleet.arbiter_s", "fleet.tenant_step_s", "fleet.arbiter_actions"),
    "service-wal": ENGINE_LAYERS + SERVICE_LAYERS,
}
#: Layers each workload leaves idle: its "no change" predictions rest on them.
IDLE_LAYERS = {
    "paper-redis": ("experiments.", "fleet.", "service."),
    "fig11-sweep": ("fleet.", "service."),
    "fleet-noisy": ("experiments.", "service."),
    "service-wal": ("workloads.", "experiments.", "fleet."),
}


@pytest.fixture(scope="module")
def declared():
    return harness.declared_metrics()


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, declared, tmp_path_factory):
    """Two untraced runs and one traced run of one small workload."""
    workload = SMALL[request.param]
    measured = [harness.measure(workload, SEED, 0.01, declared["end_to_end"]) for _ in range(2)]
    spans_path = tmp_path_factory.mktemp("spans") / "spans.json"
    traced = harness.trace(workload, SEED, declared["per_layer"], spans_path)
    return SimpleNamespace(
        name=request.param, measured=measured, traced=traced, spans_path=spans_path
    )


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES) == sorted(SMALL, key=names.index)


def test_outputs_digest_repeats_across_runs(runs):
    first, second = runs.measured
    assert first.correct, first.problems
    assert second.correct, second.problems
    assert first.digest == second.digest
    assert first.failed == 0


def test_end_to_end_names_match_benchmark_json(runs, declared):
    line = runs.measured[0].line(declared["end_to_end"])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_leaves_outputs_unchanged(runs):
    assert runs.traced.correct, runs.traced.problems
    assert runs.traced.digest == runs.measured[0].digest


def test_per_layer_names_match_benchmark_json(runs, declared):
    line = runs.traced.line(declared["per_layer"])
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["value"] >= 0 for n, m in line["metrics"].items() if n != "trace.overhead")


def test_each_layer_records_where_it_runs(runs):
    values = runs.traced.values
    assert [n for n in BUSY_LAYERS[runs.name] if not values[n] > 0] == []
    idle = [
        n for n in values
        if n.startswith(IDLE_LAYERS[runs.name]) and n != "experiments.fanout_overhead_s"
    ]
    assert idle
    assert [n for n in idle if values[n] != 0] == []


def test_self_times_are_nonnegative_and_bounded_by_parent(runs):
    data = json.loads(runs.spans_path.read_text())
    spans = data["spans"]
    assert spans, "the traced run recorded no spans"
    children_time = [0.0] * len(spans)
    for index, (_, start, end, parent) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
            children_time[parent] += end - start
    for (_, start, end, _), covered in zip(spans, children_time, strict=True):
        assert (end - start) - covered >= -1e-9
    # Every non-root span sits under the benchmark's own set-up or pass span.
    roots = {data["names"][name] for name, _, _, parent in spans if parent < 0}
    assert roots == {"bench.setup", "bench.pass"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_whole_pass_requests_are_declared(name):
    """``diff.py`` judges latency rows only where requests are not the pass."""
    workload = SMALL[name]
    state = workload.setup(workload.prepare(SEED))
    try:
        one = workload.run(state)
    finally:
        workload.discard(state)
    assert (one.latencies == [one.wall]) == (name in run.WHOLE_PASS_REQUESTS)


def test_service_wal_matches_traffic_drive(tmp_path):
    workload = SMALL["service-wal"]
    inputs = workload.prepare(SEED)
    state = workload.setup(inputs)
    try:
        measured = workload.run(state)
    finally:
        workload.discard(state)
    service = PlacementService(ServiceConfig(seed=SEED), wal_dir=str(tmp_path))
    drive(service, workload.traffic(SEED))
    service.close()
    expected = hashlib.sha256((tmp_path / LOG_NAME).read_bytes()).hexdigest()
    assert measured.digest == expected
    assert len(measured.latencies) == workload.open_decides
    assert measured.failed == 0


BASE = [10.0, 10.1, 9.9, 10.0, 10.05]


@pytest.mark.parametrize(
    ("before", "after", "better", "expected"),
    [
        (BASE, [10.2, 10.1, 10.3, 10.2, 10.25], "lower", "same"),
        (BASE, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", "worse"),
        (BASE, [8.0, 8.1, 7.9, 8.0, 8.05], "lower", "better"),
        (BASE, [8.0, 8.1, 7.9, 8.0, 8.05], "higher", "worse"),
        ([10.0, 14.0, 6.0, 12.0, 8.0], [10.5, 14.0, 6.0, 12.0, 8.0], "lower", "unresolved"),
        ([10.0, 14.0, 11.0, 12.0, 13.0], [5.0, 3.0, 4.0, 6.0, 2.0], "lower", "better"),
        # Medians 20 % apart, but the change lost two of ten pairs.
        (BASE * 2, [8.0] * 8 + [10.5, 10.5], "lower", "unresolved"),
        # Unpaired sides: the pair rule does not apply.
        (BASE, [8.0, 8.1, 7.9, 8.0], "lower", "better"),
    ],
)
def test_diff_verdicts(before, after, better, expected):
    assert verdict(before, after, better, bound=0.1) == expected


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-redis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
