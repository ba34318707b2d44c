"""Parallel experiment execution behind a persistent result store.

The experiment suite is a fan-out of independent simulation runs: six
workloads, several policies, sweeps over slowdown targets and fault
rates.  This module gives that shape first-class support:

* :class:`RunSpec` — a frozen, picklable description of one run
  (workload, policy, every :class:`~repro.config.SimulationConfig` knob
  a suite run sets; epoch counts are always Poisson draws).  Its :meth:`~RunSpec.cache_key` is a stable
  content hash, so identical runs are identical keys across processes
  and across sessions.
* :class:`ResultStore` — a content-addressed store of completed runs.
  Always memoizes in-process; with a ``cache_dir`` it also persists each
  run as ``<key>.json`` (manifest: config, counters, scalars) plus
  ``<key>.npz`` (time series, histograms, placement arrays, migration
  records).  Every fetch rehydrates a *fresh* :class:`SimulationResult`,
  so callers can never alias or corrupt each other's results — the fix
  for the mutable-result sharing the old ``lru_cache`` had.
* :func:`run_many` — executes a batch of specs, deduplicated and
  store-first, serially or fanned out over a ``ProcessPoolExecutor``.
  Workers transport results as (manifest, arrays) payloads — plain dicts
  and numpy arrays, trivially picklable — and the parent rehydrates them
  through the same store path a cache hit uses, which is why serial,
  parallel, and replayed runs are bit-identical.

Determinism: each spec carries its own seed and every simulation builds
its RNG tree from that seed alone (:mod:`repro.rng`), so results do not
depend on scheduling order or worker count.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import signal
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.config import FaultConfig, SimulationConfig, ThermostatConfig
from repro.errors import ConfigWarning, ReproError
from repro.ioutil import atomic_write, atomic_write_json
from repro.mem.migration import MigrationReason, MigrationRecord
from repro.mem.numa import NumaTopology
from repro.mem.tiers import TierKind, TierSpec
from repro.sim.clock import VirtualClock
from repro.sim.engine import SimulationResult
from repro.sim.state import TieredMemoryState
from repro.sim.stats import StatsRegistry

#: Bump when the payload layout changes; part of every cache key, so a
#: format change can never misread an old on-disk entry.
STORE_VERSION = 2

#: Policies a :class:`RunSpec` can name (validated eagerly, built lazily).
POLICY_NAMES = ("thermostat", "all-dram", "kstaled", "oracle")

_REASON_CODES = {reason: code for code, reason in enumerate(MigrationReason)}
_REASONS_BY_CODE = tuple(MigrationReason)


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to (re)produce one simulation run."""

    workload: str
    policy: str = "thermostat"
    tolerable_slowdown: float = 0.03
    scale: float = 0.1
    duration: float = 1200.0
    epoch: float = 30.0
    seed: int | None = 1
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Run with epoch-boundary invariant auditing.  Purely observational
    #: (an audited run either produces the identical result or raises
    #: :class:`~repro.errors.InvariantViolation`), so it is deliberately
    #: *excluded* from :meth:`cache_key` — an audited and an unaudited run
    #: share one store entry.
    audit: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {POLICY_NAMES})"
            )

    def simulation_config(self) -> SimulationConfig:
        """The engine config this spec describes."""
        return SimulationConfig(
            duration=self.duration,
            epoch=self.epoch,
            seed=self.seed,
            faults=self.faults,
        )

    def cache_key(self) -> str:
        """Stable content hash of the full run description.

        Canonical JSON (sorted keys, shortest-round-trip floats) over
        every outcome-affecting field plus the store version, SHA-256
        hashed.  Two specs collide exactly when their runs would be
        identical — which is why :attr:`audit` is not part of the
        material: auditing observes a run without changing it.
        """
        material = {
            "store_version": STORE_VERSION,
            "workload": self.workload,
            "policy": self.policy,
            "tolerable_slowdown": self.tolerable_slowdown,
            "scale": self.scale,
            "duration": self.duration,
            "epoch": self.epoch,
            "seed": self.seed,
            "faults": asdict(self.faults),
        }
        canonical = json.dumps(material, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_policy(name: str, tolerable_slowdown: float = 0.03):
    """Construct the placement policy a spec names."""
    if name == "thermostat":
        from repro.core.thermostat import ThermostatPolicy

        return ThermostatPolicy(
            ThermostatConfig(tolerable_slowdown=tolerable_slowdown)
        )
    if name == "all-dram":
        from repro.baselines import AllDramPolicy

        return AllDramPolicy()
    if name == "kstaled":
        from repro.baselines import KstaledPolicy

        return KstaledPolicy()
    if name == "oracle":
        from repro.baselines import OraclePolicy

        return OraclePolicy(ThermostatConfig(tolerable_slowdown=tolerable_slowdown))
    raise ValueError(f"unknown policy {name!r} (choose from {POLICY_NAMES})")


#: Test-only fault hook, read by :func:`execute_spec` in every process
#: (the supervisor's workers included).  Value: semicolon-separated
#: directives ``<workload>:<kind>[:<arg>][@<marker>]``.  Kinds: ``exit``
#: (``os._exit``, a hard worker crash), ``raise`` (``RuntimeError``),
#: ``interrupt`` (``KeyboardInterrupt``), ``hang:<seconds>``
#: (``time.sleep``), ``hard-hang:<seconds>`` (``time.sleep`` with SIGALRM
#: blocked, a hang the worker's own alarm cannot cut short),
#: ``assert-audit`` (raise unless the spec is audited), and ``corrupt``
#: (deliberately corrupt one engine step so only an invariant audit can
#: catch it).  With an ``@<marker>`` path the directive fires once — it
#: creates the marker file first, so a retry in a fresh process sees it
#: and proceeds cleanly.
TEST_FAULT_ENV = "REPRO_TEST_FAULT"


def _apply_test_faults(spec: RunSpec) -> set[str]:
    """Fire matching :data:`TEST_FAULT_ENV` directives; return passive ones.

    Active kinds (exit/raise/interrupt/hang/hard-hang/assert-audit) take
    effect here; the ``corrupt`` kind is returned for :func:`execute_spec`
    to install as an engine hook.
    """
    raw = os.environ.get(TEST_FAULT_ENV)
    residual: set[str] = set()
    if not raw:
        return residual
    for directive in raw.split(";"):
        directive = directive.strip()
        if not directive:
            continue
        directive, _, marker = directive.partition("@")
        target, _, rest = directive.partition(":")
        if target != spec.workload:
            continue
        kind, _, arg = rest.partition(":")
        if marker:
            marker_path = Path(marker)
            if marker_path.exists():
                continue
            marker_path.touch()
        if kind == "exit":
            os._exit(40)
        elif kind == "raise":
            raise RuntimeError(f"injected test fault for {spec.workload!r}")
        elif kind == "interrupt":
            raise KeyboardInterrupt
        elif kind == "hang":
            time.sleep(float(arg or 3600.0))
        elif kind == "hard-hang":
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            time.sleep(float(arg or 3600.0))
        elif kind == "assert-audit":
            if not spec.audit:
                raise RuntimeError(
                    f"injected test fault: {spec.workload!r} ran unaudited"
                )
        elif kind == "corrupt":
            residual.add("corrupt")
        else:
            raise ReproError(f"unknown test-fault kind {kind!r} in {raw!r}")
    return residual


def _debug_corrupt_epoch(sim, epoch_index: int) -> None:
    """Steal one huge page from the fast tier's ledger (test corruption).

    An unaudited run completes "successfully" with its books quietly
    wrong; an audited run raises ``InvariantViolation`` at the epoch the
    corruption happens.
    """
    if epoch_index == 0:
        from repro.units import HUGE_PAGE_SIZE

        sim.state.topology.fast.tier.allocated_bytes -= HUGE_PAGE_SIZE


def run_label(spec: RunSpec) -> str:
    """Filename-safe label identifying one run's observability artifacts."""
    return f"{spec.workload}_{spec.policy}_{spec.cache_key()[:12]}"


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec from scratch (no store involved).

    When the parent published an observability config (:data:`repro.obs.OBS_ENV`),
    the run executes under a live observer and writes its artifact set
    (trace, metrics snapshot, phase rollup) before returning.  Observed
    runs are bit-identical to plain runs, so this never affects the
    payload or the cache key.
    """
    from repro.obs import config_from_env, write_run_artifacts
    from repro.sim.engine import EpochSimulation
    from repro.workloads import make_workload

    directives = _apply_test_faults(spec)
    workload = make_workload(spec.workload, scale=spec.scale)
    policy = build_policy(spec.policy, spec.tolerable_slowdown)
    obs_config = config_from_env()
    observer = (
        obs_config.make_observer(process=run_label(spec))
        if obs_config is not None
        else None
    )
    sim = EpochSimulation(
        workload, policy, spec.simulation_config(), audit=spec.audit,
        observer=observer,
    )
    if "corrupt" in directives:
        sim.debug_epoch_hook = _debug_corrupt_epoch
    result = sim.run()
    if obs_config is not None and observer is not None:
        write_run_artifacts(obs_config, run_label(spec), observer)
    return result


def _execute_spec_payload(spec: RunSpec) -> tuple[dict, dict[str, np.ndarray]]:
    """Worker entry point: run one spec and return its serialized payload.

    Returning the payload rather than the live object keeps transport
    pickle-safe and guarantees a freshly-run result is byte-for-byte the
    same thing a cache hit would rehydrate.
    """
    return result_to_payload(execute_spec(spec))


# ----------------------------------------------------------------------
# SimulationResult <-> (manifest, arrays) payload
# ----------------------------------------------------------------------


def _tier_to_dict(tier) -> dict:
    return {
        "capacity_bytes": tier.spec.capacity_bytes,
        "access_latency": tier.spec.access_latency,
        "relative_cost": tier.spec.relative_cost,
        "allocated_bytes": tier.allocated_bytes,
        "soft_limit_bytes": tier.soft_limit_bytes,
    }


def _config_to_dict(config: SimulationConfig) -> dict:
    return asdict(config)


def _config_from_dict(data: dict) -> SimulationConfig:
    data = copy.deepcopy(data)
    faults = FaultConfig(**data.pop("faults"))
    with warnings.catch_warnings():
        # A truncating duration already warned when the run was first
        # configured; rehydrating its stored result must not re-warn.
        warnings.simplefilter("ignore", ConfigWarning)
        return SimulationConfig(faults=faults, **data)


def result_to_payload(
    result: SimulationResult,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Serialize a result into a JSON-able manifest plus numpy arrays."""
    stats = result.stats
    state = result.state
    records = state.migration.records
    manifest = {
        "store_version": STORE_VERSION,
        "workload_name": result.workload_name,
        "policy_name": result.policy_name,
        "duration": result.duration,
        "baseline_ops_per_second": result.baseline_ops_per_second,
        "extras": result.extras,
        "config": _config_to_dict(result.config),
        "counters": {name: c.value for name, c in stats.counters.items()},
        "series": list(stats.series),
        "histograms": list(stats.histograms),
        "state": {
            "demotion_locked": bool(state.demotion_locked),
            "fast": _tier_to_dict(state.topology.fast.tier),
            "slow": _tier_to_dict(state.topology.slow.tier),
        },
    }
    arrays: dict[str, np.ndarray] = {
        "state.tier": state.tier.copy(),
        "state.split": state.split.copy(),
        "state.deferred": state.last_deferred_demotions.copy(),
        "mig.time": np.array([r.time for r in records], dtype=float),
        "mig.bytes": np.array([r.bytes_moved for r in records], dtype=np.int64),
        "mig.source": np.array([r.source_node for r in records], dtype=np.int8),
        "mig.target": np.array([r.target_node for r in records], dtype=np.int8),
        "mig.reason": np.array(
            [_REASON_CODES[r.reason] for r in records], dtype=np.uint8
        ),
        "mig.huge": np.array([r.huge for r in records], dtype=bool),
    }
    for name, series in stats.series.items():
        arrays[f"ts.t.{name}"] = series.times
        arrays[f"ts.v.{name}"] = series.values
    for name, hist in stats.histograms.items():
        arrays[f"hist.{name}"] = hist.observations
    return manifest, arrays


def payload_to_result(
    manifest: dict, arrays: dict[str, np.ndarray]
) -> SimulationResult:
    """Rehydrate a fresh, independently mutable result from a payload."""
    if manifest.get("store_version") != STORE_VERSION:
        raise ReproError(
            f"result payload version {manifest.get('store_version')!r} != "
            f"store version {STORE_VERSION}"
        )
    manifest = copy.deepcopy(manifest)

    stats = StatsRegistry()
    for name, value in manifest["counters"].items():
        stats.counter(name).value = float(value)
    for name in manifest["series"]:
        stats.timeseries(name).extend(arrays[f"ts.t.{name}"], arrays[f"ts.v.{name}"])
    for name in manifest["histograms"]:
        stats.histogram(name).extend(arrays[f"hist.{name}"])

    fast = manifest["state"]["fast"]
    slow = manifest["state"]["slow"]
    topology = NumaTopology(
        fast=TierSpec(
            TierKind.FAST,
            int(fast["capacity_bytes"]),
            float(fast["access_latency"]),
            float(fast["relative_cost"]),
        ),
        slow=TierSpec(
            TierKind.SLOW,
            int(slow["capacity_bytes"]),
            float(slow["access_latency"]),
            float(slow["relative_cost"]),
        ),
    )
    for node, tier_dict in ((topology.fast, fast), (topology.slow, slow)):
        node.tier.allocated_bytes = int(tier_dict["allocated_bytes"])
        limit = tier_dict["soft_limit_bytes"]
        node.tier.soft_limit_bytes = None if limit is None else int(limit)

    duration = float(manifest["duration"])
    clock = VirtualClock()
    clock.advance(duration)
    state = TieredMemoryState(0, topology, clock, stats)
    state.tier = np.array(arrays["state.tier"], dtype=np.int8)
    state.split = np.array(arrays["state.split"], dtype=bool)
    state.last_deferred_demotions = np.array(
        arrays["state.deferred"], dtype=np.int64
    )
    state.demotion_locked = bool(manifest["state"]["demotion_locked"])
    state.migration.records = [
        MigrationRecord(
            time=float(t),
            bytes_moved=int(nbytes),
            source_node=int(source),
            target_node=int(target),
            reason=_REASONS_BY_CODE[int(code)],
            huge=bool(huge),
        )
        for t, nbytes, source, target, code, huge in zip(
            arrays["mig.time"],
            arrays["mig.bytes"],
            arrays["mig.source"],
            arrays["mig.target"],
            arrays["mig.reason"],
            arrays["mig.huge"],
            strict=True,
        )
    ]

    return SimulationResult(
        workload_name=manifest["workload_name"],
        policy_name=manifest["policy_name"],
        config=_config_from_dict(manifest["config"]),
        stats=stats,
        state=state,
        duration=duration,
        baseline_ops_per_second=float(manifest["baseline_ops_per_second"]),
        extras=manifest["extras"],
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


class ResultStore:
    """Content-addressed store of completed simulation runs.

    Two layers: an in-process payload memo (always on), and an optional
    on-disk layer under ``cache_dir`` — one ``<key>.json`` manifest plus
    one ``<key>.npz`` of arrays per run, written atomically, shared
    between processes and sessions.

    Every successful :meth:`fetch`/:meth:`load` rehydrates a **new**
    :class:`SimulationResult`; mutating what you got back can never
    corrupt a later fetch of the same key.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_stale_tmp()
        self._memory: dict[str, tuple[dict, dict[str, np.ndarray]]] = {}
        #: Fetches answered from the store (no simulation needed).
        self.hits = 0
        #: Fetches that found nothing (a simulation must run).
        self.misses = 0

    # -- queries ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._load_payload(key) is not None

    def fetch(self, key: str) -> SimulationResult | None:
        """Return a fresh copy of the stored run, or None (counted)."""
        payload = self._load_payload(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload_to_result(*payload)

    def load(self, key: str) -> SimulationResult:
        """Like :meth:`fetch` but uncounted; raises ``KeyError`` if absent."""
        payload = self._load_payload(key)
        if payload is None:
            raise KeyError(key)
        return payload_to_result(*payload)

    # -- updates ---------------------------------------------------------

    def put(self, key: str, result: SimulationResult) -> None:
        """Serialize and store one completed run under ``key``."""
        self.put_payload(key, result_to_payload(result))

    def put_payload(
        self, key: str, payload: tuple[dict, dict[str, np.ndarray]]
    ) -> None:
        """Store an already-serialized run (the parallel transport path)."""
        self._memory[key] = payload
        if self.cache_dir is None:
            return
        manifest, arrays = payload
        # Arrays first: a manifest without arrays would be a poisoned
        # entry, arrays without a manifest are just unreachable bytes.
        atomic_write(
            self.cache_dir / f"{key}.npz",
            lambda handle: np.savez(handle, **arrays),
            binary=True,
            tmp_suffix=".tmp.npz",
        )
        atomic_write_json(self.cache_dir / f"{key}.json", manifest)

    def clear_memory(self) -> None:
        """Drop the in-process memo (the disk layer, if any, survives)."""
        self._memory.clear()

    # -- internals -------------------------------------------------------

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files left behind by killed writers.

        A worker SIGKILLed mid-:meth:`put_payload` leaves ``*.tmp`` /
        ``*.tmp.npz`` droppings next to the store entries; they are never
        read (only the ``os.replace`` publishes data) but accumulate
        forever.  Swept on every store open; a concurrent writer's
        vanished temp file is harmless (its ``os.replace`` simply fails
        and the attempt is retried by the supervisor).
        """
        for pattern in ("*.tmp", "*.tmp.npz"):
            for stale in sorted(self.cache_dir.glob(pattern)):
                try:
                    stale.unlink()
                except OSError:
                    pass

    def _load_payload(
        self, key: str
    ) -> tuple[dict, dict[str, np.ndarray]] | None:
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir is None:
            return None
        json_path = self.cache_dir / f"{key}.json"
        npz_path = self.cache_dir / f"{key}.npz"
        if not (json_path.exists() and npz_path.exists()):
            return None
        manifest = json.loads(json_path.read_text())
        if manifest.get("store_version") != STORE_VERSION:
            return None
        with np.load(npz_path) as data:
            arrays = {name: data[name].copy() for name in data.files}
        payload = (manifest, arrays)
        self._memory[key] = payload
        return payload


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------


def run_many(
    specs: Sequence[RunSpec] | Iterable[RunSpec],
    jobs: int = 1,
    store: ResultStore | None = None,
) -> list[SimulationResult]:
    """Run a batch of specs, store-first, optionally in parallel.

    For each spec (in order): answer from ``store`` when possible;
    otherwise simulate — serially for ``jobs <= 1``, else fanned out over
    a :class:`ProcessPoolExecutor` with ``jobs`` workers.  Duplicate
    specs are simulated once.  Returns one result per input spec, each a
    fresh rehydrated object (mutating one never affects another).

    Results are bit-identical across ``jobs`` settings and across
    cache replays: every path materializes through the same payload
    serialization, and seeds live in the specs, not in the scheduler.

    Every completed run is flushed to ``store`` the moment it finishes
    (not at the end of the batch), so an interrupted batch keeps its
    finished work: on ``KeyboardInterrupt`` pending work is cancelled,
    already-completed results are flushed, and the interrupt re-raises.
    """
    specs = list(specs)
    store = store if store is not None else ResultStore()
    results: dict[int, SimulationResult] = {}
    pending_indices: dict[str, list[int]] = {}
    pending_specs: dict[str, RunSpec] = {}
    for index, spec in enumerate(specs):
        key = spec.cache_key()
        cached = store.fetch(key)
        if cached is not None:
            results[index] = cached
        else:
            pending_indices.setdefault(key, []).append(index)
            pending_specs[key] = spec

    if pending_specs:
        keys = list(pending_specs)
        if jobs > 1 and len(keys) > 1:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(keys)))
            futures: dict[Future, str] = {}
            try:
                futures = {
                    pool.submit(_execute_spec_payload, pending_specs[key]): key
                    for key in keys
                }
                for future in as_completed(futures):
                    store.put_payload(futures[future], future.result())
            except KeyboardInterrupt:
                _flush_completed(store, futures)
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            else:
                pool.shutdown()
        else:
            for key in keys:
                store.put_payload(key, _execute_spec_payload(pending_specs[key]))
        for key in keys:
            for index in pending_indices[key]:
                results[index] = store.load(key)

    return [results[index] for index in range(len(specs))]


def _flush_completed(store: ResultStore, futures: dict[Future, str]) -> None:
    """Salvage finished-but-unconsumed worker payloads into the store."""
    for future, key in futures.items():
        if not future.done() or future.cancelled():
            continue
        try:
            if future.exception() is None:
                store.put_payload(key, future.result())
        except (KeyboardInterrupt, Exception):
            continue
