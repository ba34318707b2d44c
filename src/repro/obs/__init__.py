"""``repro.obs`` — always-available, default-off observability.

Three pillars (see DESIGN.md "Observability"):

* :mod:`repro.obs.tracer` — structured per-epoch decision records,
  exported as JSONL and Chrome ``trace_event`` files;
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with
  Prometheus-text and JSON snapshot exporters;
* :mod:`repro.obs.profiling` — wall-clock phase timing behind the
  runner's ``--self-profile`` table.

The seam is :class:`Observer`, the one observability sink: the engine,
policy, migration engine, BadgerTrap, supervisor, and placement service
all talk to one observer object.  An observer may carry a
:class:`~repro.obs.live.FlightRecorder`; every :meth:`Observer.emit` then
lands in the tracer and the recorder's ring alike, so the ring is always
the exact tail of the trace stream.  The default is
:data:`NULL_OBSERVER`, whose ``active`` flag is ``False`` — every
instrumentation site guards on that one attribute, so a run with
observability off does no per-access (or even per-epoch) observability
work beyond the guard itself.

Everything here is strictly *observational*: an observed run consumes
the same RNG streams, produces a bit-identical
:class:`~repro.sim.engine.SimulationResult`, and shares its
:meth:`~repro.experiments.parallel.RunSpec.cache_key` with an unobserved
run — the same contract PR 4 established for ``--audit``.

Cross-process plumbing: the runner serializes an :class:`ObsConfig` into
the ``REPRO_OBS`` environment variable; worker processes rebuild it in
:func:`~repro.experiments.parallel.execute_spec` and write one artifact
set per simulated run (``trace_<label>.jsonl``, ``trace_<label>.chrome.json``,
``metrics_<label>.json``, ``profile_<label>.json``) into the configured
directory.  The parent then merges those into ``metrics.json`` /
``metrics.prom`` and the self-profile table.  A *cache hit* executes no
simulation and therefore produces no new artifacts — observability
records executions, not store lookups.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.ioutil import atomic_write_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.tracer import TraceEvent, Tracer, truncate_pages  # noqa: F401  (re-export)

if TYPE_CHECKING:
    from repro.obs.live import FlightRecorder

#: Environment variable carrying the JSON-encoded :class:`ObsConfig`
#: from the runner to worker processes (same idiom as REPRO_TEST_FAULT).
OBS_ENV = "REPRO_OBS"

#: Reused no-op context manager for inactive phase timing.
_NULL_CONTEXT = nullcontext()


class NullObserver:
    """The do-nothing sink; the engine's default.

    Instrumentation sites check ``observer.active`` before building event
    payloads, so the off path costs one attribute read.  The methods
    exist (as no-ops) so call sites never need ``None`` checks.
    """

    active = False
    tracer = None
    metrics = None
    profiler = None
    recorder: FlightRecorder | None = None

    def phase(self, name: str):
        return _NULL_CONTEXT

    def emit(self, category: str, name: str, time: float, duration: float = 0.0, **args) -> None:
        pass

    def dump(self, reason: str, now: float = 0.0) -> None:
        return None

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value, buckets) -> None:
        pass


#: The process-wide no-op observer (stateless, safe to share).
NULL_OBSERVER = NullObserver()


class Observer:
    """A live sink bundling whichever pillars the caller enabled.

    ``recorder`` is an optional :class:`~repro.obs.live.FlightRecorder`
    (a plain attribute, so a caller may attach one for a while): each
    emitted event is appended to its ring as well as to the tracer.
    """

    active = True

    def __init__(
        self,
        trace: bool = False,
        metrics: bool = False,
        profile: bool = False,
        process: str = "repro",
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.tracer = Tracer(process=process) if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self.profiler = PhaseProfiler() if profile else None
        self.recorder = recorder

    # -- thin helpers so instrumentation sites stay one-liners -----------

    def phase(self, name: str):
        if self.profiler is not None:
            return self.profiler.phase(name)
        return _NULL_CONTEXT

    def emit(self, category: str, name: str, time: float, duration: float = 0.0, **args) -> None:
        if self.tracer is not None:
            event = self.tracer.emit(category, name, time, duration, **args)
        elif self.recorder is not None:
            event = TraceEvent(category, name, float(time), float(duration), args)
        else:
            return
        if self.recorder is not None:
            self.recorder.record_event(event.to_dict())

    def dump(self, reason: str, now: float = 0.0) -> Path | None:
        """Dump the flight recorder's ring; ``None`` without a recorder."""
        if self.recorder is None:
            return None
        return self.recorder.dump(reason, now)

    def inc(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value, buckets) -> None:
        """Observe a scalar or an array into a fixed-bucket histogram."""
        if self.metrics is None:
            return
        hist = self.metrics.histogram(name, buckets)
        if hasattr(value, "__len__"):
            hist.extend(value)
        else:
            hist.observe(value)


@dataclass(frozen=True)
class ObsConfig:
    """Which pillars are on and where run artifacts land."""

    trace: bool = False
    metrics: bool = False
    self_profile: bool = False
    out_dir: str = ".thermostat-obs"

    @property
    def any_enabled(self) -> bool:
        return self.trace or self.metrics or self.self_profile

    def make_observer(self, process: str = "repro") -> Observer | NullObserver:
        if not self.any_enabled:
            return NULL_OBSERVER
        return Observer(
            trace=self.trace,
            metrics=self.metrics,
            profile=self.self_profile,
            process=process,
        )

    # -- cross-process plumbing ------------------------------------------

    def install_env(self) -> None:
        """Publish this config to worker processes via :data:`OBS_ENV`."""
        os.environ[OBS_ENV] = json.dumps(asdict(self), sort_keys=True)


def clear_env() -> None:
    """Remove the observability config from the environment."""
    os.environ.pop(OBS_ENV, None)


def config_from_env() -> ObsConfig | None:
    """The :class:`ObsConfig` published by the parent, or ``None``."""
    raw = os.environ.get(OBS_ENV)
    if not raw:
        return None
    config = ObsConfig(**json.loads(raw))
    return config if config.any_enabled else None


# ----------------------------------------------------------------------
# Per-run artifact files
# ----------------------------------------------------------------------


def write_run_artifacts(
    config: ObsConfig, label: str, observer: Observer
) -> list[Path]:
    """Write one simulated run's observability artifacts.

    Called by :func:`~repro.experiments.parallel.execute_spec` in
    whichever process ran the simulation.  Filenames are derived from the
    run's label (workload, policy, cache-key prefix), so concurrent
    workers never collide and a re-executed run overwrites its own files
    with identical content.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if observer.tracer is not None:
        written.append(observer.tracer.write_jsonl(out_dir / f"trace_{label}.jsonl"))
        written.append(
            observer.tracer.write_chrome(out_dir / f"trace_{label}.chrome.json")
        )
    if observer.metrics is not None:
        written.append(
            atomic_write_json(
                out_dir / f"metrics_{label}.json",
                observer.metrics.snapshot(),
                indent=2,
            )
        )
    if observer.profiler is not None:
        written.append(
            atomic_write_json(
                out_dir / f"profile_{label}.json",
                {"phases": observer.profiler.rollup()},
                indent=2,
            )
        )
    return written


def collect_run_metrics(out_dir: str | os.PathLike) -> MetricsRegistry:
    """Merge every per-run metrics snapshot under ``out_dir``.

    Files are merged in sorted-name order, so the merged registry is
    identical whichever process order produced them (``--jobs N`` equals
    serial).
    """
    registry = MetricsRegistry()
    for path in sorted(Path(out_dir).glob("metrics_*.json")):
        registry.merge_snapshot(json.loads(path.read_text()))
    return registry


def collect_run_profiles(out_dir: str | os.PathLike) -> list[dict]:
    """Merge every per-run phase rollup under ``out_dir`` into table rows."""
    from repro.obs.profiling import merge_rollups

    rollups: Iterable = (
        json.loads(path.read_text())["phases"]
        for path in sorted(Path(out_dir).glob("profile_*.json"))
    )
    return merge_rollups(rollups)
