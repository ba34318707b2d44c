"""Supervised execution: crash/hang-tolerant batches with checkpointed resume.

:func:`run_supervised` is a supervision layer over the same (spec →
payload → store) pipeline :func:`~repro.experiments.parallel.run_many`
uses, built for campaigns that must survive the real world:

* **Per-task wall-clock timeouts** — a SIGALRM armed inside the worker
  (clean, per-task, raises :class:`~repro.errors.TaskTimeoutError`) plus
  a parent-side deadline
  (:attr:`~repro.config.SupervisorConfig.parent_timeout`) as a backstop
  for workers hung too hard to take the signal, in which case the pool is
  killed and rebuilt.
* **Retries with seeded exponential backoff** — a failed attempt waits
  :data:`BACKOFF_SECONDS` doubled per further failure, scaled by a
  jitter of up to :data:`BACKOFF_JITTER` drawn from a stream seeded per
  (task, attempt), so retry schedules are reproducible.
* **Pool rebuild on crash** — a worker dying (OOM kill, segfault,
  ``os._exit``) breaks a ``ProcessPoolExecutor`` permanently; instead of
  aborting the sweep, the supervisor charges a failed attempt to the
  affected in-flight tasks, discards the broken pool, and builds a fresh
  one.  (The pool cannot say *which* worker died, so concurrent innocents
  may be charged a collateral attempt; they succeed on retry while a
  deterministic crasher exhausts its budget.)
* **Quarantine** — a task that fails ``max_attempts`` times is set aside
  with its spec, attempt count, and tracebacks in a machine-readable
  ``quarantine.json`` while the rest of the batch completes;
  :meth:`SupervisedBatch.raise_on_quarantine` then raises
  :class:`~repro.errors.QuarantinedTaskError` for callers that need every
  result.
* **Checkpointed resume** — every completed task is flushed through the
  :class:`~repro.experiments.parallel.ResultStore` the moment it
  finishes, so a SIGKILLed suite re-run against the same ``cache_dir``
  resumes from its last completed key (``thermostat-repro --resume``).
* **Audit-on-retry** — retried attempts run with epoch-boundary invariant
  auditing (:mod:`repro.sim.invariants`) forced on, so a retry that only
  "succeeds" by corrupting engine state is quarantined, not cached.

Scheduling never affects results: specs carry their own seeds, workers
ship serialized payloads, and the store rehydrates fresh objects — a
supervised batch is bit-identical to ``run_many`` and to a cache replay.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.config import SupervisorConfig
from repro.errors import QuarantinedTaskError, TaskTimeoutError
from repro.ioutil import atomic_write_json
from repro.experiments.parallel import (
    ResultStore,
    RunSpec,
    _execute_spec_payload,
    _flush_completed,
)
from repro.obs import NULL_OBSERVER
from repro.obs.live import FlightRecorder
from repro.rng import child_rng, make_rng, retry_delay
from repro.sim.engine import SimulationResult

#: Version stamp of the quarantine.json layout.
QUARANTINE_VERSION = 1

#: Backoff after the first failed attempt, seconds; doubles per further
#: failure.
BACKOFF_SECONDS = 0.25
#: Upper bound of the multiplicative jitter drawn per (task, attempt)
#: from a seeded stream: the delay is scaled by ``1 + U[0, jitter)``.
BACKOFF_JITTER = 0.5

#: Idle tick of the scheduler loop, seconds: how often the parent wakes
#: to check deadlines and backoff eligibility when nothing has completed.
_TICK_SECONDS = 0.25

#: Exit status of the timer-based timeout fallback (worker hard-exits when
#: SIGALRM cannot be armed).  Distinct from the test-fault crash code (40)
#: so post-mortems can tell a budget kill from an injected crash.
TIMEOUT_EXIT_CODE = 41


def _supervised_worker(
    spec: RunSpec, timeout: float | None
) -> tuple[dict, dict]:
    """Worker entry point: run one spec under a wall-clock budget.

    Preferred mechanism: a SIGALRM armed inside the worker raises
    :class:`TaskTimeoutError`, which travels back through the future like
    any other failure — the clean half of the timeout hybrid.  But
    ``signal.signal`` only works on the main thread of the main
    interpreter, and this entry point does not get to choose where it
    runs: pool implementations and tests may call it from a worker
    *thread*, where arming the alarm raises ``ValueError``.  In that case
    (or on platforms without SIGALRM) the fallback is a daemon timer
    holding a monotonic deadline that hard-exits the process with
    :data:`TIMEOUT_EXIT_CODE` — the parent's BrokenProcessPool handling
    then charges the attempt, exactly like any other worker death.  With
    ``timeout is None`` the worker runs unbudgeted and relies on the
    parent-side deadline alone.
    """
    use_alarm = (
        timeout is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    timer: threading.Timer | None = None
    completed = threading.Event()
    if use_alarm:

        def _on_alarm(signum, frame):
            raise TaskTimeoutError(
                f"task exceeded its {timeout:g}s wall-clock budget"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    elif timeout is not None:
        deadline = time.monotonic() + timeout

        def _expire() -> None:
            # Re-check the monotonic deadline so a spuriously early timer
            # firing can never kill a worker that still has budget, and
            # skip the exit entirely once the task has produced its
            # result — a timer that fires while the worker is returning
            # must not discard a completed payload and charge a death.
            if completed.is_set():
                return
            if time.monotonic() >= deadline:
                os._exit(TIMEOUT_EXIT_CODE)

        timer = threading.Timer(timeout, _expire)
        timer.daemon = True
        timer.start()
    try:
        payload = _execute_spec_payload(spec)
        completed.set()
        return payload
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        if timer is not None:
            timer.cancel()


@dataclass
class QuarantineEntry:
    """One task that failed every attempt, in quarantine.json layout."""

    key: str
    spec: dict
    attempts: int
    error_type: str
    tracebacks: list[str]
    #: Path of the flight-recorder dump written when this task was
    #: quarantined (``None`` when observability was off).
    flight_dump: str | None = None

    @property
    def workload(self) -> str:
        return str(self.spec.get("workload", "?"))


@dataclass
class SupervisedBatch:
    """Everything :func:`run_supervised` learned about one batch."""

    #: One entry per input spec, in order; ``None`` for quarantined tasks.
    results: list[SimulationResult | None]
    #: Tasks that failed every attempt (empty on a clean batch).
    quarantined: list[QuarantineEntry]
    #: Unique tasks answered store-first (the resume path).
    resumed: int
    #: Unique tasks that failed at least once but eventually completed.
    retried: int
    #: Failed attempts per cache key (successful-first-try tasks absent).
    attempts: dict[str, int]

    def raise_on_quarantine(self) -> None:
        """Raise :class:`QuarantinedTaskError` if any task was quarantined."""
        if not self.quarantined:
            return
        summary = ", ".join(
            f"{entry.workload} ({entry.error_type} x{entry.attempts})"
            for entry in self.quarantined
        )
        dumps = [e.flight_dump for e in self.quarantined if e.flight_dump]
        hint = f" [flight: {dumps[-1]}]" if dumps else ""
        raise QuarantinedTaskError(
            f"{len(self.quarantined)} task(s) quarantined after exhausting "
            f"their attempts: {summary}{hint}"
        )


@dataclass
class _Task:
    """Supervisor-side state machine for one unique spec.

    States: pending -> running -> (done | retrying -> running ... |
    quarantined).  ``attempts`` counts *failed* attempts; ``eligible`` is
    the monotonic time before which a retry must not be resubmitted.
    """

    spec: RunSpec
    key: str
    indices: list[int] = field(default_factory=list)
    attempts: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    eligible: float = 0.0
    done: bool = False
    quarantined: bool = False

    @property
    def finished(self) -> bool:
        return self.done or self.quarantined


def _format_failure(exc: BaseException) -> tuple[str, str]:
    """(exception type name, full traceback incl. the remote one)."""
    trace = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return type(exc).__name__, trace


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool whose worker is hung (terminate, don't wait)."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def write_quarantine(
    path: str | os.PathLike, entries: list[QuarantineEntry]
) -> None:
    """Write (or clear) the machine-readable quarantine report atomically."""
    path = Path(path)
    if not entries:
        # A clean batch removes a stale report so resumed campaigns
        # cannot be confused by last run's quarantine.
        path.unlink(missing_ok=True)
        return
    payload = {
        "version": QUARANTINE_VERSION,
        "entries": [asdict(entry) for entry in entries],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # Same fsync + os.replace path the result store uses: a crash
    # mid-write can never leave a truncated report that poisons --resume.
    atomic_write_json(path, payload, indent=2)


def run_supervised(
    specs,
    jobs: int = 1,
    store: ResultStore | None = None,
    config: SupervisorConfig | None = None,
    observer=None,
) -> SupervisedBatch:
    """Run a batch of specs under supervision; see the module docstring.

    Tasks always execute in worker processes (even with ``jobs=1``) so a
    crash can never take the supervisor down with it.  At most ``jobs``
    tasks are in flight at a time, which keeps parent-side deadlines
    honest (submit time == start time) and bounds a crash's blast radius.

    ``observer`` is an optional observability sink (:mod:`repro.obs`):
    the supervisor annotates it with attempt spans and retry/quarantine/
    resume events, timestamped in wall-clock seconds since batch start (a
    different timebase from the simulated-time engine traces, which is
    why the runner writes them to a separate trace file).
    """
    config = config if config is not None else SupervisorConfig()
    store = store if store is not None else ResultStore()
    obs = observer if observer is not None else NULL_OBSERVER
    specs = list(specs)
    jobs = max(1, jobs)
    batch_start = time.monotonic()

    def _elapsed() -> float:
        return time.monotonic() - batch_start

    flight_dumps: dict[str, str] = {}

    tasks: dict[str, _Task] = {}
    for index, spec in enumerate(specs):
        key = spec.cache_key()
        task = tasks.setdefault(key, _Task(spec=spec, key=key))
        task.indices.append(index)

    jitter_root = make_rng(config.seed)

    def _fail(task: _Task, exc: BaseException) -> None:
        task.attempts += 1
        task.failures.append(_format_failure(exc))
        if task.attempts >= config.max_attempts:
            task.quarantined = True
            if obs.active:
                obs.emit(
                    "supervisor",
                    "quarantined",
                    _elapsed(),
                    workload=task.spec.workload,
                    key=task.key[:12],
                    attempts=task.attempts,
                    error_type=type(exc).__name__,
                )
                obs.inc("repro_supervisor_quarantined_total")
                path = obs.dump(f"quarantine-{task.key[:12]}", now=_elapsed())
                if path is not None:
                    flight_dumps[task.key] = str(path)
            return
        jitter = child_rng(
            jitter_root, f"backoff:{task.key}:{task.attempts}"
        ).uniform(0.0, BACKOFF_JITTER)
        delay = retry_delay(BACKOFF_SECONDS, task.attempts, jitter)
        task.eligible = time.monotonic() + delay
        if obs.active:
            obs.emit(
                "supervisor",
                "retry_scheduled",
                _elapsed(),
                workload=task.spec.workload,
                key=task.key[:12],
                attempt=task.attempts,
                delay_seconds=delay,
                error_type=type(exc).__name__,
            )
            obs.inc("repro_supervisor_retries_total")

    pool: ProcessPoolExecutor | None = None
    in_flight: dict[Future, str] = {}
    deadlines: dict[Future, float | None] = {}
    submitted: dict[Future, float] = {}
    retried: set[str] = set()

    def _submit(task: _Task) -> None:
        spec = task.spec
        if task.attempts > 0:
            retried.add(task.key)
            spec = replace(spec, audit=True)
        future = pool.submit(_supervised_worker, spec, config.timeout)
        in_flight[future] = task.key
        submitted[future] = _elapsed()
        parent = config.parent_timeout
        deadlines[future] = (
            None if parent is None else time.monotonic() + parent
        )

    def _observe_attempt(
        future: Future, task: _Task, outcome: str
    ) -> None:
        """Span one attempt (call *before* ``_fail`` so numbering agrees)."""
        began = submitted.pop(future, None)
        if not obs.active:
            return
        start = began if began is not None else _elapsed()
        obs.emit(
            "supervisor",
            "attempt",
            start,
            duration=max(0.0, _elapsed() - start),
            workload=task.spec.workload,
            key=task.key[:12],
            attempt=task.attempts + 1,
            outcome=outcome,
        )
        obs.inc("repro_supervisor_attempts_total")

    # Observed + quarantine-enabled batches attach a flight recorder, next
    # to quarantine.json, to the observer for the length of the batch: its
    # ring is the tail of the batch's supervisor trace, and a task's final
    # failure dumps that window for post-mortems.
    detached_recorder = obs.recorder
    if obs.active and config.quarantine_path is not None:
        obs.recorder = FlightRecorder(
            dump_dir=Path(config.quarantine_path).parent, label="supervisor"
        )
    resumed = 0
    try:
        for task in tasks.values():
            if store.fetch(task.key) is not None:
                task.done = True
                resumed += 1
                if obs.active:
                    obs.emit(
                        "supervisor",
                        "resumed",
                        _elapsed(),
                        workload=task.spec.workload,
                        key=task.key[:12],
                    )
                    obs.inc("repro_supervisor_resumed_total")

        while any(not task.finished for task in tasks.values()):
            now = time.monotonic()
            runnable = [
                task
                for task in tasks.values()
                if not task.finished
                and task.key not in in_flight.values()
                and task.eligible <= now
            ]
            if runnable and pool is None:
                pool = ProcessPoolExecutor(max_workers=jobs)
            for task in runnable[: jobs - len(in_flight)]:
                _submit(task)

            if not in_flight:
                # Everything unfinished is waiting out a backoff.
                next_eligible = min(
                    task.eligible
                    for task in tasks.values()
                    if not task.finished
                )
                time.sleep(max(0.0, next_eligible - time.monotonic()))
                continue

            done_set, _ = wait(
                set(in_flight), timeout=_TICK_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            pool_broken = False
            for future in done_set:
                key = in_flight.pop(future)
                deadlines.pop(future)
                task = tasks[key]
                try:
                    payload = future.result()
                except KeyboardInterrupt:
                    raise
                except BrokenProcessPool as exc:
                    pool_broken = True
                    _observe_attempt(future, task, type(exc).__name__)
                    _fail(task, exc)
                except BaseException as exc:  # worker exceptions of any kind
                    _observe_attempt(future, task, type(exc).__name__)
                    _fail(task, exc)
                else:
                    _observe_attempt(future, task, "ok")
                    store.put_payload(key, payload)
                    task.done = True
            if pool_broken:
                # The remaining in-flight futures are doomed on this pool;
                # charge them the same collateral attempt and rebuild.
                for future, key in list(in_flight.items()):
                    _observe_attempt(future, tasks[key], "BrokenProcessPool")
                    _fail(
                        tasks[key],
                        BrokenProcessPool(
                            "process pool broke while task was in flight"
                        ),
                    )
                in_flight.clear()
                deadlines.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                continue

            now = time.monotonic()
            overdue = [
                future
                for future, deadline in deadlines.items()
                if deadline is not None and now >= deadline
                and not future.done()
            ]
            if overdue:
                # A worker is hung past even the parent-side backstop: the
                # only safe recovery is to kill the whole pool.  Overdue
                # tasks are charged a timeout failure; innocent in-flight
                # tasks are requeued without losing an attempt.
                for future in list(in_flight):
                    key = in_flight.pop(future)
                    deadlines.pop(future)
                    if future in overdue:
                        _observe_attempt(future, tasks[key], "TaskTimeoutError")
                        _fail(
                            tasks[key],
                            TaskTimeoutError(
                                f"worker hung past the parent-side deadline "
                                f"({config.parent_timeout:g}s); process pool "
                                f"killed"
                            ),
                        )
                    else:
                        submitted.pop(future, None)
                _kill_pool(pool)
                pool = None
    except KeyboardInterrupt:
        if pool is not None:
            _flush_completed(store, dict(in_flight))
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if obs.active:
            obs.recorder = detached_recorder

    quarantined = [
        QuarantineEntry(
            key=task.key,
            spec=asdict(task.spec),
            attempts=task.attempts,
            error_type=task.failures[-1][0] if task.failures else "Unknown",
            tracebacks=[trace for _, trace in task.failures],
            flight_dump=flight_dumps.get(task.key),
        )
        for task in tasks.values()
        if task.quarantined
    ]
    if config.quarantine_path is not None:
        write_quarantine(config.quarantine_path, quarantined)

    results: list[SimulationResult | None] = [None] * len(specs)
    for task in tasks.values():
        if not task.done:
            continue
        for index in task.indices:
            results[index] = store.load(task.key)

    return SupervisedBatch(
        results=results,
        quarantined=quarantined,
        resumed=resumed,
        retried=len(retried & {t.key for t in tasks.values() if t.done}),
        attempts={
            task.key: task.attempts
            for task in tasks.values()
            if task.attempts
        },
    )
