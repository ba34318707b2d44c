"""In-memory span recording around the program's layer entry points.

The traced pass wraps each layer's public entry points from here, the
benchmark's own code, so the program itself carries no tracing.  Each
call becomes one span ``[name, start, end, parent]`` (``perf_counter``
seconds; ``parent`` is the index of the enclosing span, -1 at the root).
Spans stay in memory until :meth:`SpanRecorder.write` saves them when the
run ends.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded on every traced path, so
children never overlap and self time is never negative.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro.units import SUBPAGES_PER_HUGE_PAGE


def _count_subpages(counts: dict, profile) -> None:
    counts["workloads.subpages"] += profile.num_huge_pages * SUBPAGES_PER_HUGE_PAGE


def _count_pages(counts: dict, moved) -> None:
    counts["sim.pages_migrated"] += int(moved)


def _count_report(counts: dict, report) -> None:
    counts["core.demoted_pages"] += report.demoted
    counts["core.promoted_pages"] += report.promoted


#: ``(span name, module, attribute path, counter)`` for every wrapped
#: entry point.  A counter ``f(counts, result)`` adds what the call
#: returned to :attr:`SpanRecorder.counts`, so ratios are measured where
#: the work happens.
ENTRY_POINTS = (
    ("workloads.build", "repro.workloads.registry", "make_workload", None),
    ("workloads.profile", "repro.workloads.base", "Workload.epoch_profile", _count_subpages),
    (
        "workloads.profile",
        "repro.workloads.base",
        "Workload.epoch_profile_hierarchical",
        _count_subpages,
    ),
    ("sim.step", "repro.sim.engine", "EpochSimulation.step", None),
    ("sim.demote", "repro.sim.state", "TieredMemoryState.demote", _count_pages),
    ("sim.promote", "repro.sim.state", "TieredMemoryState.promote", _count_pages),
    ("core.policy", "repro.core.thermostat", "ThermostatPolicy.on_epoch", _count_report),
    ("core.sample", "repro.core.sampling", "poison_scan_batch", None),
    ("core.sample", "repro.core.sampling", "CyclingSampler.next_sample", None),
    ("core.classify", "repro.core.estimator", "estimate_rates_vectorized", None),
    ("core.classify", "repro.core.classifier", "select_cold_pages", None),
    ("core.correct", "repro.core.correction", "select_promotions", None),
    ("experiments.payload", "repro.experiments.parallel", "result_to_payload", None),
    ("experiments.payload", "repro.experiments.parallel", "payload_to_result", None),
    ("fleet.arbiter", "repro.fleet.arbiter", "Arbiter.admit_batch", None),
    ("fleet.arbiter", "repro.fleet.arbiter", "Arbiter.rebalance", None),
    ("fleet.arbiter", "repro.fleet.arbiter", "Arbiter.enforce_budget", None),
    ("fleet.tenant_step", "repro.fleet.tenant", "Tenant.step", None),
    ("service.ingest", "repro.service.core", "PlacementService.ingest_line", None),
    ("service.parse", "repro.service.events", "parse_event", None),
    ("service.decide", "repro.service.core", "PlacementService.decide", None),
    ("service.wal_append", "repro.service.wal", "DecisionLog.append", None),
    ("service.checkpoint", "repro.service.core", "PlacementService.checkpoint", None),
)


class SpanRecorder:
    """Records spans while installed; restores every patched name on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: ``[name_id, start, end, parent]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = {
            "workloads.subpages": 0,
            "sim.pages_migrated": 0,
            "core.demoted_pages": 0,
            "core.promoted_pages": 0,
        }
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, pass)."""
        index = len(self.spans)
        record = [self._name_id(name), perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; module functions in every namespace
        that imported them by name, methods on their class and on each
        subclass that overrides them."""
        for name, module_name, path, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                for cls in _with_subclasses(owner):
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], counter))
            else:
                original = getattr(module, path)
                wrapped = self._wrap(name, original, counter)
                for other in sorted(sys.modules):
                    namespace = vars(sys.modules[other])
                    if namespace.get(path) is original:
                        self._patch(sys.modules[other], path, wrapped)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        return self_time

    def named(self, name: str) -> list[list]:
        name_id = self._name_ids.get(name)
        return [span for span in self.spans if span[0] == name_id]

    def _outermost(self, names: tuple[str, ...], parent: str | None):
        """Spans carrying any of ``names`` that are not nested in another
        of them; with ``parent``, only spans directly under that name."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        parent_id = self._name_ids.get(parent, -2) if parent else None
        for span in self.spans:
            name_id, _, _, up = span
            if name_id not in ids:
                continue
            if parent_id is not None:
                if up < 0 or self.spans[up][0] != parent_id:
                    continue
            elif self._inside(up, ids):
                continue
            yield span

    def total(self, *names: str, parent: str | None = None) -> float:
        """Summed duration of :meth:`_outermost` spans (inclusive time)."""
        return sum(end - start for _, start, end, _ in self._outermost(names, parent))

    def count(self, *names: str) -> int:
        """Calls into ``names``, not counting nested re-entries."""
        return sum(1 for _ in self._outermost(names, None))

    def _inside(self, index: int, ids: set[int]) -> bool:
        while index >= 0:
            if self.spans[index][0] in ids:
                return True
            index = self.spans[index][3]
        return False

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return self._self_time_where(lambda span_name: span_name == name)

    def layer_self_time(self, layer: str) -> float:
        """Summed self time of every span in ``layer`` (``"sim"``: ``sim.*``)."""
        prefix = layer + "."
        return self._self_time_where(lambda span_name: span_name.startswith(prefix))

    def _self_time_where(self, predicate) -> float:
        chosen = [predicate(name) for name in self.names]
        return sum(
            seconds
            for (name_id, _, _, _), seconds in zip(self.spans, self.self_times(), strict=True)
            if chosen[name_id]
        )

    def write(self, path: Path) -> Path:
        """Save every span as ``{"names": [...], "spans": [[name, start, end, parent]]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"names": self.names, "spans": self.spans}, separators=(",", ":"))
        )
        return path


def _with_subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found
