"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The observability layer's second pillar (DESIGN.md "Observability"): a
process-local registry of named metrics that subsystems increment while
a simulation runs, exportable as a Prometheus text page or a JSON
snapshot.  Three deliberate constraints keep it honest:

* **Naming convention** — every metric is ``repro_<subsystem>_<name>``
  (validated at registration), so a merged snapshot from many runs stays
  navigable and grep-able.
* **Fixed bucket layouts** — histograms take their bucket edges at
  registration and re-registration with different edges is an error;
  snapshots from different runs/workers therefore always merge
  cell-by-cell.
* **Deterministic snapshots** — :meth:`MetricsRegistry.snapshot` sorts
  every namespace, and :meth:`merge_snapshot` is order-insensitive for
  counters and histograms (gauges are last-write-wins, so merge in a
  deterministic order — the callers here merge sorted by run key).

Observing is cheap: counters and gauges are one float add/store;
histogram observation is one bisection.  Bulk observation
(:meth:`MetricHistogram.extend`) is vectorized for the per-epoch arrays
the policy produces.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ObservabilityError

#: Enforced metric naming convention: ``repro_<subsystem>_<name>``.
METRIC_NAME_PATTERN = re.compile(r"^repro_[a-z0-9]+_[a-z0-9_]+$")

# ----------------------------------------------------------------------
# Standard bucket layouts.  Fixed here so every run and worker uses the
# same edges and snapshots merge cell-by-cell.
# ----------------------------------------------------------------------

#: Latency/overhead durations, seconds (1us .. 100s, decades).
SECONDS_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
#: Page-count batches (powers of two up to a large suite footprint).
PAGES_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0)
#: Access rates, accesses/second (decades around the 30K acc/s budget).
RATE_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 3e4, 1e5, 1e6, 1e7)
#: Dimensionless fractions in [0, 1] (slowdowns, cold fractions).
FRACTION_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)
#: Byte volumes (4KB page .. 64GB, powers of 16).
BYTES_BUCKETS = (4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0, 4294967296.0, 68719476736.0)


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it follows ``repro_<subsystem>_<name>``; else raise."""
    if not METRIC_NAME_PATTERN.match(name):
        raise ObservabilityError(
            f"metric name {name!r} violates the repro_<subsystem>_<name> "
            "convention (lowercase, underscore-separated)"
        )
    return name


class MetricCounter:
    """A monotonically increasing named value."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = validate_metric_name(name)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += float(amount)


class MetricGauge:
    """A named value that can move both ways (set to the latest reading)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = validate_metric_name(name)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class MetricHistogram:
    """A fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are inclusive upper bounds; an observation lands in the
    first bucket whose edge is >= the value, or in the implicit ``+Inf``
    overflow cell.  ``counts`` holds one cell per edge plus the overflow
    cell, so ``len(counts) == len(buckets) + 1``.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        self.name = validate_metric_name(name)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(edges, edges[1:], strict=False)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing: {edges}"
            )
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value

    def extend(self, values) -> None:
        """Vectorized bulk observation (per-epoch arrays of rates/sizes)."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        # searchsorted(side="left") matches bisect_left: inclusive le edges.
        cells = np.searchsorted(np.asarray(self.buckets), values, side="left")
        for cell, n in zip(*np.unique(cells, return_counts=True), strict=True):
            self.counts[int(cell)] += int(n)
        self.sum += float(values.sum())


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms for one process/run."""

    def __init__(self) -> None:
        self.counters: dict[str, MetricCounter] = {}
        self.gauges: dict[str, MetricGauge] = {}
        self.histograms: dict[str, MetricHistogram] = {}

    # -- registration ----------------------------------------------------

    def counter(self, name: str) -> MetricCounter:
        if name not in self.counters:
            self.counters[name] = MetricCounter(name)
        return self.counters[name]

    def gauge(self, name: str) -> MetricGauge:
        if name not in self.gauges:
            self.gauges[name] = MetricGauge(name)
        return self.gauges[name]

    def histogram(self, name: str, buckets: Iterable[float]) -> MetricHistogram:
        edges = tuple(float(b) for b in buckets)
        existing = self.histograms.get(name)
        if existing is None:
            self.histograms[name] = MetricHistogram(name, edges)
        elif existing.buckets != edges:
            raise ObservabilityError(
                f"histogram {name!r} re-registered with different buckets: "
                f"{existing.buckets} vs {edges} (layouts are fixed)"
            )
        return self.histograms[name]

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able, deterministically ordered dump of every metric."""
        return {
            "counters": {
                name: self.counters[name].value for name in sorted(self.counters)
            },
            "gauges": {name: self.gauges[name].value for name in sorted(self.gauges)},
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                }
                for name, h in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram cells add; gauges take the merged value
        (last write wins — merge snapshots in a deterministic order).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += float(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, data["buckets"])
            if len(data["counts"]) != len(hist.counts):
                raise ObservabilityError(
                    f"histogram {name!r} snapshot has {len(data['counts'])} "
                    f"cells, registry expects {len(hist.counts)}"
                )
            for i, n in enumerate(data["counts"]):
                hist.counts[i] += int(n)
            hist.sum += float(data["sum"])

    def to_prometheus_text(self) -> str:
        """The registry as a Prometheus text-format exposition page."""
        lines: list[str] = []
        for name in sorted(self.counters):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(self.counters[name].value)}")
        for name in sorted(self.gauges):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(self.gauges[name].value)}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for edge, cell in zip(hist.buckets, hist.counts, strict=False):
                cumulative += cell
                lines.append(f'{name}_bucket{{le="{_fmt(edge)}"}} {cumulative}')
            cumulative += hist.counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_fmt(hist.sum)}")
            lines.append(f"{name}_count {cumulative}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a float the shortest way that round-trips (ints unpadded).

    Non-finite values use the Prometheus spellings (``+Inf``/``-Inf``/
    ``NaN``) — ``int(inf)`` raises, and ``repr(nan)`` is not a token the
    exposition format admits.
    """
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _parse_value(token: str, where: str) -> float:
    """Parse one Prometheus sample value (accepts the _fmt spellings)."""
    try:
        return float(token.replace("Inf", "inf"))
    except ValueError as exc:
        raise ObservabilityError(f"{where}: bad sample value {token!r}") from exc


#: Sample line: ``name value`` or ``name{le="edge"} value``.
_SAMPLE_PATTERN = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{le="(?P<le>[^"]+)"\})?'
    r" (?P<value>\S+)$"
)


def parse_prometheus_text(text: str) -> dict:
    """Strictly parse a :meth:`MetricsRegistry.to_prometheus_text` page.

    Returns a :meth:`MetricsRegistry.snapshot`-shaped dict so
    ``parse(registry.to_prometheus_text()) == registry.snapshot()`` — the
    golden round-trip CI and tests rely on.  "Strict" means every
    exposition-format invariant this registry promises is *asserted*, not
    assumed:

    * every sample is preceded by a ``# TYPE`` declaration;
    * label-free samples carry no ``{}`` (bare names only);
    * histogram ``le`` edges strictly increase and bucket counts are
      cumulative (non-decreasing);
    * the ``+Inf`` bucket exists and equals ``_count``;
    * ``_sum``/``_count`` follow the buckets, nothing is missing or
      duplicated, and the page ends in exactly one newline.
    """
    if not text.endswith("\n") or text.endswith("\n\n"):
        raise ObservabilityError("exposition page must end in exactly one newline")
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    declared: dict[str, str] = {}
    pending: dict | None = None  # histogram being accumulated

    def finish_histogram() -> None:
        nonlocal pending
        if pending is None:
            return
        name = pending["name"]
        if pending["inf"] is None:
            raise ObservabilityError(f"histogram {name!r} is missing the +Inf bucket")
        if pending["sum"] is None or pending["count"] is None:
            raise ObservabilityError(f"histogram {name!r} is missing _sum or _count")
        if pending["inf"] != pending["count"]:
            raise ObservabilityError(
                f"histogram {name!r} +Inf bucket {pending['inf']} != "
                f"_count {pending['count']}"
            )
        edges = pending["edges"]
        cumulative = pending["cumulative"]
        if any(b >= a for b, a in zip(edges, edges[1:], strict=False)):
            raise ObservabilityError(
                f"histogram {name!r} le edges must strictly increase: {edges}"
            )
        if any(b > a for b, a in zip(cumulative, cumulative[1:], strict=False)):
            raise ObservabilityError(
                f"histogram {name!r} bucket counts must be cumulative: {cumulative}"
            )
        if cumulative and pending["inf"] < cumulative[-1]:
            raise ObservabilityError(
                f"histogram {name!r} +Inf bucket {pending['inf']} below "
                f"last finite bucket {cumulative[-1]}"
            )
        # De-cumulate back to per-cell counts (finite cells + overflow).
        counts = [
            b - a for a, b in zip([0, *cumulative], [*cumulative, pending["inf"]], strict=True)
        ]
        histograms[name] = {
            "buckets": list(edges),
            "counts": counts,
            "sum": pending["sum"],
        }
        pending = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if not line:
            raise ObservabilityError(f"{where}: blank line in exposition page")
        if line.startswith("#"):
            parts = line.split(" ")
            if len(parts) != 4 or parts[0] != "#" or parts[1] != "TYPE":
                raise ObservabilityError(f"{where}: malformed comment {line!r}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram"):
                raise ObservabilityError(f"{where}: unknown metric type {kind!r}")
            if name in declared:
                raise ObservabilityError(f"{where}: duplicate TYPE for {name!r}")
            finish_histogram()
            declared[name] = kind
            if kind == "histogram":
                pending = {
                    "name": name,
                    "edges": [],
                    "cumulative": [],
                    "inf": None,
                    "sum": None,
                    "count": None,
                }
            continue
        match = _SAMPLE_PATTERN.match(line)
        if match is None:
            raise ObservabilityError(f"{where}: malformed sample {line!r}")
        name, le, value_token = match.group("name", "le", "value")
        value = _parse_value(value_token, where)
        if pending is not None and name.startswith(pending["name"] + "_"):
            base = pending["name"]
            suffix = name[len(base):]
            if suffix == "_bucket":
                if le is None:
                    raise ObservabilityError(f"{where}: bucket sample without le label")
                if le == "+Inf":
                    pending["inf"] = int(value)
                elif pending["inf"] is not None:
                    raise ObservabilityError(f"{where}: finite bucket after +Inf")
                else:
                    pending["edges"].append(_parse_value(le, where))
                    pending["cumulative"].append(int(value))
                continue
            if suffix in ("_sum", "_count") and le is None:
                key = suffix[1:]
                if pending[key] is not None:
                    raise ObservabilityError(f"{where}: duplicate {name!r}")
                pending[key] = int(value) if key == "count" else value
                continue
            raise ObservabilityError(f"{where}: unexpected histogram sample {name!r}")
        if le is not None:
            raise ObservabilityError(
                f"{where}: labelled sample {name!r} outside a histogram"
            )
        kind = declared.get(name)
        if kind is None:
            raise ObservabilityError(f"{where}: sample {name!r} has no TYPE declaration")
        if kind == "histogram":
            raise ObservabilityError(f"{where}: bare sample for histogram {name!r}")
        target = counters if kind == "counter" else gauges
        if name in target:
            raise ObservabilityError(f"{where}: duplicate sample for {name!r}")
        target[name] = value
    finish_histogram()
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
