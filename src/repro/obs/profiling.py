"""Phase profiling: where does simulation wall-clock actually go?

The observability layer's third pillar.  The engine and policy wrap each
stage of an epoch — ``profile`` (footprint growth + workload profile),
``charge`` (slow-memory stall accounting), ``sample``
(splitting/poisoning), ``classify``, ``migrate``, ``correct``,
``bookkeeping``, plus ``faults``/``audit`` when enabled — in
:meth:`PhaseProfiler.phase` spans.  The profiler accumulates wall-clock
totals and call counts per phase; :func:`render_profile_table` rolls
them up into the runner's ``--self-profile`` table, the first honest
answer to "what should a perf PR attack next".

Profiling is strictly observational: it reads :func:`time.perf_counter`
and nothing else, so a profiled run's *simulated* outputs are
bit-identical to an unprofiled run's.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterable, Mapping


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per named phase."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        """Time one stage; nests safely (each span charges its own phase)."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured time in (merging worker rollups)."""
        self.totals[name] = self.totals.get(name, 0.0) + float(seconds)
        self.calls[name] = self.calls.get(name, 0) + int(calls)

    def rollup(self) -> list[dict]:
        """Per-phase rows, costliest first (ties broken by name)."""
        grand_total = sum(self.totals.values())
        rows = []
        for name in sorted(self.totals, key=lambda n: (-self.totals[n], n)):
            total = self.totals[name]
            calls = self.calls[name]
            rows.append(
                {
                    "phase": name,
                    "calls": calls,
                    "total_seconds": total,
                    "mean_ms": (total / calls * 1e3) if calls else 0.0,
                    "share": (total / grand_total) if grand_total > 0 else 0.0,
                }
            )
        return rows


def merge_rollups(rollups: Iterable[Iterable[Mapping]]) -> list[dict]:
    """Combine per-run rollups (worker artifacts) into one table's rows."""
    merged = PhaseProfiler()
    for rows in rollups:
        for row in rows:
            merged.add(row["phase"], row["total_seconds"], row["calls"])
    return merged.rollup()


def render_profile_table(rows: Iterable[Mapping], title: str = "self-profile") -> str:
    """The ``--self-profile`` table: phase, calls, total, mean, share."""
    rows = list(rows)
    header = f"[{title}]"
    if not rows:
        return f"{header}\n(no phases recorded)"
    columns = ["phase", "calls", "total_s", "mean_ms", "share"]
    cells = [
        [
            str(row["phase"]),
            str(row["calls"]),
            f"{row['total_seconds']:.3f}",
            f"{row['mean_ms']:.3f}",
            f"{row['share'] * 100:.1f}%",
        ]
        for row in rows
    ]
    widths = [
        max(len(columns[i]), max(len(line[i]) for line in cells))
        for i in range(len(columns))
    ]
    lines = [header]
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)))
    for line in cells:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(line)
            )
        )
    return "\n".join(lines)
