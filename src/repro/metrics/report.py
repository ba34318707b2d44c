"""Plain-text table and series rendering for experiment output.

Every experiment prints "the same rows the paper reports"; these helpers
give those printouts one consistent, dependency-free format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sim.stats import TimeSeries


@dataclass
class Table:
    """A titled table with named columns and string-able cells."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one row; must match the column count."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"table {self.title!r}: row has {len(cells)} cells for "
                f"{len(self.columns)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Render as aligned monospace text."""
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths, strict=True))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))
        return "\n".join(lines)


def format_table(title: str, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """One-shot table rendering."""
    table = Table(title, columns)
    for row in rows:
        table.add_row(*row)
    return table.render()


def format_figure_series(
    title: str,
    series: dict[str, TimeSeries],
    max_points: int = 12,
) -> str:
    """Render one or more time series as a compact text figure.

    Series are down-sampled to at most ``max_points`` evenly spaced points
    so a figure fits in a terminal; full data stays available on the
    ``TimeSeries`` objects.
    """
    lines = [title, "=" * len(title)]
    for name, ts in series.items():
        values = ts.values
        times = ts.times
        if len(values) == 0:
            lines.append(f"{name}: (empty)")
            continue
        if len(values) > max_points:
            step = max(1, len(values) // max_points)
            values = values[::step]
            times = times[::step]
        points = " ".join(f"{t:.0f}s:{v:.3g}" for t, v in zip(times, values, strict=True))
        lines.append(f"{name}: {points}")
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline of a value sequence (for quick terminal plots)."""
    blocks = "▁▂▃▄▅▆▇█"
    values = list(values)
    if not values:
        return ""
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(blocks[int((v - low) / span * (len(blocks) - 1))] for v in values)
