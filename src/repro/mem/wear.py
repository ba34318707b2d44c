"""Device wear modelling for the slow tier (paper Section 6, "Device wear").

Dense slow memories (PCM/3D XPoint-class) endure a bounded number of
writes per cell.  The paper argues Thermostat's write traffic (Table 3)
is far below endurance limits, citing Qureshi et al.'s **Start-Gap**
wear-leveling [MICRO'09] as the standard mitigation.  This module
provides both pieces:

* :class:`WearTracker` — per-line write counters over a region of slow
  memory, with endurance/lifetime summaries;
* :class:`StartGapWearLeveler` — the Start-Gap algebraic remapping: one
  spare line ("gap") rotates through the physical space, shifting the
  logical-to-physical mapping by one line per full rotation, so hot
  logical lines smear their writes across the device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Endurance (writes/cell) typical of PCM-class memory.
DEFAULT_ENDURANCE = 1e8


class WearTracker:
    """Write counters over ``num_lines`` physical lines."""

    def __init__(self, num_lines: int) -> None:
        if num_lines <= 0:
            raise ConfigError(f"num_lines must be positive: {num_lines}")
        self.num_lines = num_lines
        self.writes = np.zeros(num_lines, dtype=np.int64)

    def grow(self, new_num_lines: int) -> None:
        """Extend the tracked region; new lines start with zero wear.

        Used by the epoch engine's fault layer, which tracks one line per
        huge-page region of a footprint that may grow mid-run.
        """
        if new_num_lines < self.num_lines:
            raise ConfigError(
                f"tracked region cannot shrink: {self.num_lines} -> "
                f"{new_num_lines}"
            )
        if new_num_lines == self.num_lines:
            return
        added = new_num_lines - self.num_lines
        self.writes = np.concatenate([self.writes, np.zeros(added, dtype=np.int64)])
        self.num_lines = new_num_lines

    def record(self, physical_line: int, count: int = 1) -> None:
        """Account ``count`` writes to one physical line."""
        if not 0 <= physical_line < self.num_lines:
            raise ConfigError(
                f"line {physical_line} out of range [0, {self.num_lines})"
            )
        if count < 0:
            raise ConfigError(f"negative write count: {count}")
        self.writes[physical_line] += count

    @property
    def total_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def max_writes(self) -> int:
        return int(self.writes.max())

    def mean_writes(self) -> float:
        return float(self.writes.mean())

    def endurance_ratio(self) -> float:
        """mean/max write ratio — 1.0 is perfect leveling, ->0 is hotspotting."""
        peak = self.max_writes
        return self.mean_writes() / peak if peak else 1.0

    def lifetime_seconds(
        self, write_rate: float, endurance: float = DEFAULT_ENDURANCE
    ) -> float:
        """Device lifetime under the observed wear *pattern*.

        The device dies when its most-written line reaches ``endurance``;
        with ``write_rate`` total writes/sec distributed like the observed
        histogram, that happens after
        ``endurance / (write_rate * max_share)`` seconds.
        """
        if write_rate <= 0:
            raise ConfigError(f"write_rate must be positive: {write_rate}")
        if endurance <= 0:
            raise ConfigError(f"endurance must be positive: {endurance}")
        total = self.total_writes
        if total == 0:
            return float("inf")
        max_share = self.max_writes / total
        return endurance / (write_rate * max_share)


@dataclass
class StartGapWearLeveler:
    """Qureshi et al.'s Start-Gap remapping over ``num_lines`` lines.

    One spare physical line (the *gap*) sits at position ``gap`` in a
    space of ``num_lines + 1`` slots.  Every ``gap_interval`` writes, the
    line just before the gap moves into it and the gap steps down one
    slot; when the gap reaches slot 0 it wraps to the top and ``start``
    advances, shifting the whole logical-to-physical mapping by one.
    Addresses are remapped algebraically — no table.
    """

    num_lines: int
    gap_interval: int = 100

    def __post_init__(self) -> None:
        if self.num_lines <= 0:
            raise ConfigError(f"num_lines must be positive: {self.num_lines}")
        if self.gap_interval <= 0:
            raise ConfigError(f"gap_interval must be positive: {self.gap_interval}")
        self.start = 0
        self.gap = self.num_lines  # gap starts in the spare (top) slot
        self._writes_since_move = 0

    def physical_of(self, logical_line: int) -> int:
        """Translate a logical line to its current physical slot."""
        if not 0 <= logical_line < self.num_lines:
            raise ConfigError(
                f"logical line {logical_line} out of range [0, {self.num_lines})"
            )
        physical = (logical_line + self.start) % self.num_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def on_write(self, logical_line: int) -> int:
        """Account one write; returns the physical slot written.

        Advances the gap per the Start-Gap schedule.
        """
        physical = self.physical_of(logical_line)
        self._writes_since_move += 1
        if self._writes_since_move >= self.gap_interval:
            self._writes_since_move = 0
            self._move_gap()
        return physical

    def _move_gap(self) -> None:
        if self.gap == 0:
            self.gap = self.num_lines
            self.start = (self.start + 1) % self.num_lines
        else:
            self.gap -= 1


def simulate_wear(
    logical_write_rates: np.ndarray,
    duration: float,
    rng: np.random.Generator,
    leveler: StartGapWearLeveler | None = None,
    step: float = 1.0,
) -> WearTracker:
    """Drive a write-rate distribution through (optional) Start-Gap.

    ``logical_write_rates[i]`` is line ``i``'s writes/sec.  Without a
    leveler, logical lines map 1:1 to physical lines and hot lines wear
    out; with Start-Gap the mapping rotates as writes accumulate.

    ``step`` controls the time granularity of the batched simulation.
    """
    rates = np.asarray(logical_write_rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise ConfigError("logical_write_rates must be a non-empty 1-D array")
    if duration <= 0 or step <= 0:
        raise ConfigError("duration and step must be positive")
    num_lines = rates.size
    tracker = WearTracker(num_lines + 1 if leveler else num_lines)
    time = 0.0
    while time < duration:
        span = min(step, duration - time)
        counts = rng.poisson(rates * span)
        if leveler is None:
            tracker.writes[: rates.size] += counts
        else:
            for line in np.flatnonzero(counts):
                for _ in range(int(counts[line])):
                    tracker.record(leveler.on_write(int(line)))
        time += span
    return tracker
