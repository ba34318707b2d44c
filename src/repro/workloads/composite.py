"""Composite workloads: several tenants under one Thermostat instance.

The paper's deployment story is multi-tenant ("can be deployed seamlessly
in multi-tenant host systems"; all processes in one cgroup share
Thermostat parameters).  :class:`CompositeWorkload` concatenates member
workloads' footprints into one address space so a single policy — and a
single slowdown budget — manages them together, which is exactly what a
host-side Thermostat sees.

The per-member page ranges are exposed so experiments can report how the
shared budget gets divided among tenants.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.sim.profile import EpochProfile
from repro.units import SUBPAGES_PER_HUGE_PAGE
from repro.workloads.base import Workload


class CompositeWorkload(Workload):
    """Concatenation of member workloads into one managed footprint.

    Members must have static footprints (growth would shift later members'
    page numbers, which no real address space does).
    """

    def __init__(self, name: str, members: list[Workload]) -> None:
        if not members:
            raise WorkloadError(f"{name}: composite needs at least one member")
        for member in members:
            if member.num_huge_pages_at(0.0) != member.num_huge_pages_at(1e12):
                raise WorkloadError(
                    f"{name}: member {member.name!r} has a growing footprint; "
                    "composites require static members"
                )
        super().__init__(
            name,
            resident_bytes=sum(m.resident_bytes for m in members),
            file_mapped_bytes=sum(m.file_mapped_bytes for m in members),
            baseline_ops_per_second=sum(
                m.baseline_ops_per_second for m in members
            ),
            write_fraction=float(
                np.mean([m.write_fraction for m in members])
            ),
        )
        self.members = list(members)
        self._offsets: list[tuple[int, int]] = []
        cursor = 0
        for member in members:
            pages = member.total_huge_pages
            self._offsets.append((cursor, cursor + pages))
            cursor += pages
        self._total_huge = cursor

    # ------------------------------------------------------------------

    @property
    def total_base_pages(self) -> int:
        return self._total_huge * SUBPAGES_PER_HUGE_PAGE

    def member_range(self, index: int) -> tuple[int, int]:
        """Huge-page id range ``[start, end)`` of member ``index``."""
        if not 0 <= index < len(self.members):
            raise WorkloadError(f"{self.name}: no member {index}")
        return self._offsets[index]

    def rates_at(self, time: float) -> np.ndarray:
        return np.concatenate([m.rates_at(time) for m in self.members])

    def huge_page_duty(self, rates: np.ndarray) -> np.ndarray | None:
        """Per-member duty models, stitched together.

        Members with duty cycling disabled contribute all-ones segments;
        if no member uses duty cycling, the composite disables it too.
        """
        if all(m.duty_threshold is None for m in self.members):
            return None
        segments = []
        cursor = 0
        for member in self.members:
            pages = member.total_huge_pages
            member_rates = rates[
                cursor * SUBPAGES_PER_HUGE_PAGE : (cursor + pages)
                * SUBPAGES_PER_HUGE_PAGE
            ]
            duty = member.huge_page_duty(member_rates)
            if duty is None:
                duty = np.ones(pages)
            segments.append(duty)
            cursor += pages
        return np.concatenate(segments)

    def epoch_profile(
        self, start_time, duration, rng, stochastic=True, resolve=None
    ):
        """Concatenate member profiles (preserving member duty/burst state)."""
        if resolve is not None:
            resolve = np.asarray(resolve, dtype=np.int64)
        profiles, resolved, rows = [], [], []
        for member, (start, end) in zip(self.members, self._offsets, strict=True):
            ids = None
            if resolve is not None:
                ids = resolve[(resolve >= start) & (resolve < end)] - start
            profile = member.epoch_profile(
                start_time, duration, rng, stochastic=stochastic, resolve=ids
            )
            profiles.append(profile)
            if ids is not None:
                resolved.append(ids + start)
                rows.append(profile.subpage_rows(ids))
        if resolve is None:
            return EpochProfile(
                start_time,
                duration,
                np.concatenate([p.counts for p in profiles]),
                self.write_fraction,
            )
        return EpochProfile.sampled(
            start_time,
            duration,
            np.concatenate([p.huge_counts() for p in profiles]),
            np.concatenate(resolved),
            np.concatenate(rows),
            self.write_fraction,
        )

    def member_cold_fractions(self, slow_mask: np.ndarray) -> dict[str, float]:
        """Per-tenant cold fraction from a final placement mask."""
        fractions = {}
        for member, (start, end) in zip(self.members, self._offsets, strict=True):
            span = slow_mask[start:end]
            fractions[member.name] = float(span.mean()) if span.size else 0.0
        return fractions
