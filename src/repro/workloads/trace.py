"""Access-trace recording and replay.

Two uses:

* **Epoch traces** capture a workload's per-epoch page-access counts so an
  experiment can be re-run bit-identically against a different policy
  (paired comparisons: Thermostat vs kstaled on the *same* access stream)
  or saved to disk and shared.
* **Reference traces** capture individual :class:`~repro.mem.access.MemoryAccess`
  streams for the mechanism engine.

The on-disk format is ``.npz`` (compressed numpy), one array per epoch,
plus a small JSON header — no external dependencies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import WorkloadError
from repro.sim.profile import EpochProfile
from repro.workloads.base import Workload

#: Format version written into trace headers.
TRACE_FORMAT_VERSION = 1


@dataclass
class EpochTrace:
    """A recorded sequence of epoch profiles."""

    workload_name: str
    epoch: float
    profiles: list[EpochProfile] = field(default_factory=list)

    def append(self, profile: EpochProfile) -> None:
        """Record one epoch (durations must match the trace's epoch)."""
        if abs(profile.duration - self.epoch) > 1e-9:
            raise WorkloadError(
                f"profile duration {profile.duration} != trace epoch {self.epoch}"
            )
        self.profiles.append(profile)

    def __len__(self) -> int:
        return len(self.profiles)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace to a ``.npz`` file."""
        path = Path(path)
        header = {
            "version": TRACE_FORMAT_VERSION,
            "workload": self.workload_name,
            "epoch": self.epoch,
            "num_epochs": len(self.profiles),
            "start_times": [p.start_time for p in self.profiles],
            "write_fractions": [p.write_fraction for p in self.profiles],
        }
        arrays = {
            f"epoch_{i:05d}": profile.counts
            for i, profile in enumerate(self.profiles)
        }
        np.savez_compressed(path, header=json.dumps(header), **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "EpochTrace":
        """Read a trace written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if header.get("version") != TRACE_FORMAT_VERSION:
                raise WorkloadError(
                    f"unsupported trace version {header.get('version')!r}"
                )
            trace = cls(workload_name=header["workload"], epoch=float(header["epoch"]))
            for i in range(int(header["num_epochs"])):
                trace.profiles.append(
                    EpochProfile(
                        start_time=float(header["start_times"][i]),
                        duration=trace.epoch,
                        counts=np.asarray(data[f"epoch_{i:05d}"], dtype=np.int64),
                        write_fraction=float(header["write_fractions"][i]),
                    )
                )
        return trace


def record_trace(
    workload: Workload,
    num_epochs: int,
    epoch: float,
    rng: np.random.Generator,
    stochastic: bool = True,
    start_time: float = 0.0,
) -> EpochTrace:
    """Run a workload forward and capture its profiles."""
    if num_epochs <= 0:
        raise WorkloadError(f"num_epochs must be positive: {num_epochs}")
    trace = EpochTrace(workload_name=workload.name, epoch=epoch)
    time = start_time
    for _ in range(num_epochs):
        trace.append(workload.epoch_profile(time, epoch, rng, stochastic=stochastic))
        time += epoch
    return trace


class TraceWorkload(Workload):
    """Replays a recorded :class:`EpochTrace` as a workload.

    Profiles are replayed in order regardless of the requested epoch start
    times; the trace must be long enough for the simulation that consumes
    it.  Growth recorded in the trace (longer count arrays) is reproduced.
    """

    def __init__(self, trace: EpochTrace) -> None:
        if not trace.profiles:
            raise WorkloadError("cannot replay an empty trace")
        final = trace.profiles[-1]
        super().__init__(
            name=f"trace:{trace.workload_name}",
            resident_bytes=final.num_base_pages * 4096,
        )
        self.trace = trace
        self._cursor = 0

    @property
    def total_base_pages(self) -> int:
        return self.trace.profiles[-1].num_base_pages

    def num_huge_pages_at(self, time: float) -> int:
        index = min(self._cursor, len(self.trace.profiles) - 1)
        return self.trace.profiles[index].num_huge_pages

    def rates_at(self, time: float) -> np.ndarray:
        """Average rates of the next profile (provided for introspection)."""
        index = min(self._cursor, len(self.trace.profiles) - 1)
        profile = self.trace.profiles[index]
        return profile.counts / profile.duration

    def epoch_profile(
        self,
        start_time: float,
        duration: float,
        rng: np.random.Generator,
        stochastic: bool = True,
        resolve: np.ndarray | None = None,
    ) -> EpochProfile:
        """The next recorded profile (recorded profiles resolve every page)."""
        if self._cursor >= len(self.trace.profiles):
            raise WorkloadError(
                f"trace exhausted after {len(self.trace.profiles)} epochs"
            )
        if abs(duration - self.trace.epoch) > 1e-9:
            raise WorkloadError(
                f"replay epoch {duration} != recorded epoch {self.trace.epoch}"
            )
        profile = self.trace.profiles[self._cursor]
        self._cursor += 1
        return profile

    def rewind(self) -> None:
        """Restart replay from the first epoch."""
        self._cursor = 0
