"""One fleet tenant: a workload + Thermostat instance stepped by the fleet.

A tenant wraps an :class:`~repro.sim.engine.EpochSimulation` (built from a
named workload and a :class:`~repro.core.thermostat.ThermostatPolicy`) plus
the host-side accounting the arbiter needs: its DRAM grant, its SLO
bookkeeping (violation streaks and episodes), and its position on the
graceful-degradation ladder.  Chaos interference and arbiter throttling
reach the tenant through the engine's ``profile_filter`` hook — they scale
the epoch's ground-truth access counts without consuming any RNG, so a
chaos-free replay of the same seed is bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.config import SimulationConfig, ThermostatConfig
from repro.core.thermostat import ThermostatPolicy
from repro.errors import ConfigError
from repro.mem.numa import FAST_NODE
from repro.obs import NULL_OBSERVER
from repro.sim.engine import EpochSimulation, SimulationResult
from repro.sim.profile import EpochProfile
from repro.units import HUGE_PAGE_SIZE
from repro.workloads.registry import WORKLOAD_NAMES, make_workload


#: Guaranteed fast-memory floor, as a fraction of the footprint.  The
#: arbiter never reclaims below it (short of quarantine) and refuses
#: admission when it cannot cover it.
FLOOR_FRACTION = 0.25


def quantize_up(nbytes: int) -> int:
    """Round a byte count up to a whole number of huge pages."""
    return -(-int(nbytes) // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE


def quantize_down(nbytes: int) -> int:
    """Round a byte count down to a whole number of huge pages."""
    return (int(nbytes) // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE


class LadderLevel(enum.IntEnum):
    """Graceful-degradation ladder; the arbiter escalates one rung at a time."""

    HEALTHY = 0
    #: Offered load scaled down (admission-control style backpressure).
    THROTTLED = 1
    #: DRAM grant shrunk to the floor; the tenant runs mostly from slow memory.
    SHRUNK = 2
    #: Evicted from the DRAM ledger entirely; the engine is finished early.
    #: Terminal — quarantine never de-escalates.
    QUARANTINED = 3


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant (constructable before the run)."""

    name: str
    workload: str
    scale: float = 0.05
    #: The tenant's contract: mean epoch slowdown above this is a violation.
    slo_slowdown: float = 0.05
    #: Relative priority; lower-weight tenants are quarantined first when
    #: the host itself cannot cover the sum of floors.
    weight: float = 1.0
    seed: int = 1
    #: Fleet time at which the tenant arrives (churn).
    arrival_time: float = 0.0
    #: Fleet time at which the tenant departs (``None`` = stays).
    departure_time: float | None = None
    #: Thermostat's internal target; defaults to the SLO itself.
    tolerable_slowdown: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.workload not in WORKLOAD_NAMES:
            raise ConfigError(
                f"tenant {self.name!r}: unknown workload {self.workload!r} "
                f"(choose from {', '.join(WORKLOAD_NAMES)})"
            )
        if self.scale <= 0:
            raise ConfigError(f"tenant {self.name!r}: scale must be positive")
        if not 0.0 < self.slo_slowdown < 1.0:
            raise ConfigError(
                f"tenant {self.name!r}: slo_slowdown must be in (0, 1): "
                f"{self.slo_slowdown}"
            )
        if self.weight <= 0:
            raise ConfigError(f"tenant {self.name!r}: weight must be positive")
        if self.arrival_time < 0:
            raise ConfigError(
                f"tenant {self.name!r}: arrival_time must be >= 0"
            )
        if (
            self.departure_time is not None
            and self.departure_time <= self.arrival_time
        ):
            raise ConfigError(
                f"tenant {self.name!r}: departure_time {self.departure_time} "
                f"must come after arrival_time {self.arrival_time}"
            )


class Tenant:
    """Runtime state of one admitted (or arriving) tenant."""

    def __init__(self, spec: TenantSpec, fleet_config, observer=None) -> None:
        self.spec = spec
        self.observer = observer if observer is not None else NULL_OBSERVER
        target = (
            spec.tolerable_slowdown
            if spec.tolerable_slowdown is not None
            else spec.slo_slowdown
        )
        self.policy = ThermostatPolicy(ThermostatConfig(tolerable_slowdown=target))
        workload = make_workload(spec.workload, scale=spec.scale)
        self.engine = EpochSimulation(
            workload,
            self.policy,
            SimulationConfig(
                duration=fleet_config.duration,
                epoch=fleet_config.epoch,
                seed=spec.seed,
            ),
            observer=self.observer,
        )
        self.engine.profile_filter = self._filter_profile
        #: Saved for restoring after a latency-spike chaos window.
        self.base_slow_latency = self.engine.topology.slow.tier.spec.access_latency

        # Host-side ledger state (owned by the arbiter).
        self.grant_bytes = 0
        self.admitted = False
        self.departed = False
        self.level = LadderLevel.HEALTHY

        # Chaos / ladder load shaping (multiplies ground-truth access counts).
        self.interference_factor = 1.0
        self.throttle_factor = 1.0

        # SLO bookkeeping.  ``slo_slowdown`` is runtime-mutable so chaos
        # (contract renegotiation) can tighten it mid-run.
        self.slo_slowdown = spec.slo_slowdown
        self.last_slowdown = 0.0
        self.violation_streak = 0
        self.clean_streak = 0
        self.starved_streak = 0
        self.violation_epochs = 0
        self.violation_episodes = 0
        self.active_epochs = 0
        #: Per-epoch (fleet_time, violated) pairs for recovery-time analysis.
        self.violation_timeline: list[tuple[float, bool]] = []

        self.result: SimulationResult | None = None

    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """Steady-state footprint, huge-page quantized (grant arithmetic unit)."""
        return quantize_up(self.engine.workload.footprint_bytes)

    @property
    def floor_bytes(self) -> int:
        """Guaranteed minimum DRAM grant while admitted."""
        return quantize_up(FLOOR_FRACTION * self.footprint_bytes)

    @property
    def fast_usage_bytes(self) -> int:
        """Bytes of the footprint currently resident in fast memory."""
        return self.engine.state.occupancy_bytes()[FAST_NODE]

    @property
    def active(self) -> bool:
        """Stepping this epoch (admitted, not quarantined, not departed)."""
        return (
            self.admitted
            and not self.departed
            and self.level is not LadderLevel.QUARANTINED
        )

    # ------------------------------------------------------------------

    def _filter_profile(
        self, profile: EpochProfile, epoch_index: int
    ) -> EpochProfile:
        factor = self.interference_factor * self.throttle_factor
        if factor == 1.0:
            return profile
        return profile.scaled(factor)

    def start(self, injector=None) -> None:
        """Begin stepping (called at admission)."""
        self.engine.start(injector=injector)

    def step(self, fleet_time: float) -> bool:
        """Run one epoch; returns whether the epoch violated the SLO."""
        self.engine.step()
        self.active_epochs += 1
        self.last_slowdown = (
            self.engine.stats.timeseries("slowdown").last().value
        )
        violated = self.last_slowdown > self.slo_slowdown
        if violated:
            if self.violation_streak == 0:
                self.violation_episodes += 1
            self.violation_streak += 1
            self.clean_streak = 0
            self.violation_epochs += 1
        else:
            self.violation_streak = 0
            self.clean_streak += 1
        self.violation_timeline.append((fleet_time, violated))
        return violated

    def finish(self) -> SimulationResult:
        """Finalize the engine (departure, quarantine, or end of run)."""
        if self.result is None:
            self.result = self.engine.finish()
        return self.result

    @property
    def slo_attainment(self) -> float:
        """Fraction of active epochs that met the SLO (1.0 when never active)."""
        if self.active_epochs == 0:
            return 1.0
        return 1.0 - self.violation_epochs / self.active_epochs
