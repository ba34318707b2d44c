"""Seeded fault injection for the online placement service path.

The offline engine's :class:`~repro.faults.injector.FaultInjector` covers
the *memory* adversity classes (migration failures, capacity exhaustion,
wear).  The service path has its own: consumers that stall, events that
arrive corrupted, clocks that freeze.  :class:`ServiceFaultInjector`
composes those models behind one facade, binding each to its own named
child RNG stream — the same decorrelation contract as the engine-side
injector, so enabling corrupt events never shifts the epochs at which the
consumer stalls, and a seeded soak replays its fault schedule
bit-identically.

The injector is consulted by the synthetic traffic driver
(:mod:`repro.service.traffic`) and the service loop itself; the default
configuration injects nothing and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.faults.models import (
    ClockStallFaultModel,
    CorruptEventFaultModel,
    SlowConsumerFaultModel,
)
from repro.obs import NULL_OBSERVER
from repro.rng import child_rng


@dataclass(frozen=True)
class ServiceFaultConfig:
    """Service-path fault knobs (all off by default)."""

    enabled: bool = False
    #: Per-tick probability that the consumer opens a stall window.
    slow_consumer_rate: float = 0.0
    #: Extra per-item processing latency while stalled, seconds.
    slow_consumer_stall_seconds: float = 0.05
    #: How many consecutive ticks each stall window lasts.
    slow_consumer_duration_ticks: int = 4
    #: Per-event probability of in-flight corruption.
    corrupt_event_rate: float = 0.0
    #: Per-tick probability that the observed clock freezes.
    clock_stall_rate: float = 0.0
    #: Seconds the observed clock stands still per stall.
    clock_stall_seconds: float = 0.5

    def __post_init__(self) -> None:
        for name in ("slow_consumer_rate", "corrupt_event_rate", "clock_stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]: {value}")
        for name in (
            "slow_consumer_stall_seconds",
            "clock_stall_seconds",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0: {getattr(self, name)}")
        if self.slow_consumer_duration_ticks < 1:
            raise ConfigError(
                f"slow_consumer_duration_ticks must be >= 1: "
                f"{self.slow_consumer_duration_ticks}"
            )

    @property
    def any_faults_possible(self) -> bool:
        """True when this configuration can inject at least one fault."""
        return self.enabled and (
            self.slow_consumer_rate > 0
            or self.corrupt_event_rate > 0
            or self.clock_stall_rate > 0
        )


class ServiceFaultInjector:
    """Composes the service-path fault models behind one per-run facade."""

    def __init__(
        self,
        config: ServiceFaultConfig,
        rng: np.random.Generator,
        slow_consumer: SlowConsumerFaultModel | None = None,
        corrupt_event: CorruptEventFaultModel | None = None,
        clock_stall: ClockStallFaultModel | None = None,
    ) -> None:
        self.config = config
        self.slow_consumer = slow_consumer
        self.corrupt_event = corrupt_event
        self.clock_stall = clock_stall
        #: Observability sink (``traffic.drive`` installs the service's); when
        #: active, every fault that actually fires becomes a ``fault``
        #: event.  Strictly observational — emitting draws nothing.
        self.observer = NULL_OBSERVER
        for model in (slow_consumer, corrupt_event, clock_stall):
            if model is not None:
                model.bind(child_rng(rng, f"service-faults:{model.name}"))

    @classmethod
    def from_config(
        cls, config: ServiceFaultConfig, rng: np.random.Generator
    ) -> "ServiceFaultInjector":
        """Build an injector with exactly the models the config activates."""
        slow_consumer = (
            SlowConsumerFaultModel(
                config.slow_consumer_rate,
                config.slow_consumer_stall_seconds,
                config.slow_consumer_duration_ticks,
            )
            if config.slow_consumer_rate > 0
            else None
        )
        corrupt_event = (
            CorruptEventFaultModel(config.corrupt_event_rate)
            if config.corrupt_event_rate > 0
            else None
        )
        clock_stall = (
            ClockStallFaultModel(
                config.clock_stall_rate, config.clock_stall_seconds
            )
            if config.clock_stall_rate > 0
            else None
        )
        return cls(
            config,
            rng,
            slow_consumer=slow_consumer,
            corrupt_event=corrupt_event,
            clock_stall=clock_stall,
        )

    # ------------------------------------------------------------------
    # Hooks consulted by the traffic driver and the service loop
    # ------------------------------------------------------------------

    def consumer_stall_seconds(self, now: float = 0.0) -> float:
        """Extra per-item latency this tick (0.0 = consumer healthy)."""
        if self.slow_consumer is None:
            return 0.0
        stall = self.slow_consumer.stall_this_tick()
        if stall and self.observer.active:
            self.observer.emit(
                "fault", self.slow_consumer.name, now, duration=stall
            )
        return stall

    def maybe_corrupt(self, payload: str, now: float = 0.0) -> tuple[str, bool]:
        """(possibly mangled payload, whether corruption struck)."""
        if self.corrupt_event is None or not self.corrupt_event.should_corrupt():
            return payload, False
        if self.observer.active:
            self.observer.emit("fault", self.corrupt_event.name, now)
        return self.corrupt_event.corrupt_payload(payload), True

    def clock_stall_seconds(self, now: float = 0.0) -> float:
        """Seconds the observed clock freezes at this tick (0.0 = none)."""
        if self.clock_stall is None:
            return 0.0
        stall = self.clock_stall.stall_this_tick()
        if stall and self.observer.active:
            self.observer.emit(
                "fault", self.clock_stall.name, now, duration=stall
            )
        return stall
