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
(:mod:`repro.service.traffic`); one built without models injects nothing
and draws nothing.
"""

from __future__ import annotations

import numpy as np

from repro.faults.models import (
    ClockStallFaultModel,
    CorruptEventFaultModel,
    SlowConsumerFaultModel,
)
from repro.obs import NULL_OBSERVER
from repro.rng import child_rng

# The pinned chaos mix (:meth:`ServiceFaultInjector.chaos`): what
# ``python -m repro.service synth --chaos``, ext-service's chaos posture
# and the chaos soak tests inject.

#: Per-tick probability that the consumer opens a stall window.
SLOW_CONSUMER_RATE = 0.05
#: Extra per-item processing latency while stalled, seconds.
SLOW_CONSUMER_STALL_SECONDS = 0.08
#: How many consecutive ticks each stall window lasts.
SLOW_CONSUMER_DURATION_TICKS = 4
#: Per-event probability of in-flight corruption.
CORRUPT_EVENT_RATE = 0.02
#: Per-tick probability that the observed clock freezes.
CLOCK_STALL_RATE = 0.01
#: Seconds the observed clock stands still per stall.
CLOCK_STALL_SECONDS = 0.5


class ServiceFaultInjector:
    """Composes the service-path fault models behind one per-run facade."""

    def __init__(
        self,
        rng: np.random.Generator,
        slow_consumer: SlowConsumerFaultModel | None = None,
        corrupt_event: CorruptEventFaultModel | None = None,
        clock_stall: ClockStallFaultModel | None = None,
    ) -> None:
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
    def chaos(cls, rng: np.random.Generator) -> "ServiceFaultInjector":
        """An injector running the pinned chaos mix, every model on."""
        return cls(
            rng,
            slow_consumer=SlowConsumerFaultModel(
                SLOW_CONSUMER_RATE,
                SLOW_CONSUMER_STALL_SECONDS,
                SLOW_CONSUMER_DURATION_TICKS,
            ),
            corrupt_event=CorruptEventFaultModel(CORRUPT_EVENT_RATE),
            clock_stall=ClockStallFaultModel(CLOCK_STALL_RATE, CLOCK_STALL_SECONDS),
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
