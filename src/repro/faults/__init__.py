"""Deterministic fault injection for the tiered-memory pipeline.

See :mod:`repro.faults.injector` for the per-run facade and
:mod:`repro.faults.models` for the individual adversity classes.  Enable
via :class:`repro.config.FaultConfig`; the default injects nothing.
The online placement service has its own adversity classes behind
:class:`repro.faults.service.ServiceFaultInjector`.
"""

from repro.faults.injector import EpochFaultEvents, FaultInjector
from repro.faults.models import (
    CapacityFaultModel,
    ClockStallFaultModel,
    CorruptEventFaultModel,
    FaultModel,
    MigrationFaultModel,
    OverheadSpikeModel,
    SampleLossModel,
    SlowConsumerFaultModel,
    WearFaultModel,
)
from repro.faults.service import ServiceFaultInjector

__all__ = [
    "EpochFaultEvents",
    "FaultInjector",
    "FaultModel",
    "MigrationFaultModel",
    "CapacityFaultModel",
    "WearFaultModel",
    "OverheadSpikeModel",
    "SampleLossModel",
    "SlowConsumerFaultModel",
    "CorruptEventFaultModel",
    "ClockStallFaultModel",
    "ServiceFaultInjector",
]
