"""Exception hierarchy for the Thermostat reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch simulator faults without also swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class ConfigWarning(UserWarning):
    """A configuration is legal but probably not what the caller meant.

    Emitted (never raised) for lossy-but-valid setups, e.g. a simulation
    duration that is not a whole number of epochs — the tail past the last
    whole epoch is silently not simulated.
    """


class AddressError(ReproError):
    """An address or page number is malformed or out of bounds."""


class MappingError(ReproError):
    """A virtual-memory mapping operation is invalid.

    Raised for double-maps, unmapping a hole, splitting a non-huge mapping,
    or collapsing pages that are not uniformly mapped.
    """


class MigrationError(ReproError):
    """A page migration could not be performed (e.g. tier out of capacity)."""


class RetryExhaustedError(MigrationError):
    """A retryable operation kept failing past its retry budget.

    Subclasses :class:`MigrationError` because today the only retryable
    operation is a page migration; callers that already handle migration
    failures keep working, while the epoch path catches this specifically
    to defer the pages instead of crashing.
    """


class FaultInjectionError(ReproError):
    """The fault-injection layer was configured or driven incorrectly."""


class CapacityError(ReproError):
    """A memory tier or zone ran out of frames."""


class WorkloadError(ReproError):
    """A workload generator was configured or driven incorrectly."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class InvariantViolation(SimulationError):
    """A runtime self-check on the engine's state failed.

    Raised by :class:`~repro.sim.invariants.InvariantAuditor` when an
    epoch boundary breaks conservation (tier bytes, page counts),
    monotonicity (clock, counters), or accounting consistency (migration
    records vs counters, fault bookkeeping).  A violation means the run's
    output cannot be trusted, which is why supervised retries audit
    always-on and quarantine violating runs instead of caching them.
    """


class ObservabilityError(ReproError):
    """The observability layer was configured or driven incorrectly.

    Raised for metric names that break the ``repro_<subsystem>_<name>``
    convention, histograms re-registered with different bucket layouts,
    and trace events that fail schema validation.  Never raised on the
    default (observability-off) path.
    """


class ServiceError(ReproError):
    """The online placement service was configured or driven incorrectly."""


class EventValidationError(ServiceError):
    """An ingested event failed schema validation (corrupt or malformed).

    Raised by the service's parse path for truncated lines, non-JSON
    garbage, unknown event kinds, and out-of-range fields.  The service
    counts and rejects these; it never lets them reach the policy engine.
    """


class TaskTimeoutError(ReproError):
    """A supervised task exceeded its per-task wall-clock budget.

    Raised inside the worker by the SIGALRM handler when the budget
    elapses, or recorded by the parent when a worker hangs so hard the
    alarm never fires and the process pool has to be rebuilt.
    """


class QuarantinedTaskError(ReproError):
    """One or more supervised tasks failed every attempt.

    Raised after the rest of the batch has completed and the quarantine
    file has been written, so a caller that catches it still has every
    healthy result checkpointed in the store.
    """
