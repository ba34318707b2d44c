"""Top-level configuration dataclasses.

:class:`ThermostatConfig` collects the knobs of the paper's Section 3; the
values of the evaluation (Section 5) are the defaults: 3% tolerable
slowdown, 1us slow memory, 5% huge-page sampling, at most 50 poisoned 4KB
pages per sampled huge page.  The 30s scan interval is the engine epoch
(:attr:`SimulationConfig.epoch`).

:class:`SimulationConfig` collects engine-level knobs (duration, epoch,
seed) shared by experiments and tests.

:class:`FaultConfig` parameterizes the fault-injection layer
(:mod:`repro.faults`).  The default injects nothing, so experiment outputs
with and without the layer are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from repro.errors import ConfigError, ConfigWarning
from repro.units import SLOW_MEMORY_LATENCY


@dataclass(frozen=True)
class ThermostatConfig:
    """Tunables of the Thermostat policy (cgroup-settable in the paper).

    The *only* externally required input in the paper is
    ``tolerable_slowdown``; everything else has sane defaults.
    """

    #: Maximum tolerable slowdown as a fraction (0.03 = 3%).
    tolerable_slowdown: float = 0.03
    #: Assumed slow-memory access latency t_s, seconds (policy input).
    slow_memory_latency: float = SLOW_MEMORY_LATENCY
    #: Fraction of huge pages sampled (split) per scan interval.
    sample_fraction: float = 0.05
    #: Maximum number of 4KB pages poisoned within one sampled huge page.
    max_poisoned_subpages: int = 50
    #: Enable the Section 3.5 mis-classification correction mechanism.
    enable_correction: bool = True
    #: Enable the Accessed-bit prefilter before poisoning (Section 3.2);
    #: disabling it falls back to naive random-K selection (ablation).
    enable_accessed_prefilter: bool = True
    #: Cap on new demotions per scan interval, as a fraction of all huge
    #: pages.  Linux's migration machinery is rate-limited in practice; the
    #: cap also bounds the damage of a burst of mis-classifications before
    #: the correction mechanism can react.
    max_demotion_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerable_slowdown < 1.0:
            raise ConfigError(
                f"tolerable_slowdown must be in (0, 1): {self.tolerable_slowdown}"
            )
        # Chained comparisons reject NaN and inf as well as non-positives.
        if not 0.0 < self.slow_memory_latency < math.inf:
            raise ConfigError(
                "slow_memory_latency must be finite and positive: "
                f"{self.slow_memory_latency}"
            )
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(
                f"sample_fraction must be in (0, 1]: {self.sample_fraction}"
            )
        if self.max_poisoned_subpages <= 0:
            raise ConfigError(
                f"max_poisoned_subpages must be positive: {self.max_poisoned_subpages}"
            )
        if not 0.0 < self.max_demotion_fraction <= 1.0:
            raise ConfigError(
                f"max_demotion_fraction must be in (0, 1]: "
                f"{self.max_demotion_fraction}"
            )

    @property
    def slow_access_rate_budget(self) -> float:
        """Section 3.4: accesses/sec to slow memory the slowdown target buys.

        A slowdown of x with slow latency t_s allows x / t_s accesses per
        second (the paper's x/(100*t_s) with x already a fraction here).
        With the defaults this is the 30K accesses/sec of Figure 3.
        """
        return self.tolerable_slowdown / self.slow_memory_latency


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs (all off by default).

    Every fault model draws from its own seeded child stream of the
    simulation RNG, so enabling one model never perturbs another and runs
    with the same seed produce identical fault schedules.
    """

    #: Master switch; when False no injector is built and no RNG streams
    #: are consumed (seed runs stay bit-identical).
    enabled: bool = False
    #: Probability that one migration batch attempt transiently fails
    #: (page pinned, target node busy).
    migration_failure_rate: float = 0.0
    #: Retry budget per migration batch before the batch is deferred.
    max_migration_retries: int = 3
    #: Backoff after the first failed attempt, seconds; doubles per retry.
    #: Accounted as monitoring-grade overhead against the epoch.
    retry_backoff_seconds: float = 1e-3
    #: Per-epoch probability that the slow tier stops accepting demotions
    #: (capacity exhaustion / allocation pressure).
    capacity_exhaustion_rate: float = 0.0
    #: How many consecutive epochs each capacity-exhaustion event lasts.
    capacity_exhaustion_epochs: int = 1
    #: Writes per slow huge-page region before its cells are worn enough
    #: to risk uncorrectable errors; 0 disables the wear model.
    ue_endurance_writes: float = 0.0
    #: Per-epoch probability that a worn-out slow page suffers an
    #: uncorrectable error.
    ue_probability: float = 1.0
    #: Machine-check handling + page rescue cost per uncorrectable error,
    #: seconds.
    ue_repair_seconds: float = 2e-3
    #: Per-epoch probability of a monitoring-overhead spike (a BadgerTrap
    #: poison-fault storm).
    overhead_spike_rate: float = 0.0
    #: Extra monitoring overhead per spike, seconds.
    overhead_spike_seconds: float = 0.5
    #: Probability that one huge page's access-bit sample is lost or
    #: arrives too late for the classifier (the page looks idle).
    sample_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "migration_failure_rate",
            "capacity_exhaustion_rate",
            "ue_probability",
            "overhead_spike_rate",
            "sample_loss_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]: {value}")
        if self.migration_failure_rate >= 1.0 and self.enabled:
            raise ConfigError(
                "migration_failure_rate must be < 1 (a certain failure can "
                f"never be retried out): {self.migration_failure_rate}"
            )
        if self.max_migration_retries < 0:
            raise ConfigError(
                f"max_migration_retries must be >= 0: {self.max_migration_retries}"
            )
        if self.retry_backoff_seconds < 0:
            raise ConfigError(
                f"retry_backoff_seconds must be >= 0: {self.retry_backoff_seconds}"
            )
        if self.capacity_exhaustion_epochs < 1:
            raise ConfigError(
                f"capacity_exhaustion_epochs must be >= 1: "
                f"{self.capacity_exhaustion_epochs}"
            )
        if self.ue_endurance_writes < 0:
            raise ConfigError(
                f"ue_endurance_writes must be >= 0: {self.ue_endurance_writes}"
            )
        if self.ue_repair_seconds < 0:
            raise ConfigError(
                f"ue_repair_seconds must be >= 0: {self.ue_repair_seconds}"
            )
        if self.overhead_spike_seconds < 0:
            raise ConfigError(
                f"overhead_spike_seconds must be >= 0: {self.overhead_spike_seconds}"
            )


#: Parent-side slack beyond the scaled worker budget, seconds
#: (:attr:`SupervisorConfig.parent_timeout`).
PARENT_GRACE_SECONDS = 10.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for supervised batch execution (:mod:`repro.experiments.supervisor`).

    The defaults describe a forgiving production posture: three attempts
    per task, no wall-clock limit unless one is given.  Every field only
    affects *scheduling*; simulation outputs are a function of the
    :class:`RunSpec` alone, so a supervised batch is bit-identical to an
    unsupervised one.
    """

    #: Per-task wall-clock budget in real seconds (None = unlimited).  The
    #: worker arms SIGALRM for this budget; the parent additionally
    #: enforces :attr:`parent_timeout` as a backstop for workers hung too
    #: hard to take the signal.
    timeout: float | None = None
    #: Total attempts per task before it is quarantined (1 = no retries).
    max_attempts: int = 3
    #: Seed for the backoff jitter streams (deterministic schedules).
    seed: int = 0
    #: Where to write the machine-readable quarantine report
    #: (``quarantine.json``); None skips writing.
    quarantine_path: str | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive: {self.timeout}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1: {self.max_attempts}")

    @property
    def parent_timeout(self) -> float | None:
        """The parent-side hang deadline for one attempt (None = never)."""
        if self.timeout is None:
            return None
        return self.timeout * 1.5 + PARENT_GRACE_SECONDS


@dataclass(frozen=True)
class SimulationConfig:
    """Engine-level knobs shared by experiments."""

    #: Total simulated duration, seconds.
    duration: float = 1200.0
    #: Epoch length: the Thermostat scan interval, seconds.
    epoch: float = 30.0
    #: RNG seed (None = library default).
    seed: int | None = None
    #: Draw per-epoch access counts from a Poisson around the rate model
    #: (True) or use deterministic expectations (False, for tests).
    stochastic: bool = True
    #: Fault-injection knobs; the default injects nothing.
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive: {self.duration}")
        if self.epoch <= 0 or self.epoch > self.duration:
            raise ConfigError(
                f"epoch must be in (0, duration]: epoch={self.epoch} "
                f"duration={self.duration}"
            )
        tail = self.truncated_tail
        if tail > 1e-6 * self.epoch:
            warnings.warn(
                f"duration={self.duration:g}s is not a whole number of "
                f"{self.epoch:g}s epochs; the final {tail:g}s will not be "
                f"simulated (the run covers {self.num_epochs} epochs = "
                f"{self.num_epochs * self.epoch:g}s)",
                ConfigWarning,
                stacklevel=2,
            )

    @property
    def num_epochs(self) -> int:
        """Number of whole epochs in the configured duration.

        Robust to float rounding: ``0.3 // 0.1 == 2.0`` in IEEE arithmetic,
        but a duration within one part in 10^9 of a whole number of epochs
        counts as whole rather than silently dropping an epoch.
        """
        ratio = self.duration / self.epoch
        whole = math.floor(ratio)
        if ratio - whole > 1.0 - 1e-9:
            whole += 1
        return whole

    @property
    def truncated_tail(self) -> float:
        """Seconds of the configured duration beyond the last whole epoch.

        The engine simulates ``num_epochs * epoch`` seconds; anything past
        that is never run.  Non-zero tails trigger a :class:`ConfigWarning`
        at construction and are surfaced on the run's
        :class:`~repro.sim.engine.SimulationResult`.
        """
        return max(0.0, self.duration - self.num_epochs * self.epoch)
