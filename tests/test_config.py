"""Tests for configuration dataclasses."""

import pytest

from repro.config import FaultConfig, SimulationConfig, ThermostatConfig
from repro.errors import ConfigError


class TestThermostatConfig:
    def test_paper_defaults(self):
        cfg = ThermostatConfig()
        assert cfg.tolerable_slowdown == pytest.approx(0.03)
        assert cfg.slow_memory_latency == pytest.approx(1e-6)
        assert cfg.sample_fraction == pytest.approx(0.05)
        assert cfg.max_poisoned_subpages == 50

    def test_budget_is_30k(self):
        """3% at 1us is the paper's 30,000 accesses/sec (Figure 3)."""
        assert ThermostatConfig().slow_access_rate_budget == pytest.approx(30_000)

    def test_budget_scales_with_slowdown(self):
        cfg = ThermostatConfig(tolerable_slowdown=0.06)
        assert cfg.slow_access_rate_budget == pytest.approx(60_000)

    def test_budget_scales_with_latency(self):
        cfg = ThermostatConfig(slow_memory_latency=2e-6)
        assert cfg.slow_access_rate_budget == pytest.approx(15_000)

    @pytest.mark.parametrize("slowdown", [0.0, 1.0, -0.1, 2.0])
    def test_bad_slowdown_rejected(self, slowdown):
        with pytest.raises(ConfigError):
            ThermostatConfig(tolerable_slowdown=slowdown)

    def test_bad_latency_rejected(self):
        for latency in (0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ThermostatConfig(slow_memory_latency=latency)

    def test_bad_sample_fraction_rejected(self):
        with pytest.raises(ConfigError):
            ThermostatConfig(sample_fraction=0.0)
        with pytest.raises(ConfigError):
            ThermostatConfig(sample_fraction=1.5)

    def test_bad_poison_count_rejected(self):
        with pytest.raises(ConfigError):
            ThermostatConfig(max_poisoned_subpages=0)

    def test_bad_demotion_cap_rejected(self):
        with pytest.raises(ConfigError):
            ThermostatConfig(max_demotion_fraction=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ThermostatConfig().tolerable_slowdown = 0.5  # type: ignore[misc]


class TestSimulationConfig:
    def test_num_epochs(self):
        cfg = SimulationConfig(duration=300, epoch=30)
        assert cfg.num_epochs == 10

    def test_num_epochs_truncates(self):
        cfg = SimulationConfig(duration=100, epoch=30)
        assert cfg.num_epochs == 3

    def test_partial_final_epoch_warns_and_is_surfaced(self):
        """The paper's analytics run (317s at a 30s epoch) used to lose its
        last 17s silently; now the tail is warned about and queryable."""
        from repro.errors import ConfigWarning

        with pytest.warns(ConfigWarning, match="317"):
            cfg = SimulationConfig(duration=317, epoch=30)
        assert cfg.num_epochs == 10
        assert cfg.truncated_tail == pytest.approx(17.0)

    def test_whole_epoch_duration_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SimulationConfig(duration=300, epoch=30)
        assert cfg.truncated_tail == 0.0

    def test_num_epochs_float_robust(self):
        """0.3 / 0.1 is 2.9999... in IEEE floats; naive floor division
        would simulate 2 epochs and warn about a phantom tail."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SimulationConfig(duration=0.3, epoch=0.1)
        assert cfg.num_epochs == 3
        assert cfg.truncated_tail == 0.0

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration=0)

    def test_epoch_longer_than_duration_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(duration=10, epoch=30)

    def test_faults_default_to_disabled(self):
        cfg = SimulationConfig(duration=300, epoch=30)
        assert cfg.faults.enabled is False


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        cfg = FaultConfig()
        assert cfg.enabled is False
        assert cfg.migration_failure_rate == 0.0
        assert cfg.capacity_exhaustion_rate == 0.0
        assert cfg.ue_endurance_writes == 0.0
        assert cfg.overhead_spike_rate == 0.0
        assert cfg.sample_loss_rate == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("migration_failure_rate", -0.1),
            ("migration_failure_rate", 1.1),
            ("capacity_exhaustion_rate", 2.0),
            ("ue_probability", -1.0),
            ("overhead_spike_rate", 1.5),
            ("sample_loss_rate", -0.5),
        ],
    )
    def test_rates_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FaultConfig(**{field: value})

    def test_certain_migration_failure_rejected_when_enabled(self):
        """rate == 1.0 can never be retried out of; reject it up front."""
        with pytest.raises(ConfigError):
            FaultConfig(enabled=True, migration_failure_rate=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_migration_retries", -1),
            ("retry_backoff_seconds", -1e-3),
            ("capacity_exhaustion_epochs", 0),
            ("ue_endurance_writes", -1.0),
            ("ue_repair_seconds", -1.0),
            ("overhead_spike_seconds", -0.5),
        ],
    )
    def test_negative_scalars_rejected(self, field, value):
        with pytest.raises(ConfigError):
            FaultConfig(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FaultConfig().enabled = True  # type: ignore[misc]
