"""Tests for the cgroup control surface."""

import pytest

from repro.config import ThermostatConfig
from repro.errors import ConfigError
from repro.kernel.cgroup import MemoryCgroup


class TestReadWrite:
    def test_defaults_readable(self):
        group = MemoryCgroup("test")
        assert group.read("thermostat.tolerable_slowdown") == "0.03"
        assert group.read("sample_fraction") == "0.05"

    def test_write_by_cgroup_name(self):
        group = MemoryCgroup("test")
        group.write("thermostat.tolerable_slowdown", "0.06")
        assert group.config.tolerable_slowdown == pytest.approx(0.06)

    def test_write_by_field_name(self):
        group = MemoryCgroup("test")
        group.write("sample_fraction", 0.1)
        assert group.config.sample_fraction == pytest.approx(0.1)

    def test_int_knob(self):
        group = MemoryCgroup("test")
        group.write("max_poisoned_subpages", "25")
        assert group.config.max_poisoned_subpages == 25

    def test_knob_type_comes_from_the_field(self):
        group = MemoryCgroup("test", ThermostatConfig(sample_fraction=1))
        group.write("sample_fraction", "0.5")
        assert group.config.sample_fraction == pytest.approx(0.5)

    def test_bool_knob_strings(self):
        group = MemoryCgroup("test")
        group.write("enable_correction", "0")
        assert group.config.enable_correction is False
        group.write("enable_correction", "true")
        assert group.config.enable_correction is True

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            MemoryCgroup("test").write("enable_correction", "maybe")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError):
            MemoryCgroup("test").write("nonsense", 1)
        with pytest.raises(ConfigError):
            MemoryCgroup("test").read("nonsense")
        # The scan interval is the engine epoch, not a policy knob.
        with pytest.raises(ConfigError):
            MemoryCgroup("test").write("thermostat.scan_interval", "10")

    @pytest.mark.parametrize(
        ("knob", "value"),
        [
            ("tolerable_slowdown", "2.0"),
            ("slow_memory_latency", "nan"),
            ("slow_memory_latency", "inf"),
            ("sample_fraction", "nan"),
            ("sample_fraction", "inf"),
            ("max_poisoned_subpages", "2.5"),
            ("max_poisoned_subpages", 2.7),
            ("sample_fraction", "abc"),
        ],
    )
    def test_validation_still_applies(self, knob, value):
        group = MemoryCgroup("test")
        before = group.config
        with pytest.raises(ConfigError):
            group.write(knob, value)
        # Failed write leaves the config and its generation untouched.
        assert group.config == before
        assert group.generation == 0

    def test_generation_bumps_on_write(self):
        group = MemoryCgroup("test")
        assert group.generation == 0
        group.write("sample_fraction", 0.1)
        assert group.generation == 1

    def test_snapshot_is_immutable(self):
        group = MemoryCgroup("test")
        snapshot = group.config
        group.write("sample_fraction", 0.1)
        assert snapshot.sample_fraction == pytest.approx(0.05)

    def test_custom_initial_config(self):
        group = MemoryCgroup("g", ThermostatConfig(tolerable_slowdown=0.1))
        assert group.read("tolerable_slowdown") == "0.1"

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            MemoryCgroup("")

    def test_knobs_lists_everything(self):
        knobs = MemoryCgroup("test").knobs()
        assert "thermostat.tolerable_slowdown" in knobs
        assert len(knobs) == 6
