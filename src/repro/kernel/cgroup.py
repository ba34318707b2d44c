"""cgroup-style runtime control surface for Thermostat.

The paper (Section 3.1): "Thermostat can be controlled at runtime via the
Linux memory control group (cgroup) mechanism.  All processes in the same
cgroup share Thermostat parameters, such as the sampling period and maximum
tolerable slowdown."  This module mimics that interface: a string-keyed
read/write parameter file per group, with validation, that policies consult
each scan interval — so an administrator (or Figure 11's sweep) can retune
a *running* simulation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import ThermostatConfig
from repro.errors import ConfigError

#: cgroup file names -> ThermostatConfig field names.
_KNOBS = {
    "thermostat.tolerable_slowdown": "tolerable_slowdown",
    "thermostat.slow_memory_latency": "slow_memory_latency",
    "thermostat.sample_fraction": "sample_fraction",
    "thermostat.max_poisoned_subpages": "max_poisoned_subpages",
    "thermostat.enable_correction": "enable_correction",
    "thermostat.enable_accessed_prefilter": "enable_accessed_prefilter",
}


class MemoryCgroup:
    """One control group holding live Thermostat parameters.

    Policies keep a reference to the group and read :attr:`config` at each
    scan boundary, so writes take effect on the next interval — matching
    the paper's "slowdown threshold can be changed at runtime" behaviour.
    """

    def __init__(self, name: str, config: ThermostatConfig | None = None) -> None:
        if not name:
            raise ConfigError("cgroup name must be non-empty")
        self.name = name
        self._config = config or ThermostatConfig()
        #: Generation counter bumped on every write; policies can use it to
        #: notice reconfiguration cheaply.
        self.generation = 0

    @property
    def config(self) -> ThermostatConfig:
        """The current parameter set (immutable snapshot)."""
        return self._config

    def write(self, knob: str, value: str | float | int | bool) -> None:
        """Set one parameter, cgroup-file style.

        Accepts either the cgroup file name (``thermostat.sample_fraction``)
        or the bare field name (``sample_fraction``).  Values may be strings
        (as if echoed into the file) or native types.  Unparseable or
        non-integral values raise :class:`ConfigError` and, like values
        that fail validation, leave the group untouched.
        """
        field = _KNOBS.get(knob, knob)
        if field not in {f for f in _KNOBS.values()}:
            raise ConfigError(f"unknown Thermostat knob: {knob!r}")
        # The knob's type is its default's, whatever the current value's
        # type (ThermostatConfig(sample_fraction=1) holds an int).
        kind = type(getattr(ThermostatConfig, field))
        parsed: object
        if kind is bool:
            parsed = self._parse_bool(value)
        else:
            parsed = self._parse_number(value, kind)
        # replace() re-runs ThermostatConfig validation.
        self._config = replace(self._config, **{field: parsed})
        self.generation += 1

    def read(self, knob: str) -> str:
        """Read one parameter as a string (cgroup-file style)."""
        field = _KNOBS.get(knob, knob)
        if field not in {f for f in _KNOBS.values()}:
            raise ConfigError(f"unknown Thermostat knob: {knob!r}")
        value = getattr(self._config, field)
        if isinstance(value, bool):
            return "1" if value else "0"
        return f"{value:g}" if isinstance(value, float) else str(value)

    @staticmethod
    def _parse_bool(value: str | float | int | bool) -> bool:
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in {"1", "true", "yes", "on"}:
                return True
            if lowered in {"0", "false", "no", "off"}:
                return False
            raise ConfigError(f"cannot parse boolean knob value {value!r}")
        return bool(value)

    @staticmethod
    def _parse_number(value: str | float | int | bool, kind: type) -> float | int:
        try:
            parsed = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"cannot parse {kind.__name__} knob value {value!r}"
            ) from exc
        if kind is int and not isinstance(value, str) and parsed != value:
            raise ConfigError(f"int knob value {value!r} is not integral")
        return parsed

    def knobs(self) -> dict[str, str]:
        """All knob files and their current values."""
        return {knob: self.read(knob) for knob in _KNOBS}
