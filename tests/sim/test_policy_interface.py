"""Tests for the policy interface and report container."""

import pytest

from repro.sim.policy import PlacementPolicy, PolicyReport


class TestPolicyReport:
    def test_defaults(self):
        report = PolicyReport()
        assert report.overhead_seconds == 0.0
        assert report.demoted == 0
        assert report.promoted == 0
        assert report.diagnostics == {}

    def test_diagnostics_independent(self):
        a = PolicyReport()
        b = PolicyReport()
        a.diagnostics["x"] = 1
        assert b.diagnostics == {}


class TestPlacementPolicy:
    def test_abstract(self):
        with pytest.raises(TypeError):
            PlacementPolicy()  # type: ignore[abstract]

    def test_describe_defaults_to_name(self):
        class Dummy(PlacementPolicy):
            name = "dummy"

            def on_epoch(self, state, profile, rng):
                return PolicyReport()

        assert Dummy().describe() == "dummy"


class TestVersion:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
