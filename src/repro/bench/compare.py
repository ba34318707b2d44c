"""Tolerance-gated comparison between two benchmark snapshots.

Two gates, deliberately asymmetric:

* **semantic** metrics are seed-pinned simulation outputs; they get a
  near-exact relative tolerance (default 1e-6).  A failure means the
  commit changed simulation behavior.
* **perf** uses the calibration-normalized ratio with a generous
  regression allowance (default +50%), because even normalized timings
  wobble across runs; raw wall seconds are never gated.  A failure means
  the commit made a scenario genuinely slower, not that CI got a cold
  cache.

Improvements (faster, or semantically identical) never fail the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Relative tolerance for semantic metrics.
SEMANTIC_RTOL = 1e-6
#: Allowed relative growth of the normalized perf metric (0.5 = +50%).
PERF_ALLOWANCE = 0.5


@dataclass(frozen=True)
class MetricViolation:
    """One metric that fell outside its gate."""

    scenario: str
    metric: str
    baseline: float
    current: float
    kind: str  # "semantic" | "perf" | "missing"

    def describe(self) -> str:
        if self.kind == "missing":
            return f"{self.scenario}: scenario missing from current run"
        if self.kind == "perf":
            ratio = self.current / self.baseline if self.baseline else math.inf
            return (
                f"{self.scenario}/{self.metric}: normalized time "
                f"{self.current:.3f} vs baseline {self.baseline:.3f} "
                f"({ratio:.2f}x)"
            )
        return (
            f"{self.scenario}/{self.metric}: {self.current!r} != "
            f"baseline {self.baseline!r}"
        )


@dataclass
class CompareResult:
    """Outcome of one snapshot comparison."""

    violations: list[MetricViolation] = field(default_factory=list)
    #: Metrics checked (gated comparisons actually performed).
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return f"OK: {self.checked} gated metrics within tolerance"
        lines = [f"FAIL: {len(self.violations)} of {self.checked} gates violated"]
        lines += [f"  - {v.describe()}" for v in self.violations]
        return "\n".join(lines)


def numpy_note(baseline: dict, current: dict) -> str | None:
    """A line naming both snapshots' numpy versions, unless both record
    the same one.

    A numpy release can move a seed-pinned metric with no code change
    (``poison_scan_batch`` replays numpy's own ``choice``), so a semantic
    failure across versions may be numpy's.  The note never gates.
    """
    base, cur = baseline.get("numpy"), current.get("numpy")
    if base is not None and base == cur:
        return None
    return (
        f"numpy: baseline {base or 'not recorded'}, "
        f"current {cur or 'not recorded'}"
    )


def compare_snapshots(
    baseline: dict,
    current: dict,
    semantic_rtol: float = SEMANTIC_RTOL,
    perf_allowance: float = PERF_ALLOWANCE,
) -> CompareResult:
    """Gate ``current`` against ``baseline``; see the module docstring.

    Scenarios present only in ``current`` are new and pass freely (the
    trajectory is meant to grow); scenarios that *disappeared* fail,
    because a silently dropped benchmark is how regressions hide.
    """
    result = CompareResult()
    for name, base in baseline["scenarios"].items():
        cur = current["scenarios"].get(name)
        if cur is None:
            result.violations.append(
                MetricViolation(name, "", 0.0, 0.0, kind="missing")
            )
            continue
        base_sem = base.get("semantic", {})
        cur_sem = cur.get("semantic", {})
        for metric, expected in base_sem.items():
            actual = cur_sem.get(metric, math.nan)
            result.checked += 1
            if not math.isclose(
                actual, expected, rel_tol=semantic_rtol, abs_tol=semantic_rtol
            ):
                result.violations.append(
                    MetricViolation(name, metric, expected, actual, "semantic")
                )
        base_norm = base.get("perf", {}).get("normalized")
        cur_norm = cur.get("perf", {}).get("normalized")
        if base_norm is not None and cur_norm is not None:
            result.checked += 1
            if cur_norm > base_norm * (1.0 + perf_allowance):
                result.violations.append(
                    MetricViolation(name, "normalized", base_norm, cur_norm, "perf")
                )
    return result
