"""Per-package domain classification.

Rules scope themselves to domains rather than hard-coding path lists:
the *sim domain* is everything that runs inside a simulated experiment
and must therefore be a pure function of (config, seed); *experiments* /
*store* are the orchestration layers that persist result artifacts;
*obs* and *metrics* observe runs and write artifacts of their own;
*infra* is the seed/units/io plumbing at the package root; *tests* and
*scripts* (examples, benchmarks) get only the universally-applicable
rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath

#: Packages whose code runs inside the simulation and must be a pure
#: function of (config, seed) — the strictest contracts apply here.
SIM_PACKAGES: frozenset[str] = frozenset(
    {"sim", "core", "fleet", "mem", "kernel", "workloads", "baselines"}
)

#: Files allowed to read the host clock: the supervisor must measure real
#: elapsed time to enforce task timeouts, and the phase profiler is
#: strictly observational (its output never feeds back into a run).
WALL_CLOCK_ALLOWLIST: frozenset[str] = frozenset(
    {"repro/experiments/supervisor.py", "repro/obs/profiling.py"}
)


@dataclass(frozen=True)
class ModuleInfo:
    """Where a file sits in the repo, as the rules see it."""

    path: str  #: posix-style path as discovered (relative to the lint cwd)
    package: str  #: repro subpackage name ("sim", "experiments", ...) or ""
    domain: str  #: one of sim/experiments/store/obs/metrics/lint/rng/infra/tests/scripts

    @property
    def is_sim_domain(self) -> bool:
        return self.domain == "sim"

    @property
    def wall_clock_allowed(self) -> bool:
        """True for files on the explicit host-clock allowlist."""
        return any(self.path.endswith(entry) for entry in WALL_CLOCK_ALLOWLIST)


def classify(path: str) -> ModuleInfo:
    """Classify ``path`` into a :class:`ModuleInfo`.

    Works on any path spelling (absolute or relative, / or native
    separators); only the part from the ``repro`` or ``tests`` component
    onward matters.
    """
    parts = PurePath(path).parts
    posix = "/".join(parts)

    if "tests" in parts[:-1]:
        return ModuleInfo(posix, "", "tests")

    if "repro" not in parts:
        return ModuleInfo(posix, "", "scripts")

    rel = parts[parts.index("repro") + 1 :]
    if not rel:
        return ModuleInfo(posix, "", "infra")
    if rel == ("rng.py",):
        return ModuleInfo(posix, "", "rng")

    package = rel[0][:-3] if len(rel) == 1 else rel[0]
    if package in SIM_PACKAGES:
        return ModuleInfo(posix, package, "sim")
    if package == "experiments":
        # The result store is its own domain: it is the persistence layer
        # every artifact-integrity rule cares most about.
        domain = "store" if rel[-1] == "parallel.py" else "experiments"
        return ModuleInfo(posix, package, domain)
    if package in {"obs", "metrics", "lint"}:
        return ModuleInfo(posix, package, package)
    return ModuleInfo(posix, package, "infra")
