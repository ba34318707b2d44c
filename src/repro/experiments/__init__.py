"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(...)`` function returning structured results
and a ``main()`` that prints the paper-comparable rows; the
:mod:`repro.experiments.runner` CLI stitches them together.  The
paper-claims tests (``tests/integration/test_paper_claims.py``) call the
same ``run`` functions, so they check exactly what the CLI prints.
"""

from repro.experiments.common import (
    DEFAULT_SCALE,
    run_suite,
    run_thermostat,
    suite_durations,
)

__all__ = ["DEFAULT_SCALE", "run_thermostat", "run_suite", "suite_durations"]
