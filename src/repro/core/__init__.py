"""Thermostat proper: the paper's Section 3 policy.

The decision logic is implemented as pure functions over access counts —
:mod:`repro.core.sampling` (which pages to split and which subpages to
poison), :mod:`repro.core.estimator` (spatial extrapolation of huge-page
access rates), :mod:`repro.core.classifier` (slowdown budget to cold-page
selection), and :mod:`repro.core.correction` (promoting mis-classified
pages) — and orchestrated by two drivers:

* :class:`repro.core.thermostat.ThermostatPolicy` for the vectorized epoch
  engine (the large-scale experiments), and
* :class:`repro.core.mechanism.MechanismThermostat` driving a real
  :class:`~repro.kernel.mmu.AddressSpace` through BadgerTrap page by page
  (bit-faithful; used for validation and the worked example of Figure 4).
"""

from repro.core.classifier import ClassificationResult, select_cold_pages
from repro.core.correction import select_promotions
from repro.core.estimator import estimate_huge_page_rates
from repro.core.sampling import choose_poison_subpages
from repro.core.thermostat import ThermostatPolicy

__all__ = [
    "ClassificationResult",
    "select_cold_pages",
    "select_promotions",
    "estimate_huge_page_rates",
    "choose_poison_subpages",
    "ThermostatPolicy",
]
