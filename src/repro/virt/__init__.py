"""Virtualization substrate: nested paging costs.

The paper evaluates Thermostat under KVM because virtualization is where
huge pages matter most: a two-dimensional (guest + host) page walk costs up
to 24 memory references with 4KB pages at both levels but only 15 with 2MB
pages at both levels (Section 2.2).  :mod:`repro.virt.nested` holds the
nested-walk cost model and the virtualized translation-overhead estimator
behind Table 1.
"""

from repro.virt.nested import NestedPagingModel, TranslationOverheadModel

__all__ = [
    "NestedPagingModel",
    "TranslationOverheadModel",
]
