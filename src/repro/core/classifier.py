"""Hot/cold classification under a slowdown budget.

Paper Section 3.4.  The administrator specifies a tolerable slowdown x (a
fraction); with slow-memory latency t_s, the whole application may make at
most ``x / t_s`` accesses per second to slow memory (every slow access
stalls the program for about t_s).  Because only a fraction ``f`` of huge
pages was sampled this interval, the sampled pages are allotted ``f * x /
t_s``: sort the sampled pages by estimated access rate, coldest first, and
demote until the *aggregate* estimated rate of the chosen set would exceed
the allotment.

Without the budget "one can simply declare all pages cold and call it a
day" — the budget is the entire policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of one classification pass."""

    #: Huge-page ids selected for slow memory, coldest first (ascending
    #: estimated rate, ties broken by page id).
    cold_pages: np.ndarray
    #: Huge-page ids kept (or returned to) fast memory, also in ascending
    #: estimated-rate order (the coolest of the hot pages first).
    hot_pages: np.ndarray
    #: Aggregate estimated access rate of the cold set (acc/sec).
    cold_rate: float
    #: The rate allotment the cold set had to fit in (acc/sec).
    budget: float
    extras: dict = field(default_factory=dict)


def select_cold_pages(
    page_ids: np.ndarray,
    estimated_rates: np.ndarray,
    budget: float,
    obs=None,
) -> ClassificationResult:
    """Choose the cold subset of the sampled pages.

    ``page_ids`` and ``estimated_rates`` are parallel arrays for this
    interval's sample; ``budget`` is the sample's rate allotment
    (``f * x / t_s``).  Ties are broken by page id for determinism.
    ``obs`` is an optional observability sink (:mod:`repro.obs`) that
    meters verdict counts and the estimated-rate distribution; it never
    affects the selection.

    The selection is greedy coldest-first with a *strict* aggregate bound:
    a page is taken only if the running total stays within the budget.
    Pages with zero estimated rate are always taken (they cost nothing).
    """
    page_ids = np.asarray(page_ids, dtype=np.int64)
    estimated_rates = np.asarray(estimated_rates, dtype=float)
    if page_ids.shape != estimated_rates.shape:
        raise ConfigError(
            f"ids and rates must be parallel: {page_ids.shape} vs "
            f"{estimated_rates.shape}"
        )
    if budget < 0:
        raise ConfigError(f"budget must be non-negative: {budget}")
    if np.any(estimated_rates < 0):
        raise ConfigError("estimated rates must be non-negative")

    order = np.lexsort((page_ids, estimated_rates))
    sorted_rates = estimated_rates[order]
    cumulative = np.cumsum(sorted_rates)
    take = cumulative <= budget
    # Zero-rate pages are always in-budget (cumsum of zeros is zero), so
    # `take` is a prefix mask: find its length.
    num_cold = int(np.count_nonzero(take))
    cold_positions = order[:num_cold]
    hot_positions = order[num_cold:]
    # Both halves keep the ascending-rate order: downstream consumers
    # (demotion caps, backpressure truncation) rely on ``cold_pages``
    # being coldest first — an id-sort here would silently hand them the
    # lowest-numbered pages instead of the coldest.
    cold = page_ids[cold_positions]
    hot = page_ids[hot_positions]
    cold_rate = float(cumulative[num_cold - 1]) if num_cold else 0.0
    if obs is not None and obs.active:
        from repro.obs.metrics import RATE_BUCKETS

        obs.inc("repro_classifier_invocations_total")
        obs.inc("repro_classifier_cold_pages_total", num_cold)
        obs.inc("repro_classifier_hot_pages_total", int(hot.size))
        obs.observe("repro_classifier_estimated_rate", estimated_rates, RATE_BUCKETS)
    return ClassificationResult(
        cold_pages=cold,
        hot_pages=hot,
        cold_rate=cold_rate,
        budget=budget,
    )
