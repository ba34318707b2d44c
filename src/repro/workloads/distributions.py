"""Access-skew generators: per-page rate vectors with controlled shape.

Cloud applications have highly skewed access distributions (paper
Section 2.1, citing the YCSB and Facebook workload studies).  These helpers
build per-4KB-page access-rate vectors with the skews the paper's
evaluation relies on:

* :func:`zipfian_rates` — YCSB's Zipfian request distribution projected
  onto pages (Aerospike/Cassandra);
* :func:`hotspot_rates` — the paper's Redis load: 0.01% of keys take 90%
  of traffic;
* :func:`uniform_rates` — flat access;
* :func:`tiered_rates` — an explicit list of (fraction-of-pages,
  fraction-of-traffic) bands, used to sculpt distributions whose cold tail
  matches a target (TPCC's saturating cold fraction, web-search's large
  barely-touched index).

All generators optionally shuffle page identities so "hot" pages are
scattered through the address space the way a real heap's would be.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def layout_order(
    n: int,
    rng: np.random.Generator,
    mixing: float = 0.02,
) -> np.ndarray:
    """The permutation that lays an ``n``-page popularity vector out in
    (virtual) address order: ``rates[layout_order(rates.size, rng)]``.

    A heap does not place same-temperature data contiguously, but nor does
    it scatter it uniformly: allocations exhibit locality.  A *uniform*
    4KB-grain shuffle would average every 2MB page to the mean rate and
    erase the huge-page-level skew Thermostat exploits; no shuffle at all
    would make every huge page internally homogeneous and hide the
    phenomenon of Figure 2 (a few hot 4KB lines inside a mostly-idle huge
    page).

    This does the realistic middle thing: pages keep their rank order up
    to Gaussian jitter of ``mixing * n`` positions, so nearby 4KB pages
    have similar-but-not-identical temperature and a small fraction of hot
    subpages lands inside cold huge pages.

    The generators draw it before they allocate their rates, so a build
    holds at most the rates, this int32 permutation (``n`` below 2**31;
    the largest suite vector has 4.5M pages) and the gathered vector at
    once (DESIGN.md, "Workload builds share their static vectors").
    """
    if mixing < 0:
        raise WorkloadError(f"mixing must be non-negative: {mixing}")
    if n <= 1 or mixing == 0:
        return np.arange(n, dtype=np.int32)
    positions = rng.standard_normal(n)
    positions *= mixing * n
    positions += np.arange(n, dtype=float)
    # Default (introsort) argsort: ~2.5x faster than kind="stable" on the
    # paper-scale 4.5M-element layouts, and permutation-identical because
    # the jittered positions are continuous draws (exact float ties have
    # measure zero; tests/property/test_prop_kernels.py checks it against
    # kind="stable").
    order = np.argsort(positions)
    del positions  # before the int32 copy, so two arrays are live, not three
    return order.astype(np.int32)


def _shuffle_order(
    num_pages: int, rng: np.random.Generator | None, shuffle: bool
) -> np.ndarray | None:
    """The generators' layout permutation, or None when not shuffling."""
    if not shuffle:
        return None
    if rng is None:
        raise WorkloadError("shuffle requires an rng")
    return layout_order(num_pages, rng)


def _finish(
    rates: np.ndarray, total_rate: float, order: np.ndarray | None
) -> np.ndarray:
    """Scale ``rates`` in place to ``total_rate`` and gather them by ``order``."""
    mass = rates.sum()
    if mass <= 0:
        raise WorkloadError("distribution has zero total mass")
    rates *= total_rate / mass
    return rates if order is None else rates[order]


def uniform_rates(num_pages: int, total_rate: float) -> np.ndarray:
    """Every page receives the same rate."""
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be positive: {num_pages}")
    if total_rate < 0:
        raise WorkloadError(f"total_rate must be non-negative: {total_rate}")
    return np.full(num_pages, total_rate / num_pages)


def zipfian_rates(
    num_pages: int,
    total_rate: float,
    exponent: float = 0.99,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> np.ndarray:
    """Zipf-distributed page popularity (YCSB's default exponent 0.99).

    Page ranked ``k`` receives mass proportional to ``1 / (k+1)^exponent``.
    """
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be positive: {num_pages}")
    if exponent <= 0:
        raise WorkloadError(f"exponent must be positive: {exponent}")
    order = _shuffle_order(num_pages, rng, shuffle)
    rates = np.arange(1, num_pages + 1, dtype=float)
    rates **= -exponent
    return _finish(rates, total_rate, order)


def hotspot_rates(
    num_pages: int,
    total_rate: float,
    hot_fraction: float = 1e-4,
    hot_mass: float = 0.9,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> np.ndarray:
    """Two-band skew: ``hot_mass`` of traffic on ``hot_fraction`` of pages.

    The paper's Redis configuration is ``hot_fraction=1e-4`` (0.01% of the
    keys), ``hot_mass=0.9``.
    """
    if not 0.0 < hot_fraction < 1.0:
        raise WorkloadError(f"hot_fraction must be in (0, 1): {hot_fraction}")
    if not 0.0 <= hot_mass <= 1.0:
        raise WorkloadError(f"hot_mass must be in [0, 1]: {hot_mass}")
    return tiered_rates(
        num_pages,
        total_rate,
        bands=[(hot_fraction, hot_mass), (1.0 - hot_fraction, 1.0 - hot_mass)],
        rng=rng,
        shuffle=shuffle,
    )


def tiered_rates(
    num_pages: int,
    total_rate: float,
    bands: list[tuple[float, float]],
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> np.ndarray:
    """Piecewise-uniform skew from (page-fraction, traffic-fraction) bands.

    ``bands`` must sum to 1.0 in both coordinates (within rounding).  Pages
    within one band share the band's traffic equally.
    """
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be positive: {num_pages}")
    if not bands:
        raise WorkloadError("bands must be non-empty")
    page_sum = sum(b[0] for b in bands)
    mass_sum = sum(b[1] for b in bands)
    if abs(page_sum - 1.0) > 1e-6 or abs(mass_sum - 1.0) > 1e-6:
        raise WorkloadError(
            f"bands must sum to 1.0 in both coordinates, got pages={page_sum} "
            f"mass={mass_sum}"
        )
    order = _shuffle_order(num_pages, rng, shuffle)
    rates = np.empty(num_pages)
    start = 0
    for i, (page_fraction, mass_fraction) in enumerate(bands):
        is_last = i == len(bands) - 1
        count = num_pages - start if is_last else int(round(page_fraction * num_pages))
        count = max(count, 1) if mass_fraction > 0 else count
        end = min(start + count, num_pages)
        if end > start:
            rates[start:end] = mass_fraction / (end - start)
        start = end
    if start < num_pages:
        rates[start:] = 0.0
    return _finish(rates, total_rate, order)


def exponential_decay_rates(
    num_pages: int,
    total_rate: float,
    half_life_fraction: float = 0.1,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> np.ndarray:
    """Smoothly decaying popularity: rate halves every ``half_life_fraction``
    of the footprint.

    Produces the gradual hot-to-lukewarm-to-cold gradient that makes a
    workload's cold fraction *scale* with the tolerable slowdown
    (Aerospike's behaviour in Figure 11), as opposed to the sharp
    hot/cold boundary that makes it saturate (TPCC's).
    """
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be positive: {num_pages}")
    if half_life_fraction <= 0:
        raise WorkloadError(
            f"half_life_fraction must be positive: {half_life_fraction}"
        )
    order = _shuffle_order(num_pages, rng, shuffle)
    # 2 ** (-(page / num_pages) / half_life_fraction), on one array.
    rates = np.arange(num_pages, dtype=float)
    rates /= num_pages
    np.negative(rates, out=rates)
    rates /= half_life_fraction
    np.exp2(rates, out=rates)
    return _finish(rates, total_rate, order)
