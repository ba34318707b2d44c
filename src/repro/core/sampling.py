"""Page sampling: which huge pages to split, which subpages to poison.

Paper Section 3.2.  Two stages bound the monitoring overhead:

1. a random 5% of huge pages is *split* each scan interval so their 512
   subpages can be observed individually;
2. within each split page, the hardware Accessed bits first identify the
   subpages with any activity at all, and only a bounded sample (at most
   50) of *those* is poisoned for costly fault-based counting.

The Accessed-bit prefilter is the load-bearing trick: a naive random-K
choice of subpages misses the few hot 4KB regions of a mostly-idle huge
page and under-estimates its rate (``TestPrefilterAblation`` in
``tests/core/test_thermostat_policy.py`` checks this).  With the
defaults only ~0.5% of memory is ever poisoned at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


def choose_poison_subpages(
    accessed_mask: np.ndarray,
    max_poisoned: int,
    rng: np.random.Generator,
    use_prefilter: bool = True,
) -> np.ndarray:
    """Pick which subpages of one split huge page to poison.

    ``accessed_mask`` is the 512-element boolean array of hardware Accessed
    bits gathered since the page was split.  With the prefilter (the paper's
    mechanism) the poisoned sample is drawn only from accessed subpages;
    without it (ablation) it is drawn uniformly from all 512.

    Returns a sorted array of subpage indices (possibly empty when the
    prefilter finds no activity — the page is trivially cold).
    """
    if max_poisoned <= 0:
        raise ConfigError(f"max_poisoned must be positive: {max_poisoned}")
    accessed_mask = np.asarray(accessed_mask, dtype=bool)
    if use_prefilter:
        candidates = np.flatnonzero(accessed_mask)
    else:
        candidates = np.arange(len(accessed_mask))
    if len(candidates) == 0:
        return np.empty(0, dtype=np.int64)
    count = min(max_poisoned, len(candidates))
    chosen = rng.choice(candidates, size=count, replace=False)
    return np.sort(chosen.astype(np.int64))


@dataclass(frozen=True)
class PoisonScanResult:
    """Batched outcome of one interval's poison-fault monitoring.

    All arrays are parallel to the sampled-page batch the scan ran over.
    """

    #: Number of subpages whose Accessed bit was set (prefilter input).
    num_accessed: np.ndarray
    #: How many subpages were actually poisoned on each page.
    poisoned_per_page: np.ndarray
    #: Summed (fault-rate-capped) counts over each page's poisoned set.
    observed_sums: np.ndarray


def poison_scan_batch(
    subpage_counts: np.ndarray,
    max_poisoned: int,
    rng: np.random.Generator,
    use_prefilter: bool = True,
    fault_cap: float = np.inf,
) -> PoisonScanResult:
    """Vectorized poison scan over a 2-D batch of sampled huge pages.

    ``subpage_counts`` is ``(num_sampled, 512)``: the per-subpage access
    counts of every huge page split this interval.  The kernel poisons
    the *same subpages from the same RNG draws* as calling
    :func:`choose_poison_subpages` page by page in batch order, and leaves
    ``rng`` in the same state, but without a per-page loop.

    RNG contract.  For ``s`` picks from ``n <= 10,000`` candidates (a row
    has 512), ``rng.choice(candidates, s, replace=False)`` runs Floyd's
    algorithm and then shuffles the picks.  Floyd's step ``t`` draws
    ``v_t`` uniformly on ``[0, j_t]`` with ``j_t = n - s + t`` and picks
    ``v_t``, or ``j_t`` if ``v_t`` was already picked; the shuffle draws
    once on ``[0, i]`` for each ``i = s-1 ... 1``.  Every one of those
    draws comes from the bounded-integer primitive behind
    ``rng.integers``, so a single ``rng.integers(0, bounds + 1)`` over all
    pages' bounds, concatenated in page order, returns the same values
    from the same stream.  The kernel replays Floyd's picks for every
    page at once (:func:`_floyd_collisions`) and consumes the shuffle's
    draws without replaying them: a shuffle reorders a page's picks but
    never changes which subpages they are.

    The picks and the RNG state match the scalar loop exactly.  The sums
    match it exactly whenever every capped count is a whole number, as
    with integer counts and a whole-number or infinite ``fault_cap``
    (every engine configuration: 100 faults/s times a whole-second
    epoch).  A fractional cap can move a sum in its last bits, because
    the two paths add a page's counts in different orders.
    ``tests/property/test_prop_kernels.py`` pins all of this against the
    verbatim pre-vectorization loop.

    ``fault_cap`` bounds the counts a single poisoned subpage can report
    (BadgerTrap's TLB-residency throttling); ``np.inf`` disables the cap.
    """
    if max_poisoned <= 0:
        raise ConfigError(f"max_poisoned must be positive: {max_poisoned}")
    subpage_counts = np.atleast_2d(np.asarray(subpage_counts))
    num_pages, num_subpages = subpage_counts.shape
    accessed = subpage_counts > 0
    num_accessed = accessed.sum(axis=1).astype(np.int64)
    if use_prefilter:
        population = num_accessed
    else:
        population = np.full(num_pages, num_subpages, dtype=np.int64)
    poisoned = np.minimum(population, max_poisoned)
    # Each page with candidates draws s Floyd steps, then s - 1 shuffle
    # swaps; ``offset`` numbers a draw within its page's run.
    draws = np.maximum(2 * poisoned - 1, 0)
    total = int(draws.sum())
    if total == 0:
        return PoisonScanResult(num_accessed, poisoned, np.zeros(num_pages))
    page = np.repeat(np.arange(num_pages), draws)
    offset = np.arange(total) - np.repeat(np.cumsum(draws) - draws, draws)
    size = poisoned[page]
    base = (population - poisoned)[page]
    floyd = offset < size
    bounds = np.where(floyd, base + offset, 2 * size - 1 - offset)
    values = rng.integers(0, bounds + 1)

    page, step, drawn, base = page[floyd], offset[floyd], values[floyd], base[floyd]
    collided = _floyd_collisions(page, step, drawn, base, num_subpages)
    picks = np.where(collided, base + step, drawn)
    if use_prefilter:
        # A page's candidates are its accessed subpages: one slice of a
        # single flat nonzero pass (row-major order keeps rows together).
        row_start = np.cumsum(num_accessed) - num_accessed
        flat = np.flatnonzero(accessed)[row_start[page] + picks]
    else:
        flat = page * num_subpages + picks
    observed = np.minimum(subpage_counts.ravel()[flat].astype(float), fault_cap)
    return PoisonScanResult(
        num_accessed=num_accessed,
        poisoned_per_page=poisoned,
        observed_sums=np.bincount(page, weights=observed, minlength=num_pages),
    )


def _floyd_collisions(
    page: np.ndarray,
    step: np.ndarray,
    drawn: np.ndarray,
    base: np.ndarray,
    width: int,
) -> np.ndarray:
    """Which Floyd steps found their draw already picked.

    The arrays hold every page's Floyd steps, pages in order and steps in
    order within a page: step ``t`` of a page drew ``drawn`` on
    ``[0, base + t]``.  Step ``t`` collides (and so picks ``base + t``)
    when its draw repeats an earlier draw of its page, or when it equals
    ``base + k`` for an earlier step ``k`` that itself collided.  The
    second rule chains, so it is applied until nothing changes; each
    round settles one more link of every chain, and chains are short.
    """
    index = np.arange(page.size)
    # Unique keys sorted by (page, draw, step): within a run of equal
    # (page, draw), every step after the first is a repeat.
    key = (page * width + drawn) * width + step
    order = np.argsort(key)
    pair = key[order] // width
    repeat = np.zeros(page.size, dtype=bool)
    repeat[order[1:][pair[1:] == pair[:-1]]] = True
    link = drawn - base
    chained = (link >= 0) & (link < step)
    target = np.where(chained, index - step + link, 0)
    collided = repeat
    while True:
        widened = repeat | (chained & collided[target])
        if np.array_equal(widened, collided):
            return collided
        collided = widened


class CyclingSampler:
    """Without-replacement sampling across scan intervals.

    Each interval still splits ``sample_fraction`` of the huge pages, but
    successive intervals walk a shuffled permutation of the whole footprint
    so every page is visited once per ``1/sample_fraction`` intervals —
    coverage grows linearly instead of the ``1 - (1-f)^k`` of independent
    resampling.  The permutation is reshuffled after each full pass (and
    rebuilt when the footprint grows), so long-run selection remains
    uniform and temperature-agnostic.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._queue: np.ndarray = np.empty(0, dtype=np.int64)
        self._known_pages = 0

    def _refill(self, num_huge_pages: int) -> None:
        order = self._rng.permutation(num_huge_pages).astype(np.int64)
        self._queue = order
        self._known_pages = num_huge_pages

    def next_sample(self, num_huge_pages: int, sample_fraction: float) -> np.ndarray:
        """Return the next interval's sample (sorted huge-page indices)."""
        if num_huge_pages <= 0:
            return np.empty(0, dtype=np.int64)
        if not 0.0 < sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1]: {sample_fraction}")
        if num_huge_pages != self._known_pages:
            # Footprint changed (growth): restart the pass over the new set.
            self._refill(num_huge_pages)
        count = max(1, int(round(sample_fraction * num_huge_pages)))
        if count >= self._queue.size:
            sample = self._queue
            self._refill(num_huge_pages)
            remainder = count - sample.size
            if remainder > 0:
                sample = np.concatenate([sample, self._queue[:remainder]])
                self._queue = self._queue[remainder:]
        else:
            sample = self._queue[:count]
            self._queue = self._queue[count:]
        return np.sort(np.unique(sample))


def poisoned_memory_fraction(
    sample_fraction: float,
    max_poisoned: int,
    subpages_per_huge_page: int = 512,
) -> float:
    """Upper bound on the fraction of memory poisoned at once.

    The paper quotes 0.5% for the default parameters (5% of huge pages,
    at most 50 of 512 subpages each).
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigError(f"sample_fraction must be in (0, 1]: {sample_fraction}")
    if max_poisoned <= 0 or subpages_per_huge_page <= 0:
        raise ConfigError("poison counts must be positive")
    return sample_fraction * min(1.0, max_poisoned / subpages_per_huge_page)
