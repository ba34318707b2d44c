"""Epoch access profiles: what a workload did during one scan interval.

The epoch engine trades per-access fidelity for scale: instead of replaying
billions of references, a workload reports *how many accesses each page
received* during the interval.  That is exactly the information Thermostat's
monitoring can (partially) observe — Accessed bits are ``counts > 0``,
poison-fault counts are the counts themselves (capped by TLB residency for
hot pages) — so the policy code runs unmodified logic against these arrays.

A profile is exact at two grains: every 2MB page carries its total, and
the 4KB rows of the *resolved* huge pages carry their subpage counts.  A
profile built from a full ``counts`` array (ingested snapshots, replayed
traces, tests) resolves every page; :meth:`Workload.epoch_profile
<repro.workloads.base.Workload.epoch_profile>` resolves only the pages its
caller asks for — in the engine, the ones split for monitoring, the only
4KB detail anything reads.  Reading the rows of an unresolved page raises
instead of guessing them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.units import SUBPAGES_PER_HUGE_PAGE


class EpochProfile:
    """Access counts for one epoch.

    ``EpochProfile(start_time, duration, counts)`` is the dense form:
    ``counts[i]`` is the number of memory accesses (LLC-miss-grade, i.e.
    the accesses that would reach DRAM/slow memory) to 4KB page ``i``
    during the epoch, and its length must be a whole number of huge pages
    — workloads pad their footprint up to a 2MB boundary.
    :meth:`sampled` builds the sparse form from per-huge-page totals plus
    the subpage rows of some of the pages.
    """

    def __init__(
        self,
        start_time: float,
        duration: float,
        counts: np.ndarray,
        write_fraction: float = 0.1,
    ) -> None:
        _check_epoch(duration, write_fraction)
        if counts.ndim != 1:
            raise WorkloadError(f"counts must be 1-D, got shape {counts.shape}")
        if len(counts) % SUBPAGES_PER_HUGE_PAGE:
            raise WorkloadError(
                f"counts length {len(counts)} is not a whole number of "
                f"huge pages ({SUBPAGES_PER_HUGE_PAGE} subpages each)"
            )
        self.start_time = start_time
        self.duration = duration
        #: Fraction of the accesses that are writes (used by wear accounting).
        self.write_fraction = write_fraction
        self._counts: np.ndarray | None = counts
        self._rows = counts.reshape(-1, SUBPAGES_PER_HUGE_PAGE)
        #: Row of each huge page in ``_rows``, -1 if unresolved; ``None``
        #: when every page is resolved in id order (the dense form).
        self._row_of: np.ndarray | None = None
        self._totals: np.ndarray | None = None

    @classmethod
    def sampled(
        cls,
        start_time: float,
        duration: float,
        huge_totals: np.ndarray,
        resolved_ids: np.ndarray,
        resolved_rows: np.ndarray,
        write_fraction: float = 0.1,
    ) -> EpochProfile:
        """A profile whose 4KB rows are known only for ``resolved_ids``.

        ``resolved_rows[k]`` holds the subpage counts of huge page
        ``resolved_ids[k]`` and must sum to that page's total.
        """
        _check_epoch(duration, write_fraction)
        huge_totals = np.asarray(huge_totals, dtype=np.int64)
        resolved_ids = np.asarray(resolved_ids, dtype=np.int64)
        resolved_rows = np.asarray(resolved_rows, dtype=np.int64)
        if resolved_rows.shape != (resolved_ids.size, SUBPAGES_PER_HUGE_PAGE):
            raise WorkloadError(
                f"resolved rows shape {resolved_rows.shape} does not match "
                f"{resolved_ids.size} resolved ids x {SUBPAGES_PER_HUGE_PAGE}"
            )
        if resolved_ids.size and not np.array_equal(
            resolved_rows.sum(axis=1), huge_totals[resolved_ids]
        ):
            raise WorkloadError(
                "resolved subpage rows must sum to their huge-page totals"
            )
        profile = cls.__new__(cls)
        profile.start_time = start_time
        profile.duration = duration
        profile.write_fraction = write_fraction
        profile._counts = None
        row_of = np.full(huge_totals.size, -1, dtype=np.int64)
        row_of[resolved_ids] = np.arange(resolved_ids.size)
        profile._rows = resolved_rows
        profile._row_of = row_of
        profile._totals = huge_totals
        return profile

    # -- 2MB grain: exact for every page ---------------------------------

    @property
    def num_huge_pages(self) -> int:
        if self._row_of is None:
            return self._rows.shape[0]
        return self._row_of.size

    @property
    def num_base_pages(self) -> int:
        return self.num_huge_pages * SUBPAGES_PER_HUGE_PAGE

    def huge_counts(self) -> np.ndarray:
        """Per-huge-page aggregate access counts.

        The engine's stall charge, the correction mechanism, and the wear
        tracker all consume this reduction every epoch; the dense form
        computes it once, on first use.
        """
        if self._totals is None:
            self._totals = self._rows.sum(axis=1)
        return self._totals

    def total_accesses(self) -> int:
        """All accesses in the epoch."""
        return int(self.huge_counts().sum())

    def huge_accessed_mask(self) -> np.ndarray:
        """Per-huge-page Accessed-bit equivalent (any subpage touched)."""
        return self.huge_counts() > 0

    # -- 4KB grain: exact for resolved pages ------------------------------

    @property
    def resolved_ids(self) -> np.ndarray:
        """Huge pages whose subpage rows are known."""
        if self._row_of is None:
            return np.arange(self.num_huge_pages, dtype=np.int64)
        return np.flatnonzero(self._row_of >= 0)

    def subpage_rows(self, huge_page_ids: np.ndarray) -> np.ndarray:
        """Subpage counts of the requested huge pages, ``(len(ids), 512)``.

        The narrow accessor the policy hot path uses; every requested page
        must be resolved.
        """
        huge_page_ids = np.asarray(huge_page_ids, dtype=np.int64)
        if self._row_of is None:
            return self._rows[huge_page_ids]
        positions = self._row_of[huge_page_ids]
        if positions.size and positions.min() < 0:
            missing = huge_page_ids[positions < 0]
            raise WorkloadError(
                f"subpage rows of huge pages {missing[:8].tolist()} were not "
                "resolved for this epoch"
            )
        return self._rows[positions]

    def subpage_counts(self) -> np.ndarray:
        """Counts reshaped to (num_huge_pages, 512); every page resolved."""
        if self._row_of is None:
            return self._rows
        return self.subpage_rows(np.arange(self.num_huge_pages))

    @property
    def counts(self) -> np.ndarray:
        """Flat per-4KB counts; every page resolved."""
        if self._counts is None:
            self._counts = self.subpage_counts().reshape(self.num_base_pages)
        return self._counts

    def accessed_mask(self) -> np.ndarray:
        """Per-4KB-page hardware-Accessed-bit equivalent (counts > 0)."""
        return self.counts > 0

    # -- derived profiles -------------------------------------------------

    def scaled(self, factor: float) -> EpochProfile:
        """Every count multiplied by ``factor`` and rounded.

        Resolved pages round per 4KB page (their totals are the rows'
        sums); unresolved pages round their totals.
        """
        return self._rebuilt(
            np.rint(self.huge_counts() * factor).astype(np.int64),
            np.rint(self._rows * factor).astype(np.int64),
        )

    def without_pages(self, huge_page_ids: np.ndarray) -> EpochProfile:
        """A copy in which ``huge_page_ids`` saw no accesses."""
        huge_page_ids = np.asarray(huge_page_ids, dtype=np.int64)
        totals = self.huge_counts().copy()
        totals[huge_page_ids] = 0
        rows = self._rows.copy()
        positions = huge_page_ids if self._row_of is None else self._row_of[huge_page_ids]
        rows[positions[positions >= 0]] = 0
        return self._rebuilt(totals, rows)

    def _rebuilt(self, totals: np.ndarray, rows: np.ndarray) -> EpochProfile:
        """A profile laid out like this one, from new totals and rows.

        ``rows`` is indexed like this profile's own rows; the resolved
        pages' totals are re-derived from them.
        """
        if self._row_of is None:
            return EpochProfile(
                self.start_time,
                self.duration,
                rows.reshape(self.num_base_pages),
                self.write_fraction,
            )
        ids = self.resolved_ids
        rows = rows[self._row_of[ids]]
        totals[ids] = rows.sum(axis=1)
        return EpochProfile.sampled(
            self.start_time, self.duration, totals, ids, rows, self.write_fraction
        )


def _check_epoch(duration: float, write_fraction: float) -> None:
    if duration <= 0:
        raise WorkloadError(f"epoch duration must be positive: {duration}")
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError(f"write_fraction must be in [0, 1]: {write_fraction}")
