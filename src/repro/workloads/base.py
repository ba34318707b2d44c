"""Workload abstraction for the epoch engine.

A workload owns a (possibly time-varying) per-4KB-page access-rate vector
and renders it into per-epoch access counts, either deterministically (the
expected counts, for tests) or stochastically (Poisson around the
expectation, for experiments).

Subclasses override :meth:`rates_at` (and optionally
:meth:`num_huge_pages_at` for growing footprints); everything else — count
generation, padding to 2MB boundaries, write mixes — is shared here.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import WorkloadError
from repro.sim.profile import EpochProfile
from repro.units import BASE_PAGE_SIZE, SUBPAGES_PER_HUGE_PAGE, bytes_to_pages


def pad_to_huge(num_base_pages: int) -> int:
    """Round a 4KB page count up to a whole number of 2MB pages."""
    remainder = num_base_pages % SUBPAGES_PER_HUGE_PAGE
    if remainder:
        num_base_pages += SUBPAGES_PER_HUGE_PAGE - remainder
    return num_base_pages


def static_rates(
    name: str, rates: np.ndarray, num_pages: int | None = None
) -> tuple[np.ndarray, int]:
    """A static per-4KB rate vector, read-only and zero-padded to 2MB, and its pages.

    ``num_pages`` is the footprint in 4KB pages when ``rates`` is already
    padded past it (default: every rate is a page).  A read-only vector
    of whole 2MB pages is used as is, which is how the registry's builds
    share one vector; any other is copied, so a caller's later writes
    never reach the workload.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise WorkloadError(f"{name}: rates must be a non-empty 1-D array")
    # Keep this a boolean temporary: freeing it (when glibc mapped it)
    # raises glibc's dynamic mmap threshold, which keeps the engine's
    # per-epoch temporaries on the heap.  A suite build frees its larger
    # int32 layout permutation first, which raises it further; a vector
    # drawn any other way has only this.  With ``rates.min()`` and no
    # permutation freed, a paper-scale redis run faulted the temporaries
    # in afresh every epoch and ran up to 40% slower.
    if np.any(rates < 0):
        raise WorkloadError(f"{name}: rates must be non-negative")
    pages = rates.size if num_pages is None else num_pages
    if not pages <= rates.size <= pad_to_huge(pages):
        raise WorkloadError(f"{name}: {rates.size} rates do not pad {pages} pages")
    if rates.flags.writeable or rates.size % SUBPAGES_PER_HUGE_PAGE:
        padded = np.zeros(pad_to_huge(rates.size))
        padded[: rates.size] = rates
        padded.flags.writeable = False
        rates = padded
    return rates, pages


#: Largest total an evenly weighted row draws as uniform subpage picks: a
#: mean of 8 accesses per subpage.  T picks cost O(T) while the multinomial
#: makes 511 binomial draws, which numpy switches from inversion to BTPE at
#: a mean of 30 per subpage; the two cross between 8 and 16 per subpage
#: (DESIGN.md, "One epoch-profile sampler"), so 8 keeps a margin.
UNIFORM_PICK_MAX_TOTAL = 8 * SUBPAGES_PER_HUGE_PAGE


def _uniform_pick_rows(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row r holds ``counts[r]`` uniform picks among 512 subpages, counted."""
    # Pick i of row r lands in cell r * 512 + subpage.
    cells = np.repeat(np.arange(counts.size) * SUBPAGES_PER_HUGE_PAGE, counts)
    cells += rng.integers(0, SUBPAGES_PER_HUGE_PAGE, size=cells.size, dtype=np.uint16)
    picked = np.bincount(cells, minlength=counts.size * SUBPAGES_PER_HUGE_PAGE)
    return picked.reshape(counts.size, SUBPAGES_PER_HUGE_PAGE)


def _split_totals(
    totals: np.ndarray,
    huge_rates: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Split each huge page's total across its 512 subpages by rate.

    ``weights`` holds the pages' subpage rates, one row per total; a page
    without traffic (total and rate 0) gets an all-zero row.

    Each row is Multinomial(total, weights / rate), drawn one of two exact
    ways.  A row whose subpage rates are all equal and whose total is at
    most :data:`UNIFORM_PICK_MAX_TOTAL` is its total's worth of uniform
    subpage picks, counted: one bounded-integer draw covers every such
    row.  Every other row is a ``rng.multinomial`` row, drawn in row order
    after the picks.  Rows of neither kind touch ``rng`` when their total
    is 0, so a batch without a nonzero even row draws what a multinomial
    of every row draws.
    """
    even = (weights.min(axis=1) == weights.max(axis=1)) & (totals <= UNIFORM_PICK_MAX_TOTAL)
    picked = _uniform_pick_rows(totals[even], rng)
    rest = ~even
    # A page without traffic has equal (zero) rates and a zero total, so it
    # is even: every other row has a positive rate.
    pvals = weights[rest] / huge_rates[rest, None]
    # Allocated after the picks' temporaries are freed.  Allocated before
    # them, the rows sat below them in the heap, and freeing the epoch's
    # profile at the end of the engine step trimmed the heap each epoch.
    rows = np.empty(weights.shape, dtype=np.int64)
    rows[even] = picked
    rows[rest] = rng.multinomial(totals[rest], pvals)
    return rows


class Workload(abc.ABC):
    """One application's memory behaviour.

    Parameters
    ----------
    name:
        Identifier used in reports.
    resident_bytes / file_mapped_bytes:
        The Table 2 footprint components (file-mapped pages are part of the
        managed footprint because the paper maps them with hugetmpfs).
    baseline_ops_per_second:
        Throughput of the all-DRAM, THP-enabled baseline; used to convert
        slowdown fractions into the operations/sec the paper quotes.
    write_fraction:
        Fraction of memory accesses that are writes.
    burstiness:
        Sigma of a per-huge-page, per-epoch log-normal rate multiplier
        (mean 1).  Real request streams are bursty: a page's epoch-to-epoch traffic
        fluctuates around its long-run rate.  Burstiness is what produces
        genuine mis-classifications (a page measured during a lull looks
        cold) and hence the correction traffic of Table 3 and the
        slow-access-rate overshoots of Figure 3.  Zero disables it.
    duty_threshold / duty_floor:
        Per-*huge-page* duty cycling.  A 2MB page whose aggregate long-run
        rate is ``r`` is active in any given epoch with probability
        ``clip(r / duty_threshold, duty_floor, 1)``, and when active
        receives its traffic scaled by ``1/duty`` so the long-run rate is
        preserved.  This models the temporal clustering of real accesses:
        a page can be idle for a whole 10-second window while still having
        a substantial long-run rate — the phenomenon behind the paper's
        Figure 1 (many 2MB pages idle for 10s) and Figure 2 (idleness does
        not predict access rate), and the reason Accessed-bit-only
        policies cause unbounded slowdowns.  ``None`` disables it.
    duty_persistence:
        Expected length (in epochs) of an *idle* phase.  Activity follows a
        two-state Markov chain whose stationary on-probability is the duty
        value, so idleness comes in multi-epoch runs rather than flipping
        every epoch — real pages go quiet for minutes, not for exactly one
        scan interval.
    """

    def __init__(
        self,
        name: str,
        resident_bytes: int,
        file_mapped_bytes: int = 0,
        baseline_ops_per_second: float = 100_000.0,
        write_fraction: float = 0.1,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
    ) -> None:
        if resident_bytes <= 0:
            raise WorkloadError(f"{name}: resident_bytes must be positive")
        if file_mapped_bytes < 0:
            raise WorkloadError(f"{name}: file_mapped_bytes must be non-negative")
        if burstiness < 0:
            raise WorkloadError(f"{name}: burstiness must be non-negative")
        if duty_threshold is not None and duty_threshold <= 0:
            raise WorkloadError(f"{name}: duty_threshold must be positive")
        if not 0.0 < duty_floor <= 1.0:
            raise WorkloadError(f"{name}: duty_floor must be in (0, 1]")
        if duty_persistence < 1.0:
            raise WorkloadError(f"{name}: duty_persistence must be >= 1 epoch")
        self.name = name
        self.resident_bytes = resident_bytes
        self.file_mapped_bytes = file_mapped_bytes
        self.baseline_ops_per_second = baseline_ops_per_second
        self.write_fraction = write_fraction
        self.burstiness = burstiness
        self.duty_threshold = duty_threshold
        self.duty_floor = duty_floor
        self.duty_persistence = duty_persistence
        #: Markov activity state per huge page (lazily initialized).
        self._duty_on: np.ndarray | None = None
        #: The read-only rate vector last summed per 2MB page, and its sums.
        self._summed_rates: np.ndarray | None = None
        self._huge_rate_sums = np.empty(0)

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        """Total managed footprint (resident + file-mapped)."""
        return self.resident_bytes + self.file_mapped_bytes

    @property
    def total_base_pages(self) -> int:
        """Footprint in 4KB pages, padded to a 2MB boundary."""
        return pad_to_huge(bytes_to_pages(self.footprint_bytes, BASE_PAGE_SIZE))

    @property
    def total_huge_pages(self) -> int:
        """Footprint in 2MB pages."""
        return self.total_base_pages // SUBPAGES_PER_HUGE_PAGE

    def num_huge_pages_at(self, time: float) -> int:
        """Footprint (2MB pages) resident at ``time``.

        Static by default; growing workloads (Cassandra, analytics)
        override this.  Must be non-decreasing.
        """
        return self.total_huge_pages

    # ------------------------------------------------------------------
    # Access behaviour
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def rates_at(self, time: float) -> np.ndarray:
        """Per-4KB-page access rates (accesses/sec) at ``time``.

        The returned array has length ``num_huge_pages_at(time) * 512``.
        Returning the same read-only array again promises the same rates
        (its per-2MB sums are reused); rates that change come in a new
        array, or in a writable one, which is summed every epoch.
        """

    def huge_page_duty(self, rates: np.ndarray) -> np.ndarray | None:
        """Per-huge-page activity probability for one epoch.

        Derived from the aggregate 2MB-page rate: hotter pages are active
        every epoch; colder pages are active only occasionally (with their
        traffic compressed into the active epochs).  Returns ``None`` when
        duty cycling is disabled.
        """
        return self._duty(self._huge_rates(rates))

    def _huge_rates(self, rates: np.ndarray) -> np.ndarray:
        """Per-2MB-page sums of ``rates``, reused while ``rates`` is unchanged.

        By the :meth:`rates_at` contract the same read-only array means
        the same rates, so its sums are kept and handed out again.  A
        writable array is summed on every call.
        """
        if rates.flags.writeable:
            return rates.reshape(-1, SUBPAGES_PER_HUGE_PAGE).sum(axis=1)
        if rates is not self._summed_rates:
            sums = rates.reshape(-1, SUBPAGES_PER_HUGE_PAGE).sum(axis=1)
            sums.flags.writeable = False
            self._summed_rates, self._huge_rate_sums = rates, sums
        return self._huge_rate_sums

    def _duty(self, huge_rates: np.ndarray) -> np.ndarray | None:
        if self.duty_threshold is None:
            return None
        return np.clip(huge_rates / self.duty_threshold, self.duty_floor, 1.0)

    def _advance_duty_state(
        self, duty: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One Markov step of the per-huge-page activity chain.

        Off-runs last ``duty_persistence`` epochs on average; transition
        probabilities are chosen so the stationary on-probability equals
        ``duty``, keeping long-run page rates exact.
        """
        num = duty.size
        if self._duty_on is None:
            self._duty_on = rng.random(num) < duty
        elif self._duty_on.size < num:
            fresh = rng.random(num - self._duty_on.size) < duty[self._duty_on.size :]
            self._duty_on = np.concatenate([self._duty_on, fresh])
        on = self._duty_on[:num]
        wake = 1.0 / self.duty_persistence
        with np.errstate(divide="ignore", invalid="ignore"):
            sleep = np.where(
                duty > 0, wake * (1.0 - duty) / duty, 1.0
            )
        sleep = np.clip(sleep, 0.0, 1.0)
        draws = rng.random(num)
        new_on = np.where(on, draws >= sleep, draws < wake)
        self._duty_on = new_on
        return new_on

    def epoch_profile(
        self,
        start_time: float,
        duration: float,
        rng: np.random.Generator,
        stochastic: bool = True,
        resolve: np.ndarray | None = None,
    ) -> EpochProfile:
        """Render one epoch of accesses, top-down.

        With ``stochastic``, each 2MB page draws one Poisson total around
        its expected traffic — its summed subpage rates times
        ``duration``, scaled by the page's duty state and its burst
        multiplier — and the huge pages in ``resolve`` (every page when
        ``None``) get 4KB rows by multinomially splitting their totals
        across their subpage rates.  By Poisson thinning those rows are
        distributed exactly like independent per-4KB Poisson draws that
        share the page's multiplier.  Without ``stochastic`` every 4KB
        page gets its rounded expectation.

        The one modeling choice is the burst multiplier's grain: it is
        drawn per 2MB page, so a burst or lull moves a whole huge page —
        the grain Thermostat classifies and migrates at.

        The per-2MB rate sums are reused across epochs while
        :meth:`rates_at` returns the same read-only array (see
        :meth:`_huge_rates`).

        RNG contract: ``rng`` pays the same draws whatever is resolved —
        the duty chain, one burst factor and one Poisson total per huge
        page, then one seed — and the rows come from a generator built
        from that seed.  So the totals, and every later epoch, are the
        same whichever pages a caller resolves: resolving is a view of
        the draw, not a different draw.
        """
        if duration <= 0:
            raise WorkloadError(f"{self.name}: epoch duration must be positive")
        rates = np.asarray(self.rates_at(start_time), dtype=float)
        weights = rates.reshape(-1, SUBPAGES_PER_HUGE_PAGE)
        ids: slice | np.ndarray = (
            slice(None) if resolve is None else np.asarray(resolve, dtype=np.int64)
        )
        if stochastic:
            huge_rates = self._huge_rates(rates)
            expected = huge_rates * duration
            duty = self._duty(huge_rates)
            if duty is not None:
                active = self._advance_duty_state(duty, rng)
                expected = expected * np.where(active, 1.0 / duty, 0.0)
            if self.burstiness > 0:
                sigma = self.burstiness
                # Mean-one log-normal multiplier: bursts and lulls.
                expected = expected * rng.lognormal(
                    mean=-0.5 * sigma * sigma, sigma=sigma, size=expected.size
                )
            totals = rng.poisson(expected)
            resolver = np.random.default_rng(int(rng.integers(2**63)))
            rows = _split_totals(totals[ids], huge_rates[ids], weights[ids], resolver)
        else:
            rounded = np.rint(weights * duration).astype(np.int64)
            totals = rounded.sum(axis=1)
            rows = rounded[ids]
        if resolve is None:
            return EpochProfile(
                start_time, duration, rows.reshape(rates.size), self.write_fraction
            )
        return EpochProfile.sampled(
            start_time, duration, totals, resolve, rows, self.write_fraction
        )

    def total_access_rate(self, time: float = 0.0) -> float:
        """Aggregate accesses/sec across the footprint at ``time``."""
        return float(self.rates_at(time).sum())

    def describe(self) -> str:
        """Human-readable one-liner."""
        from repro.units import format_bytes

        return (
            f"{self.name}: RSS {format_bytes(self.resident_bytes)}, "
            f"file-mapped {format_bytes(self.file_mapped_bytes)}, "
            f"{self.total_huge_pages} huge pages"
        )


class RateModelWorkload(Workload):
    """A workload defined by a static per-page rate vector.

    The simplest concrete workload: a fixed rate array (padded with zero
    rates up to the 2MB boundary).  Most synthetic scenarios and tests use
    this directly; the application models build their rate vectors with
    :mod:`repro.workloads.distributions` and add time variation on top.

    The vector is kept read-only (:func:`static_rates`), so
    :meth:`rates_at` hands out the one array and every epoch reuses its
    per-2MB sums.  A subclass that changes rates builds a new array
    rather than writing into this one.  ``num_pages`` is the footprint
    in 4KB pages when ``rates`` comes already padded past it.
    """

    def __init__(
        self,
        name: str,
        rates: np.ndarray,
        file_mapped_bytes: int = 0,
        baseline_ops_per_second: float = 100_000.0,
        write_fraction: float = 0.1,
        burstiness: float = 0.0,
        duty_threshold: float | None = None,
        duty_floor: float = 0.05,
        duty_persistence: float = 4.0,
        num_pages: int | None = None,
    ) -> None:
        self._rates, num_pages = static_rates(name, rates, num_pages)
        # The rate vector covers the whole managed footprint (resident plus
        # file-mapped, since hugetmpfs puts both under Thermostat's control).
        resident_bytes = num_pages * BASE_PAGE_SIZE - file_mapped_bytes
        if resident_bytes <= 0:
            raise WorkloadError(
                f"{name}: file_mapped_bytes exceeds the rate-vector footprint"
            )
        super().__init__(
            name,
            resident_bytes,
            file_mapped_bytes=file_mapped_bytes,
            baseline_ops_per_second=baseline_ops_per_second,
            write_fraction=write_fraction,
            burstiness=burstiness,
            duty_threshold=duty_threshold,
            duty_floor=duty_floor,
            duty_persistence=duty_persistence,
        )

    def rates_at(self, time: float) -> np.ndarray:
        return self._rates
