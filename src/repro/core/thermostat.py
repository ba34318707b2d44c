"""Thermostat's scan-interval orchestration (epoch-engine driver).

One :class:`ThermostatPolicy` invocation corresponds to the end of a scan
interval in the paper's Figure 4 pipeline:

* the huge pages sampled at the *previous* invocation were split and their
  subpages poisoned during the epoch that just elapsed — their fault
  counts are now in hand;
* the estimator (Section 3.2) extrapolates per-huge-page access rates;
* the classifier (Section 3.4) demotes the coldest sampled pages within
  the sampled share of the slowdown budget;
* the correction mechanism (Section 3.5) reads the monitored counts of
  every page already in slow memory and promotes the hottest back until
  the residual slow access rate fits the budget;
* khugepaged collapses the sampled pages back to 2MB mappings and a fresh
  5% sample is split for the *next* epoch.

Monitoring honesty: the policy touches per-page counts only where the real
mechanism could observe them — poisoned subpages of sampled pages (capped
by TLB residency for hot pages) and slow-memory pages (whose every access
faults).  Everything else it sees only as Accessed bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ThermostatConfig
from repro.core.classifier import select_cold_pages
from repro.core.correction import select_promotions
from repro.core.estimator import estimate_rates_vectorized
from repro.core.sampling import CyclingSampler, poison_scan_batch
from repro.errors import ConfigError
from repro.kernel.cgroup import MemoryCgroup
from repro.obs import truncate_pages
from repro.obs.metrics import RATE_BUCKETS
from repro.sim.policy import PlacementPolicy, PolicyReport
from repro.sim.profile import EpochProfile
from repro.sim.state import TieredMemoryState
from repro.units import BADGERTRAP_FAULT_LATENCY, HUGE_PAGE_SIZE, MICROSECOND

#: Cost of one Accessed-bit clear + TLB shootdown during sampling scans.
SHOOTDOWN_COST = 0.5 * MICROSECOND
#: Maximum poison-fault rate a single hot subpage can sustain, faults/sec.
#: After each fault BadgerTrap leaves a valid TLB entry behind, so a hot
#: subpage faults only on TLB misses — this cap models that throttling
#: (the paper's Section 6.1 notes the measurement serializes accesses).
DEFAULT_POISON_FAULT_RATE_CAP = 100.0


@dataclass(frozen=True)
class PlacementPlan:
    """One scan interval's placement decisions, as concrete page ids.

    A :class:`~repro.sim.policy.PolicyReport` carries only counts; online
    consumers (the placement service's decision payloads and its
    last-known-good decision cache) need the ids themselves.  The policy
    snapshots this at the end of every :meth:`ThermostatPolicy.on_epoch`
    from arrays it already computed — building it is pure bookkeeping, so
    offline runs are unaffected.
    """

    #: Pages requested for demotion this interval (submission order).
    demote_requested: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Pages whose demotion was deferred (backpressure / exhausted retries).
    deferred: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Pages promoted back by the correction mechanism.
    promoted: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Pages classified cold this interval (ascending estimated rate).
    cold: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Pages classified hot this interval (ascending estimated rate).
    hot: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Huge pages split for monitoring during the *next* interval.
    sampled: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    #: Estimated access rate per huge page (NaN = not sampled this interval).
    epoch_rates: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_payload(self) -> dict:
        """JSON-able form (page-id lists), for service decision records."""
        return {
            "demote": [int(p) for p in self.demote_requested],
            "deferred": [int(p) for p in self.deferred],
            "promote": [int(p) for p in self.promoted],
            "cold": [int(p) for p in self.cold],
            "hot": [int(p) for p in self.hot],
            "sampled": [int(p) for p in self.sampled],
        }


class ThermostatPolicy(PlacementPolicy):
    """The paper's policy, parameterized by a config or a live cgroup."""

    name = "thermostat"

    def __init__(
        self,
        config: ThermostatConfig | MemoryCgroup | None = None,
        fault_latency: float = BADGERTRAP_FAULT_LATENCY,
        poison_fault_rate_cap: float = DEFAULT_POISON_FAULT_RATE_CAP,
    ) -> None:
        if config is None:
            config = ThermostatConfig()
        if isinstance(config, ThermostatConfig):
            self.cgroup = MemoryCgroup("thermostat", config)
        else:
            self.cgroup = config
        self.fault_latency = fault_latency
        self.poison_fault_rate_cap = poison_fault_rate_cap
        #: Huge pages split at the previous invocation, being monitored now.
        self._pending_sample: np.ndarray = np.empty(0, dtype=np.int64)
        #: Per-huge-page EWMA of observed slow-memory access rates.  A cold
        #: page that bursts one interval and idles the next must not be
        #: forgotten the moment it idles, or the correction mechanism would
        #: trim to the budget using only this interval's observations and
        #: the *long-run* slow access rate would settle above target.
        self._slow_rate_ewma: np.ndarray = np.empty(0)
        #: EWMA smoothing factor (weight of the newest interval).
        self.ewma_alpha = 0.3
        #: Backoff flag: when the last interval observed the slow set over
        #: budget, pause demotions for one interval and let the correction
        #: mechanism drain the excess first.
        self._over_budget = False
        #: Cold-classified pages whose demotion was deferred (slow-tier
        #: backpressure or exhausted migration retries); re-offered at the
        #: head of the next interval's demotion list.
        self._deferred_cold: np.ndarray = np.empty(0, dtype=np.int64)
        #: Without-replacement sampler (built lazily with the policy rng).
        self._sampler: CyclingSampler | None = None
        #: Host-imposed fast-tier budget (bytes of DRAM this instance may
        #: occupy).  ``None`` means unconstrained — the historical
        #: single-tenant behavior.  The fleet arbiter sets this on every
        #: grant change; when the fast-resident footprint exceeds it, the
        #: policy force-demotes its coldest-known pages until it fits.
        self.dram_budget_bytes: int | None = None
        #: Concrete page-id decisions of the most recent interval; online
        #: consumers (the placement service) read this after each step.
        self.last_plan: PlacementPlan = PlacementPlan()

    def set_dram_budget(self, nbytes: int | None) -> None:
        """Install (or clear) the host's fast-tier budget directive."""
        if nbytes is not None and nbytes < 0:
            raise ConfigError(f"dram budget must be >= 0: {nbytes}")
        self.dram_budget_bytes = nbytes

    @property
    def config(self) -> ThermostatConfig:
        """Live parameters (re-read every epoch; cgroup writes take effect)."""
        return self.cgroup.config

    # ------------------------------------------------------------------

    def on_epoch(
        self,
        state: TieredMemoryState,
        profile: EpochProfile,
        rng: np.random.Generator,
    ) -> PolicyReport:
        cfg = self.config
        obs = self.observer
        now = state.clock.now
        epoch = profile.duration
        budget = cfg.slow_access_rate_budget
        slow_before = state.slow_mask().copy()
        overhead = 0.0
        demoted = promoted = 0
        diagnostics: dict = {}
        demote_candidates = np.empty(0, dtype=np.int64)
        cold_ids = np.empty(0, dtype=np.int64)
        hot_ids = np.empty(0, dtype=np.int64)
        promoted_ids = np.empty(0, dtype=np.int64)
        #: This interval's estimated rate per huge page; NaN = not sampled.
        epoch_rates = np.full(state.num_huge_pages, np.nan)
        # Rate-limit demotion (migration is throttled in practice); after an
        # over-budget interval, pause entirely — demoting while the
        # correction mechanism is still draining excess slow traffic only
        # prolongs the overshoot.
        demotion_cap = max(1, int(cfg.max_demotion_fraction * state.num_huge_pages))
        if self._over_budget:
            demotion_cap = 0
        if self._slow_rate_ewma.size < state.num_huge_pages:
            self._slow_rate_ewma = np.concatenate(
                [
                    self._slow_rate_ewma,
                    np.zeros(state.num_huge_pages - self._slow_rate_ewma.size),
                ]
            )

        # ------------------------------------------------------------------
        # Scan 3 — classify the pages sampled last interval (Section 3.4).
        # ------------------------------------------------------------------
        sample = self._pending_sample
        sample = sample[sample < state.num_huge_pages]
        # Only pages split in *this* state were monitored: a policy handed
        # a fresh engine (live retuning) finds its old sample unsplit.
        sample = sample[state.split[sample]]
        if sample.size:
            with obs.phase("sample"):
                scan = poison_scan_batch(
                    profile.subpage_rows(sample),
                    cfg.max_poisoned_subpages,
                    rng,
                    use_prefilter=cfg.enable_accessed_prefilter,
                    fault_cap=self.poison_fault_rate_cap * epoch,
                )
                poisoned_sums = scan.observed_sums
                poisoned_pages = scan.poisoned_per_page
                # Faults on slow-tier pages are already slow accesses
                # charged by the engine; only fast-tier monitoring adds
                # overhead.
                sampling_faults = float(
                    poisoned_sums[~slow_before[sample]].sum()
                )

            with obs.phase("classify"):
                estimated = estimate_rates_vectorized(
                    scan.num_accessed, poisoned_sums, poisoned_pages, epoch
                )
                epoch_rates[sample] = estimated
                sample_share = sample.size / max(state.num_huge_pages, 1)
                classification = select_cold_pages(
                    sample, estimated, sample_share * budget, obs=obs
                )
                cold_ids = classification.cold_pages
                hot_ids = classification.hot_pages
                cold_now_fast = classification.cold_pages[
                    ~slow_before[classification.cold_pages]
                ]
                # ``cold_pages`` is coldest-first, so truncating to the
                # demotion cap keeps exactly the coldest candidates.
                demote_candidates = cold_now_fast[:demotion_cap]

            # Accessed-bit scans on split pages: one shootdown per subpage
            # per scan (split scan + poison scan).
            overhead += sampling_faults * self.fault_latency
            overhead += 2 * sample.size * 512 * SHOOTDOWN_COST

            diagnostics["estimated_rates_mean"] = float(estimated.mean())
            diagnostics["cold_selected"] = int(classification.cold_pages.size)
            diagnostics["cold_rate"] = classification.cold_rate
            diagnostics["sample_budget"] = classification.budget

            if obs.active:
                obs.emit(
                    "poison",
                    "poison_counts",
                    now,
                    sampled_pages=int(sample.size),
                    poisoned_subpages=int(poisoned_pages.sum()),
                    capped_fault_rate=self.poison_fault_rate_cap,
                    sampling_fault_count=sampling_faults,
                )
                obs.emit(
                    "classify",
                    "verdict",
                    now,
                    sampled=int(sample.size),
                    cold=int(classification.cold_pages.size),
                    hot=int(classification.hot_pages.size),
                    cold_rate=classification.cold_rate,
                    budget=classification.budget,
                    cold_pages=truncate_pages(classification.cold_pages),
                    cold_rates=np.nan_to_num(
                        epoch_rates[
                            np.asarray(
                                truncate_pages(classification.cold_pages),
                                dtype=np.int64,
                            )
                        ]
                    ).tolist(),
                )
                obs.inc(
                    "repro_thermostat_poisoned_subpages_total",
                    float(poisoned_pages.sum()),
                )
                obs.observe("repro_thermostat_estimated_rate", estimated, RATE_BUCKETS)

        # ------------------------------------------------------------------
        # Host budget directive — when the arbiter capped this instance's
        # DRAM share below its fast-resident footprint, force-demote the
        # coldest-known pages until the footprint fits.  Pages the sampler
        # rated this interval go coldest-first; unrated pages (rate
        # unknown) are kept fast longest.  Budget pressure overrides the
        # over-budget demotion pause: the host's capacity math cannot wait
        # for the correction mechanism to drain.
        # ------------------------------------------------------------------
        budget_forced = np.empty(0, dtype=np.int64)
        if self.dram_budget_bytes is not None:
            fast_ids = np.flatnonzero(~slow_before)
            over_bytes = fast_ids.size * HUGE_PAGE_SIZE - self.dram_budget_bytes
            if over_bytes > 0 and fast_ids.size:
                demotion_cap = max(
                    demotion_cap,
                    max(1, int(cfg.max_demotion_fraction * state.num_huge_pages)),
                )
                need = min(-(-over_bytes // HUGE_PAGE_SIZE), demotion_cap)
                rates = epoch_rates[fast_ids]
                known = np.where(np.isnan(rates), np.inf, rates)
                order = np.argsort(known, kind="stable")
                budget_forced = fast_ids[order[:need]]
                diagnostics["budget_forced_demotions"] = int(budget_forced.size)
                if obs.active:
                    obs.emit(
                        "migrate",
                        "budget_directive",
                        now,
                        budget_bytes=int(self.dram_budget_bytes),
                        over_bytes=int(over_bytes),
                        forced=int(budget_forced.size),
                        pages=truncate_pages(budget_forced),
                    )

        # ------------------------------------------------------------------
        # Demote — fresh classifications plus re-planned deferrals.  Pages
        # whose demotion was deferred last interval (backpressure, failed
        # migrations) go to the head of the list; the engine's graceful
        # degradation means state.demote never raises under pressure.
        # ------------------------------------------------------------------
        with obs.phase("migrate"):
            carry = self._deferred_cold
            if carry.size:
                carry = carry[carry < state.num_huge_pages]
                carry = carry[~slow_before[carry]]
                if demotion_cap == 0:
                    carry = carry[:0]
            if carry.size or budget_forced.size:
                combined = np.concatenate(
                    [budget_forced, carry, demote_candidates]
                )
                _, first_seen = np.unique(combined, return_index=True)
                combined = combined[np.sort(first_seen)][:demotion_cap]
            else:
                combined = demote_candidates
            demoted = state.demote(combined)
            self._deferred_cold = state.last_deferred_demotions.copy()
            deferred = int(self._deferred_cold.size)
            # Seed the correction EWMA with the estimated rates so a newly
            # demoted page is not presumed free until proven otherwise.
            if combined.size:
                seeded = epoch_rates[combined]
                self._slow_rate_ewma[combined] = np.where(
                    np.isnan(seeded), self._slow_rate_ewma[combined], seeded
                )
            if deferred:
                diagnostics["deferred_demotions"] = deferred
        if obs.active and (combined.size or deferred):
            obs.emit(
                "migrate",
                "demote",
                now,
                requested=int(combined.size),
                demoted=demoted,
                deferred=deferred,
                reason="backpressure" if deferred else "classified_cold",
                pages=truncate_pages(combined),
            )
            obs.inc("repro_thermostat_demoted_pages_total", demoted)
            obs.inc("repro_thermostat_deferred_pages_total", deferred)

        # ------------------------------------------------------------------
        # Correction — monitor every page that spent the epoch in slow
        # memory (Section 3.5).
        # ------------------------------------------------------------------
        if cfg.enable_correction:
            with obs.phase("correct"):
                slow_ids = np.flatnonzero(slow_before)
                if slow_ids.size:
                    observed_rates = profile.huge_counts()[slow_ids] / epoch
                    alpha = self.ewma_alpha
                    self._slow_rate_ewma[slow_ids] = (
                        alpha * observed_rates
                        + (1.0 - alpha) * self._slow_rate_ewma[slow_ids]
                    )
                    # Promote by the larger of this interval's observation
                    # (the paper's Section 3.5 sorts by current access
                    # counts, which catches pages the moment they burst) and
                    # the EWMA (which remembers chronically hot pages
                    # through their lulls).
                    assessed = np.maximum(
                        observed_rates, self._slow_rate_ewma[slow_ids]
                    )
                    correction = select_promotions(
                        slow_ids, assessed * epoch, budget, epoch
                    )
                    promoted = state.promote(correction.promote)
                    promoted_ids = correction.promote
                    self._slow_rate_ewma[correction.promote] = 0.0
                    self._over_budget = correction.observed_rate > budget
                    diagnostics["slow_observed_rate"] = float(observed_rates.sum())
                    diagnostics["slow_residual_rate"] = correction.residual_rate
                    if obs.active and correction.promote.size:
                        obs.emit(
                            "correct",
                            "promote",
                            now,
                            promoted=promoted,
                            observed_rate=correction.observed_rate,
                            residual_rate=correction.residual_rate,
                            reason="misclassified_hot",
                            pages=truncate_pages(correction.promote),
                        )
                else:
                    self._over_budget = False
            if obs.active:
                obs.inc("repro_thermostat_promoted_pages_total", promoted)

        # ------------------------------------------------------------------
        # khugepaged collapses the finished sample; scan 1 of the next
        # period splits a fresh one.
        # ------------------------------------------------------------------
        with obs.phase("sample"):
            if sample.size:
                state.set_split(sample, False)
            if self._sampler is None:
                self._sampler = CyclingSampler(rng)
            new_sample = self._sampler.next_sample(
                state.num_huge_pages, cfg.sample_fraction
            )
            state.set_split(new_sample, True)
            self._pending_sample = new_sample
            diagnostics["sampled"] = int(new_sample.size)
        if obs.active:
            obs.emit(
                "sample",
                "split_sample",
                now,
                sampled=int(new_sample.size),
                sample_fraction=cfg.sample_fraction,
                pages=truncate_pages(new_sample),
            )
            obs.inc("repro_thermostat_sampled_pages_total", int(new_sample.size))

        self.last_plan = PlacementPlan(
            demote_requested=combined,
            deferred=self._deferred_cold,
            promoted=promoted_ids,
            cold=cold_ids,
            hot=hot_ids,
            sampled=new_sample,
            epoch_rates=epoch_rates,
        )
        return PolicyReport(
            overhead_seconds=overhead,
            demoted=demoted,
            promoted=promoted,
            deferred=deferred,
            diagnostics=diagnostics,
        )
