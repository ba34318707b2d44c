"""Request-latency percentiles under two-tier placement.

The paper reports not just throughput but tail behaviour: "~1% higher
average, 95th, and 99th percentile read/write latency for Cassandra",
"average read/write latency 3.5% higher" for Redis, and "no observable
degradation in 99th percentile latency" for web search.

This model derives those percentiles analytically.  A request performs
``accesses_per_op`` memory accesses; each one independently lands in slow
memory with probability ``q`` (the fraction of the access stream going to
the slow tier).  The per-request extra latency is then
``Binomial(n, q) * (t_slow - t_fast)``, layered on a base service time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import DRAM_LATENCY, SLOW_MEMORY_LATENCY


@dataclass(frozen=True)
class LatencyModel:
    """Per-request latency under a slow-access probability ``q``."""

    base_latency: float
    accesses_per_op: float
    slow_latency: float = SLOW_MEMORY_LATENCY
    fast_latency: float = DRAM_LATENCY

    def __post_init__(self) -> None:
        if self.base_latency <= 0:
            raise ConfigError(f"base_latency must be positive: {self.base_latency}")
        if self.accesses_per_op <= 0:
            raise ConfigError(
                f"accesses_per_op must be positive: {self.accesses_per_op}"
            )
        if self.slow_latency <= self.fast_latency:
            raise ConfigError("slow_latency must exceed fast_latency")

    def _extra_per_slow_access(self) -> float:
        return self.slow_latency - self.fast_latency

    def percentile(self, q: float, percentile: float) -> float:
        """Request latency at ``percentile`` (0-100) for slow-probability ``q``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"q must be in [0, 1]: {q}")
        if not 0.0 < percentile < 100.0:
            raise ConfigError(f"percentile must be in (0, 100): {percentile}")
        n = int(round(self.accesses_per_op))
        slow_accesses = binomial_quantile(percentile / 100.0, n, q)
        return self.base_latency + slow_accesses * self._extra_per_slow_access()

    def mean(self, q: float) -> float:
        """Mean request latency for slow-probability ``q``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"q must be in [0, 1]: {q}")
        return self.base_latency + (
            self.accesses_per_op * q * self._extra_per_slow_access()
        )

    def degradation(self, q: float, percentile: float | None = None) -> float:
        """Fractional latency increase vs the all-fast baseline.

        With ``percentile=None`` the mean is compared; otherwise the given
        percentile.  All-fast baseline means ``q = 0``.
        """
        if percentile is None:
            return self.mean(q) / self.mean(0.0) - 1.0
        return self.percentile(q, percentile) / self.percentile(0.0, percentile) - 1.0

    def mean_response(self, q: float, utilization: float) -> float:
        """Mean *response* time including queueing amplification.

        A loaded server amplifies service-time inflation: under an M/M/1
        approximation with baseline utilization ``rho``, response time is
        ``s / (1 - rho * s/s0)`` where ``s`` is the per-request service
        time at slow-probability ``q`` and ``s0`` the all-fast service
        time.  This is why measured mean latencies (the paper's +3.5% for
        Redis) exceed the raw per-request stall arithmetic.
        """
        if not 0.0 <= utilization < 1.0:
            raise ConfigError(f"utilization must be in [0, 1): {utilization}")
        service = self.mean(q)
        effective_rho = utilization * service / self.mean(0.0)
        if effective_rho >= 1.0:
            raise ConfigError(
                f"service inflation saturates the server: rho={effective_rho:.3f}"
            )
        return service / (1.0 - effective_rho)

    def degradation_with_queueing(self, q: float, utilization: float) -> float:
        """Mean response-time increase vs all-fast, at ``utilization``."""
        return (
            self.mean_response(q, utilization)
            / self.mean_response(0.0, utilization)
            - 1.0
        )


def binomial_quantile(p: float, n: int, q: float) -> int:
    """Smallest ``k`` with ``P(Binomial(n, q) <= k) >= p``.

    Walks the CDF term by term.  The float sum cannot resolve a ``p``
    within rounding distance of 1; the model asks for p50/p95/p99.
    """
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * q**k * (1.0 - q) ** (n - k)
        if cdf >= p:
            return k
    return n


def latency_report(
    model: LatencyModel, q: float, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
) -> dict[str, float]:
    """Mean plus percentile degradations as a flat dict."""
    report = {"mean": model.degradation(q)}
    for percentile in percentiles:
        report[f"p{percentile:g}"] = model.degradation(q, percentile)
    return report


def slow_access_probability(slow_rate: float, total_rate: float) -> float:
    """Fraction of the access stream hitting slow memory."""
    if slow_rate < 0 or total_rate <= 0:
        raise ConfigError(
            f"rates must be slow_rate >= 0, total_rate > 0: "
            f"{slow_rate}, {total_rate}"
        )
    return min(1.0, slow_rate / total_rate)
