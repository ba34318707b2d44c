"""Deterministic random-number plumbing.

Reproducibility matters in a paper-reproduction artifact: the same seed must
yield the same figures.  Components never call the global ``numpy.random``
state; instead they receive a :class:`numpy.random.Generator` (or derive one
from a parent via :func:`child_rng`) so that adding a new consumer of
randomness does not perturb existing experiments.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Seed used by experiments when the caller does not provide one.
DEFAULT_SEED = 0xA5105  # "ASPLOS", approximately.


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a root generator from an integer seed.

    ``None`` maps to :data:`DEFAULT_SEED` rather than entropy from the OS so
    that experiment scripts are reproducible by default.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def label_seed(label: str) -> int:
    """Hash a string label into a stable 63-bit seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def child_rng(parent: np.random.Generator, label: str) -> np.random.Generator:
    """Derive a named generator from ``parent``.

    The child is seeded from the SHA-256 of ``label`` XORed with entropy drawn
    from the parent's seed sequence, so children with different labels are
    decorrelated from each other and from the parent regardless of the order
    in which they are requested.
    """
    seed_seq = parent.bit_generator.seed_seq
    parent_word = int(seed_seq.generate_state(1, np.uint64)[0])
    return np.random.default_rng((label_seed(label) ^ parent_word) & (2**63 - 1))


def retry_delay(base: float, attempt: int, jitter_draw: float = 0.0) -> float:
    """Exponential backoff after ``attempt`` failures: ``base·2^(attempt−1)·(1+jitter_draw)``.

    Pure: callers draw ``jitter_draw`` from their own stream (or pass none),
    so each retry schedule keeps the RNG consumption it always had.
    """
    return base * 2.0 ** (attempt - 1) * (1.0 + jitter_draw)
