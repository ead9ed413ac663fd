"""Statistics helpers for comparing score vectors (examples and tests)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def max_abs_error(approx: Sequence[float], exact: Sequence[float]) -> float:
    """Maximum absolute deviation between two score vectors."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def mean_abs_error(approx: Sequence[float], exact: Sequence[float]) -> float:
    """Mean absolute deviation between two score vectors."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.mean(np.abs(a - b)))


def relative_rank_overlap(approx: Sequence[float], exact: Sequence[float], k: int) -> float:
    """Fraction of the exact top-k vertices recovered in the approximate top-k."""
    if k <= 0:
        raise ValueError("k must be positive")
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    k = min(k, a.size)
    if k == 0:
        return 1.0
    top_a = set(np.argsort(-a, kind="stable")[:k].tolist())
    top_b = set(np.argsort(-b, kind="stable")[:k].tolist())
    return len(top_a & top_b) / k


def kendall_tau_top_k(approx: Sequence[float], exact: Sequence[float], k: int) -> float:
    """Kendall-tau-style pairwise agreement restricted to the exact top-k vertices.

    Returns the fraction of concordant ordered pairs (ties count as half), in
    [0, 1].  Used by tests to check that the approximation preserves the
    ranking of high-betweenness vertices.
    """
    if k <= 1:
        return 1.0
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    k = min(k, a.size)
    top = np.argsort(-b, kind="stable")[:k]
    concordant = 0.0
    pairs = 0
    for i in range(k):
        for j in range(i + 1, k):
            u, v = top[i], top[j]
            exact_sign = np.sign(b[u] - b[v])
            approx_sign = np.sign(a[u] - a[v])
            pairs += 1
            if exact_sign == 0 or approx_sign == 0:
                concordant += 0.5
            elif exact_sign == approx_sign:
                concordant += 1.0
    if pairs == 0:
        return 1.0
    return concordant / pairs


def harmonic_number(n: int) -> float:
    """The n-th harmonic number (used by sample-size heuristics in tests)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 0.0
    return float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64)))
