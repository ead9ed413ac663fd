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
