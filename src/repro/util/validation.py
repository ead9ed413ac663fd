"""Argument-validation helpers shared by the public API."""

from __future__ import annotations


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability strictly inside (0, 1)."""
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1); got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be > 0; got {value!r}")
    return value
