"""Shared utilities: statistics helpers and validation."""

from repro.util.stats import max_abs_error, relative_rank_overlap
from repro.util.validation import check_positive, check_probability

__all__ = [
    "max_abs_error",
    "relative_rank_overlap",
    "check_probability",
    "check_positive",
]
