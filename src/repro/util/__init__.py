"""Shared utilities: statistics helpers, validation, logging."""

from repro.util.stats import (
    max_abs_error,
    mean_abs_error,
    relative_rank_overlap,
    kendall_tau_top_k,
)
from repro.util.validation import (
    check_probability,
    check_positive,
    check_non_negative,
    check_vertex,
)

__all__ = [
    "max_abs_error",
    "mean_abs_error",
    "relative_rank_overlap",
    "kendall_tau_top_k",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_vertex",
]
