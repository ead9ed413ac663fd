"""Reduction operators usable by the MPI-like communicators.

MPI reductions require associative (and here also commutative) operators.  The
operators below cover everything the betweenness drivers need: summation of
state frames, elementwise numpy sums, and scalar sum/min/max/logical-or
reductions used for control values.  Two sparse frames sum by concatenation
(dense once that reaches a third of the vertices); a sparse frame meets a
dense one by ``np.add.at`` into a copy of the dense one.  The counters are
integers, so any mix in any order sums to the dense sum bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.state_frame import SparseFrame, StateFrame

__all__ = ["REDUCE_OPS", "reduce_op", "combine"]


def _sum(a: Any, b: Any) -> Any:
    if isinstance(a, SparseFrame) and isinstance(b, StateFrame):
        a, b = b, a
    if isinstance(a, StateFrame):
        return a.copy().add_into(b)
    return a + b


def _max(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _min(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _lor(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray):
        return np.logical_or(a, b)
    return bool(a) or bool(b)


def _land(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray):
        return np.logical_and(a, b)
    return bool(a) and bool(b)


REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _sum,
    "max": _max,
    "min": _min,
    "lor": _lor,
    "land": _land,
}


def reduce_op(name: str) -> Callable[[Any, Any], Any]:
    """Look up a named reduction operator."""
    try:
        return REDUCE_OPS[name]
    except KeyError:
        raise ValueError(f"unknown reduction op {name!r}; known: {sorted(REDUCE_OPS)}") from None


def combine(op: str, values: list[Any]) -> Any:
    """Fold ``values`` with the named operator (for testing and local use)."""
    if not values:
        raise ValueError("combine() requires at least one value")
    fn = reduce_op(op)
    acc = values[0]
    if isinstance(acc, StateFrame):
        acc = acc.copy()
    elif isinstance(acc, np.ndarray):
        acc = acc.copy()
    for value in values[1:]:
        acc = fn(acc, value)
    return acc
