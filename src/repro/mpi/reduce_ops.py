"""The one reduction operator of the MPI-like communicators: ``sum``.

Algorithms 1 and 2 reduce by summation only: state frames (calibration and
every epoch), and numpy arrays and scalars alike.  Two sparse frames sum by
concatenation (dense once that reaches a third of the vertices); a sparse
frame meets a dense one by ``np.add.at`` into a copy of the dense one.  The
counters are integers, so any mix in any order sums to the dense sum bit for
bit.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.state_frame import SparseFrame, StateFrame

__all__ = ["reduce_op"]


def _sum(a: Any, b: Any) -> Any:
    if isinstance(a, SparseFrame) and isinstance(b, StateFrame):
        a, b = b, a
    if isinstance(a, StateFrame):
        return a.copy().add_into(b)
    return a + b


def reduce_op(name: str) -> Callable[[Any, Any], Any]:
    """The named reduction operator; ``"sum"`` is the only one."""
    if name != "sum":
        raise ValueError(f"unknown reduction op {name!r}; the only one is 'sum'")
    return _sum
