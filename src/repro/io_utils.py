"""Persistence of betweenness results (scores + metadata).

Allows long approximation runs to be saved and reloaded for later analysis —
the counterpart of the score files the NetworKit/KADABRA tooling writes.  Two
formats:

* JSON (``save_result`` / ``load_result``): full metadata plus the score
  vector, self-describing and diff-friendly;
* CSV (``save_scores_csv``): one ``vertex,score`` row per vertex, convenient
  for spreadsheets and plotting tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.core.result import BetweennessResult

__all__ = ["save_result", "load_result", "save_scores_csv"]

PathLike = Union[str, Path]

def save_result(result: BetweennessResult, path: PathLike) -> None:
    """Serialize a result (scores and metadata) to a JSON file.

    The file holds exactly :meth:`BetweennessResult.to_json_dict` — the same
    schema the query service caches and returns (see ``docs/serving.md``).
    """
    Path(path).write_text(result.to_json())


def load_result(path: PathLike) -> BetweennessResult:
    """Load a result previously written by :func:`save_result`."""
    return BetweennessResult.from_json(Path(path).read_text())


def save_scores_csv(result: BetweennessResult, path: PathLike, *, header: bool = True) -> None:
    """Write ``vertex,score`` rows (one per vertex, in vertex order)."""
    lines = []
    if header:
        lines.append("vertex,betweenness")
    lines.extend(f"{v},{score!r}" for v, score in enumerate(result.scores.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")
