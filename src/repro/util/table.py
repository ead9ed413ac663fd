"""Plain-text column tables, as ``--list-backends`` and ``--list-kernels`` print them."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart under a dashed rule; no trailing blanks."""
    widths = [max([len(h), *(len(row[i]) for row in rows)]) for i, h in enumerate(headers)]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    return "\n".join([line(headers), "  ".join("-" * w for w in widths), *map(line, rows)])
