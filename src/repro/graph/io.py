"""Graph input/output in KONECT/SNAP-style edge-list and METIS formats.

The paper reads its instances from the KONECT repository (which also mirrors
SNAP and the DIMACS challenges); these are whitespace-separated edge lists with
optional ``%`` or ``#`` comment lines.  Graphs are always read as undirected
and unweighted (extra columns such as weights or timestamps are ignored).
"""

from __future__ import annotations

import gzip
import warnings
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph

__all__ = [
    "iter_edge_chunks",
    "read_edge_list",
    "write_edge_list",
    "read_metis",
]

PathLike = Union[str, Path]
_COMMENT_PREFIXES = ("%", "#")

#: Default streaming chunk size for the vectorized edge-list parser.
DEFAULT_CHUNK_BYTES = 16 << 20


def _open_text(path: PathLike, mode: str = "rt"):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def _open_binary(path: PathLike):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _parse_block_slow(data: bytes) -> np.ndarray:
    """Reference per-line parser: handles ragged rows, rejects malformed ones."""
    sources: List[int] = []
    targets: List[int] = []
    for raw in data.decode("utf-8", errors="replace").split("\n"):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed edge line: {line!r}")
        sources.append(int(parts[0]))
        targets.append(int(parts[1]))
    if not sources:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack(
        (np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64))
    )


def _fromstring_checked(text: str, dtype) -> "np.ndarray | None":
    """``np.fromstring(..., sep=' ')`` that never returns a partial parse.

    NumPy >= 2 raises ``ValueError`` on trailing unparseable data, but 1.x
    only emits a ``DeprecationWarning`` and returns the prefix — which would
    let a malformed token slip through the fast path.  Any warning or error
    therefore signals "not cleanly parsed" and the caller falls back to the
    per-line parser.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = np.fromstring(text, dtype=dtype, sep=" ")
        except ValueError:
            return None
    if caught:
        return None
    return values


def _extract_id_columns(
    b: np.ndarray, ws: np.ndarray, starts: np.ndarray, width: int
) -> str:
    """The bytes of columns 0 and 1 only, as parseable text.

    Each kept token range is extended by one byte (the whitespace following
    it, if any) so the extracted tokens stay separated.  Fully vectorized:
    a +1/-1 delta array turned into a byte-keep mask by cumulative sum.
    """
    column = np.arange(starts.size, dtype=np.int64) % width
    keep_tokens = column < 2
    tok_end_marker = np.zeros(b.size, dtype=bool)
    tok_end_marker[1:] = ws[1:] & ~ws[:-1]
    ends = np.flatnonzero(tok_end_marker)
    if ends.size < starts.size:  # last token runs to end-of-buffer
        ends = np.append(ends, b.size)
    delta = np.zeros(b.size + 1, dtype=np.int32)
    np.add.at(delta, starts[keep_tokens], 1)
    np.add.at(delta, np.minimum(ends[keep_tokens] + 1, b.size), -1)
    mask = np.cumsum(delta[:-1]) > 0
    return b[mask].tobytes().decode("ascii")


def _strip_comment_lines(data: bytes) -> bytes:
    """Drop lines whose first byte is ``%`` or ``#`` (vectorized).

    Comment lines with *leading whitespace* are not detected here; they fall
    through to the numeric parse, which rejects them and routes the block to
    the per-line slow path — correctness is preserved either way.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(b == 10)
    line_starts = np.concatenate((np.zeros(1, dtype=np.int64), newlines + 1))
    line_starts = line_starts[line_starts < b.size]
    first_bytes = b[line_starts]
    comment_mask = (first_bytes == ord("%")) | (first_bytes == ord("#"))
    if not comment_mask.any():
        return data
    line_ends = np.concatenate((newlines, np.asarray([b.size - 1], dtype=np.int64)))
    line_ends = line_ends[: line_starts.size]
    keep = np.ones(b.size, dtype=bool)
    for i in np.flatnonzero(comment_mask):
        keep[line_starts[i] : line_ends[i] + 1] = False
    return b[keep].tobytes()


def _parse_edge_block(data: bytes) -> np.ndarray:
    """Parse one block of complete edge-list lines into an ``(k, 2)`` array.

    The hot path is fully vectorized: token boundaries are found with byte
    arithmetic and the numeric parse is a single ``np.fromstring`` call over
    the whole block.  Blocks with ragged row widths or non-numeric tokens fall
    back to the per-line reference parser (which raises on malformed lines),
    so the fast path never silently misparses.
    """
    if not data.strip():
        return np.empty((0, 2), dtype=np.int64)
    if b"%" in data or b"#" in data:
        data = _strip_comment_lines(data)
        if not data.strip():
            return np.empty((0, 2), dtype=np.int64)
    b = np.frombuffer(data, dtype=np.uint8)
    ws = (b == 32) | (b == 9) | (b == 10) | (b == 13) | (b == 11) | (b == 12)
    token_start = ~ws
    token_start[1:] &= ws[:-1]
    starts = np.flatnonzero(token_start)
    total_tokens = int(starts.size)
    if total_tokens == 0:
        return np.empty((0, 2), dtype=np.int64)
    # Tokens per line, without materialising the lines: a newline at byte
    # position p closes a line containing every token starting before p.
    newline_positions = np.flatnonzero(b == 10)
    bounds = np.searchsorted(starts, newline_positions)
    tokens_per_line = np.diff(
        np.concatenate((np.zeros(1, dtype=np.int64), bounds, [total_tokens]))
    )
    tokens_per_line = tokens_per_line[tokens_per_line > 0]
    width = int(tokens_per_line[0])
    if width < 2 or not (tokens_per_line == width).all():
        return _parse_block_slow(data)
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return _parse_block_slow(data)
    values = _fromstring_checked(text, np.int64)
    if values is not None and values.size == total_tokens:
        return np.ascontiguousarray(values.reshape(-1, width)[:, :2])
    # The full-block integer parse failed.  With only two columns the bad
    # token *is* a vertex id, and the per-line parser must reject it ('2.0',
    # '1e3', 'abc' were all errors in the reference parser).  With extra
    # columns (weights, timestamps — possibly floats) the ids may still be
    # clean: re-parse only the two id columns, with the same strictness.
    if width == 2:
        return _parse_block_slow(data)
    ids = _fromstring_checked(_extract_id_columns(b, ws, starts, width), np.int64)
    if ids is None or ids.size != 2 * (total_tokens // width):
        return _parse_block_slow(data)
    return ids.reshape(-1, 2)


def iter_edge_chunks(
    path: PathLike, *, chunk_bytes: int = DEFAULT_CHUNK_BYTES
):
    """Stream a whitespace edge list as ``(k, 2)`` int64 arrays of raw ids.

    This is the converter's out-of-core front end: the file is read in
    ``chunk_bytes`` slices (split at line boundaries), comments are filtered
    and each slice is parsed with the vectorized block parser — peak memory is
    bounded by the chunk size, not the file size.  Ids are yielded exactly as
    they appear in the file (no index-base shift, no dedup).
    """
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    carry = b""
    with _open_binary(path) as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            block = carry + block
            cut = block.rfind(b"\n")
            if cut < 0:
                carry = block
                continue
            carry = block[cut + 1 :]
            edges = _parse_edge_block(block[: cut + 1])
            if edges.size:
                yield edges
    if carry.strip():
        edges = _parse_edge_block(carry)
        if edges.size:
            yield edges


def read_edge_list(
    path: PathLike,
    *,
    zero_indexed: bool | None = None,
    num_vertices: int | None = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> CSRGraph:
    """Read a whitespace-separated edge list (KONECT / SNAP style).

    Parsing is chunked and vectorized (see :func:`iter_edge_chunks`); for
    graphs larger than RAM, convert to the binary ``.rcsr`` store instead
    (:mod:`repro.store`), which streams the same chunks out of core.

    Parameters
    ----------
    path:
        File path; ``.gz`` files are decompressed transparently.
    zero_indexed:
        If ``None`` (default) the indexing is auto-detected: when the minimum
        vertex id in the file is 1 and 0 never appears, ids are shifted down
        by one (KONECT convention); otherwise ids are used as-is.
    num_vertices:
        Optional explicit vertex count.
    chunk_bytes:
        Streaming parse chunk size (mostly for tests).
    """
    chunks = list(iter_edge_chunks(path, chunk_bytes=chunk_bytes))
    if not chunks:
        return CSRGraph.empty(num_vertices or 0)
    edges = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    min_id = int(edges.min())
    if zero_indexed is None:
        zero_indexed = min_id == 0
    if not zero_indexed:
        if min_id < 1:
            raise ValueError("one-indexed edge list contains vertex id < 1")
        edges = edges - 1
    builder = GraphBuilder(num_vertices=num_vertices)
    builder.add_edges(edges)
    return builder.build()


def write_edge_list(graph: CSRGraph, path: PathLike, *, header: bool = True) -> None:
    """Write the graph as a zero-indexed edge list (one ``u v`` pair per line)."""
    path = Path(path)
    with _open_text(path, "wt") as handle:
        if header:
            handle.write(f"% undirected graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v in graph.iter_edges():
            handle.write(f"{u} {v}\n")


def read_metis(path: PathLike) -> CSRGraph:
    """Read a graph in METIS adjacency format (unweighted).

    The first non-comment line contains ``n m [fmt]``; line ``i`` (1-based)
    lists the neighbours of vertex ``i`` using 1-based ids.
    """
    with _open_text(path) as handle:
        lines = [ln.strip() for ln in handle]
    lines = [ln for ln in lines if ln and not ln.startswith(_COMMENT_PREFIXES)]
    if not lines:
        raise ValueError("empty METIS file")
    header = lines[0].split()
    n = int(header[0])
    declared_m = int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    if fmt not in ("0", "00", "000"):
        raise ValueError(f"unsupported METIS format code {fmt!r} (only unweighted graphs)")
    if len(lines) - 1 < n:
        raise ValueError(f"METIS file declares {n} vertices but has {len(lines) - 1} adjacency lines")
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        for token in lines[1 + u].split():
            v = int(token) - 1
            if v < 0 or v >= n:
                raise ValueError(f"METIS neighbour id {token} out of range for n={n}")
            if u < v:
                edges.append((u, v))
    graph = CSRGraph.from_edges(edges, num_vertices=n)
    if graph.num_edges != declared_m:
        # Some writers count self-loops or duplicates differently; accept but
        # only when the discrepancy is small is not knowable here, so accept.
        pass
    return graph
