"""The ``.rcsr`` binary CSR container: one header, two page-aligned sections.

The paper's algorithms assume that every worker shares one read-only CSR graph
at near-zero cost.  Re-parsing a whitespace edge list on every run (and on
every rank) makes graph load dominate end-to-end time long before sampling
does; the ``.rcsr`` container removes that cost.  A file holds exactly the two
arrays of :class:`~repro.graph.csr.CSRGraph`:

========  ======================  =========================================
offset    field                   meaning
========  ======================  =========================================
0         ``magic``               ``b"RCSR"``
4         ``version`` (u16)       format version, currently 1
6         ``indptr_dtype`` (u8)   dtype code of ``indptr`` (1 = int64)
7         ``indices_dtype`` (u8)  dtype code of ``indices`` (0 = uint32,
                                  1 = int64)
8         ``num_vertices`` (u64)  ``n``
16        ``num_arcs`` (u64)      ``len(indices)`` = ``2 m``
24        ``indptr_offset`` (u64) file offset of the ``indptr`` section
32        ``indices_offset``      file offset of the ``indices`` section
          (u64)
40        ``file_size`` (u64)     expected total file size in bytes
48        ``crc_indptr`` (u32)    CRC-32 of the ``indptr`` section
52        ``crc_indices`` (u32)   CRC-32 of the ``indices`` section
========  ======================  =========================================

Both array sections start on a 4096-byte page boundary so that
:func:`numpy.memmap` maps them without copying and the OS page cache shares
the (read-only) pages across every process that opens the same file —
including workers forked after the open.  Opening is O(header): no text
parsing, no array copy, independent of graph size.
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.csr import CSRGraph

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "PAGE_SIZE",
    "RcsrHeader",
    "StoreFormatError",
    "header_checksum",
    "open_rcsr",
    "read_header",
    "write_rcsr",
]

PathLike = Union[str, Path]

MAGIC = b"RCSR"
FORMAT_VERSION = 1
PAGE_SIZE = 4096

#: struct layout of the fixed part of the header (see module docstring).
_HEADER_STRUCT = struct.Struct("<4sHBBQQQQQII")
#: the header occupies one page; array sections start page-aligned after it.
HEADER_SIZE = PAGE_SIZE

_DTYPE_CODES = {0: np.dtype(np.uint32), 1: np.dtype(np.int64)}
_CODE_FOR_DTYPE = {dtype: code for code, dtype in _DTYPE_CODES.items()}

#: chunk size for streaming CRC computation (bytes).
_CRC_CHUNK = 1 << 24


class StoreFormatError(ValueError):
    """Raised for files that are not valid ``.rcsr`` containers."""


@dataclass(frozen=True)
class RcsrHeader:
    """Decoded ``.rcsr`` header."""

    version: int
    indptr_dtype: np.dtype
    indices_dtype: np.dtype
    num_vertices: int
    num_arcs: int
    indptr_offset: int
    indices_offset: int
    file_size: int
    crc_indptr: int
    crc_indices: int

    @property
    def num_edges(self) -> int:
        return self.num_arcs // 2

    @property
    def indptr_nbytes(self) -> int:
        return (self.num_vertices + 1) * self.indptr_dtype.itemsize

    @property
    def indices_nbytes(self) -> int:
        return self.num_arcs * self.indices_dtype.itemsize


def header_checksum(header: RcsrHeader) -> str:
    """The content checksum of a container (``"crc32:<16 hex>"``): both section
    CRCs.  The key catalog sidecars, lineage records, partition manifests and
    session snapshots record a graph by."""
    return f"crc32:{header.crc_indptr:08x}{header.crc_indices:08x}"


def _align_up(offset: int, alignment: int = PAGE_SIZE) -> int:
    return (offset + alignment - 1) // alignment * alignment


def unique_tmp_path(dest: Path) -> Path:
    """A writer-unique sibling temp path for atomic ``os.replace`` writes.

    Every writer must get its own temp file: concurrent conversions of the
    same source (two CLI runs, two benchmark workers sharing a cache) would
    otherwise interleave writes into one ``.tmp`` and promote garbage.
    """
    return dest.with_name(f"{dest.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")


@contextmanager
def atomic_replace(dest: Path):
    """Write-then-rename: yields a unique temp path, promotes it on success.

    On any failure the temp file is removed, so interrupted writers never
    litter a shared cache directory with unreclaimable ``.tmp`` files.
    """
    tmp = unique_tmp_path(dest)
    try:
        yield tmp
        os.replace(tmp, dest)
    finally:
        if tmp.exists():
            tmp.unlink()


def _crc32_array(array: np.ndarray) -> int:
    """CRC-32 of an array's raw bytes, streamed to bound peak memory."""
    view = memoryview(np.ascontiguousarray(array)).cast("B")
    crc = 0
    for start in range(0, len(view), _CRC_CHUNK):
        crc = zlib.crc32(view[start : start + _CRC_CHUNK], crc)
    return crc & 0xFFFFFFFF


def pack_header(header: RcsrHeader) -> bytes:
    """Encode a header into its fixed-size on-disk representation."""
    fixed = _HEADER_STRUCT.pack(
        MAGIC,
        header.version,
        _CODE_FOR_DTYPE[np.dtype(header.indptr_dtype)],
        _CODE_FOR_DTYPE[np.dtype(header.indices_dtype)],
        header.num_vertices,
        header.num_arcs,
        header.indptr_offset,
        header.indices_offset,
        header.file_size,
        header.crc_indptr,
        header.crc_indices,
    )
    return fixed + b"\x00" * (HEADER_SIZE - len(fixed))


def read_header(path: PathLike) -> RcsrHeader:
    """Read and validate the header of an ``.rcsr`` file.

    Raises :class:`StoreFormatError` for wrong magic/version, inconsistent
    section offsets, or a file shorter than the header declares.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER_STRUCT.size)
    if len(raw) < _HEADER_STRUCT.size:
        raise StoreFormatError(f"{path}: file too short to hold an .rcsr header")
    (
        magic,
        version,
        indptr_code,
        indices_code,
        num_vertices,
        num_arcs,
        indptr_offset,
        indices_offset,
        file_size,
        crc_indptr,
        crc_indices,
    ) = _HEADER_STRUCT.unpack(raw)
    if magic != MAGIC:
        raise StoreFormatError(f"{path}: bad magic {magic!r}, not an .rcsr file")
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"{path}: unsupported .rcsr version {version} (expected {FORMAT_VERSION})"
        )
    if indptr_code not in _DTYPE_CODES or indices_code not in _DTYPE_CODES:
        raise StoreFormatError(f"{path}: unknown dtype codes ({indptr_code}, {indices_code})")
    header = RcsrHeader(
        version=version,
        indptr_dtype=_DTYPE_CODES[indptr_code],
        indices_dtype=_DTYPE_CODES[indices_code],
        num_vertices=int(num_vertices),
        num_arcs=int(num_arcs),
        indptr_offset=int(indptr_offset),
        indices_offset=int(indices_offset),
        file_size=int(file_size),
        crc_indptr=int(crc_indptr),
        crc_indices=int(crc_indices),
    )
    if header.indptr_offset < HEADER_SIZE:
        raise StoreFormatError(f"{path}: indptr section overlaps the header")
    if header.indices_offset < header.indptr_offset + header.indptr_nbytes:
        raise StoreFormatError(f"{path}: indices section overlaps the indptr section")
    expected_size = header.indices_offset + header.indices_nbytes
    if header.file_size < expected_size:
        raise StoreFormatError(f"{path}: header declares inconsistent section sizes")
    actual = path.stat().st_size
    if actual < expected_size:
        raise StoreFormatError(
            f"{path}: truncated file ({actual} bytes, expected >= {expected_size})"
        )
    return header


def write_rcsr(graph: "CSRGraph", path: PathLike) -> Path:
    """Write a graph as an ``.rcsr`` container (atomically, via a temp file)."""
    path = Path(path)
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = graph.indices
    if indices.dtype not in _CODE_FOR_DTYPE:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
    else:
        indices = np.ascontiguousarray(indices)
    indptr_offset = HEADER_SIZE
    indices_offset = _align_up(indptr_offset + indptr.nbytes)
    header = RcsrHeader(
        version=FORMAT_VERSION,
        indptr_dtype=indptr.dtype,
        indices_dtype=indices.dtype,
        num_vertices=graph.num_vertices,
        num_arcs=int(indices.size),
        indptr_offset=indptr_offset,
        indices_offset=indices_offset,
        file_size=indices_offset + indices.nbytes,
        crc_indptr=_crc32_array(indptr),
        crc_indices=_crc32_array(indices),
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_replace(path) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(pack_header(header))
            indptr.tofile(handle)
            handle.write(b"\x00" * (indices_offset - indptr_offset - indptr.nbytes))
            indices.tofile(handle)
    return path


def _section_array(
    path: Path, header: RcsrHeader, dtype: np.dtype, offset: int, count: int, mmap: bool
) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=dtype)
    if mmap:
        return np.memmap(path, mode="r", dtype=dtype, offset=offset, shape=(count,))
    with open(path, "rb") as handle:
        handle.seek(offset)
        array = np.fromfile(handle, dtype=dtype, count=count)
    if array.size != count:
        raise StoreFormatError(f"{path}: truncated section at offset {offset}")
    array.setflags(write=False)
    return array


def open_rcsr(
    path: PathLike, *, mmap: bool = True, verify_checksum: bool = False
) -> "CSRGraph":
    """Open an ``.rcsr`` file as a :class:`~repro.graph.csr.CSRGraph`.

    With ``mmap=True`` (default) the arrays are read-only :func:`numpy.memmap`
    views — the open is O(header) and the pages are shared with every other
    process mapping the same file.  ``verify_checksum=True`` additionally
    streams both sections through CRC-32 (a full read; off by default to keep
    opens at page-cache speed).
    """
    from repro.graph.csr import CSRGraph

    path = Path(path)
    header = read_header(path)
    indptr = _section_array(
        path, header, header.indptr_dtype, header.indptr_offset, header.num_vertices + 1, mmap
    )
    indices = _section_array(
        path, header, header.indices_dtype, header.indices_offset, header.num_arcs, mmap
    )
    if verify_checksum:
        if _crc32_array(indptr) != header.crc_indptr:
            raise StoreFormatError(f"{path}: indptr section fails its CRC-32 check")
        if _crc32_array(indices) != header.crc_indices:
            raise StoreFormatError(f"{path}: indices section fails its CRC-32 check")
    if indptr[0] != 0 or indptr[-1] != header.num_arcs:
        raise StoreFormatError(f"{path}: indptr section is not a valid CSR row pointer")
    return CSRGraph.from_validated_arrays(indptr, indices, source_path=path)
