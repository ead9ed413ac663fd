"""``repro.store`` — memory-mapped binary graph store and dataset catalog.

Three pieces (see ``docs/formats.md`` for the on-disk specification):

* :mod:`repro.store.format` — the versioned ``.rcsr`` container: one header,
  page-aligned ``indptr``/``indices`` sections, opened zero-copy with
  :func:`numpy.memmap` so that every worker shares one read-only CSR at
  page-cache cost (the substrate the paper's scaling argument assumes).
* :mod:`repro.store.convert` — out-of-core ingestion: streams KONECT/SNAP/
  METIS text in bounded-memory chunks through a spill file and a two-pass
  degree-count/fill build, so graphs larger than RAM can be converted.
* :mod:`repro.store.catalog` — :class:`GraphCatalog`: name/path resolution
  against a cache directory, auto-conversion of text inputs on first touch,
  and JSON metadata sidecars (n, m, max degree, components, diameter
  estimate, checksum).
"""

from repro.store.catalog import (
    CACHE_ENV_VAR,
    RESULT_CACHE_ENV_VAR,
    GraphCatalog,
    GraphInfo,
    default_cache_dir,
    default_result_cache_dir,
    load_graph,
)
from repro.store.convert import (
    ConversionReport,
    convert_any,
    convert_edge_list,
    convert_metis,
    resolve_format,
)
from repro.store.delta import (
    DELTA_FORMAT_VERSION,
    DeltaError,
    GraphDelta,
    apply_delta,
)
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    PAGE_SIZE,
    RcsrHeader,
    StoreFormatError,
    open_rcsr,
    read_header,
    write_rcsr,
)
from repro.store.partition import (
    PARTITION_MANIFEST_VERSION,
    PartitionError,
    PartitionManifest,
    PartitionedGraphView,
    ShardInfo,
    ShardedPathSampler,
    find_manifests,
    manifest_path_for,
    partition_boundaries,
    partition_rcsr,
)

__all__ = [
    "CACHE_ENV_VAR",
    "RESULT_CACHE_ENV_VAR",
    "ConversionReport",
    "DELTA_FORMAT_VERSION",
    "DeltaError",
    "FORMAT_VERSION",
    "GraphCatalog",
    "GraphDelta",
    "GraphInfo",
    "MAGIC",
    "PAGE_SIZE",
    "PARTITION_MANIFEST_VERSION",
    "PartitionError",
    "PartitionManifest",
    "PartitionedGraphView",
    "RcsrHeader",
    "ShardInfo",
    "ShardedPathSampler",
    "StoreFormatError",
    "apply_delta",
    "convert_any",
    "convert_edge_list",
    "convert_metis",
    "default_cache_dir",
    "default_result_cache_dir",
    "find_manifests",
    "load_graph",
    "manifest_path_for",
    "open_rcsr",
    "partition_boundaries",
    "partition_rcsr",
    "read_header",
    "resolve_format",
    "write_rcsr",
]
