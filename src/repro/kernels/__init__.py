"""Batch-oriented sampling kernels: the zero-allocation inner loop.

The paper's speedup story rests on per-sample cost being dominated by graph
traversal, not by language overhead.  This package provides the pieces that
make that true for the Python reproduction:

* :class:`ScratchPool` — per-worker reusable search buffers with
  generation-stamped visited marks (no O(n) allocation or clearing between
  samples); :class:`ScratchSlab` widens the same idea to K concurrent pairs;
* :func:`bidirectional_sample` / :func:`unidirectional_sample` — pooled path
  sampling kernels, bit-compatible with the reference samplers the tests
  keep as their oracle (``tests/reference_samplers.py``) for a fixed RNG
  state;
* :class:`WavefrontSampler` — the cross-sample vectorized wavefront kernel:
  K pairs' balanced-bidirectional searches advanced simultaneously in SoA
  form (statistically identical, different RNG stream);
* :mod:`~repro.kernels.abi` — the name → :class:`~repro.kernels.abi
  .KernelSpec` table and the one routing function, with its ``REPRO_KERNEL``
  override;
* :class:`BatchPathSampler` / :class:`SampleBatch` — the sampler every driver
  holds: K pairs per call (``sample_batch``, or ``sample_pairs`` for given
  pairs) returned as flat contribution arrays for single-``np.add.at``
  accumulation into epoch frames;
* :mod:`~repro.kernels.policy` — adaptive batch sizing (small batches near
  stopping-condition checks, large batches mid-epoch).
"""

from repro.kernels.abi import (
    KernelSpec,
    describe_routing,
    format_kernel_table,
    get_kernel,
    kernel_names,
    register_kernel,
    resolve_kernel,
)
from repro.kernels.batch import BatchPathSampler, SampleBatch
from repro.kernels.bidirectional import bidirectional_sample
from repro.kernels.policy import (
    AUTO_BATCH,
    MAX_AUTO_BATCH,
    MIN_AUTO_BATCH,
    WORKER_BATCH,
    plan_batches,
)
from repro.kernels.scratch import ScratchPool, ScratchSlab, gather_csr
from repro.kernels.unidirectional import unidirectional_sample
from repro.kernels.wavefront import WavefrontSampler
from repro.kernels.weighted import weighted_index

__all__ = [
    "AUTO_BATCH",
    "BatchPathSampler",
    "KernelSpec",
    "MAX_AUTO_BATCH",
    "MIN_AUTO_BATCH",
    "SampleBatch",
    "ScratchPool",
    "ScratchSlab",
    "WORKER_BATCH",
    "WavefrontSampler",
    "bidirectional_sample",
    "describe_routing",
    "format_kernel_table",
    "gather_csr",
    "get_kernel",
    "kernel_names",
    "plan_batches",
    "register_kernel",
    "resolve_kernel",
    "unidirectional_sample",
    "weighted_index",
]
