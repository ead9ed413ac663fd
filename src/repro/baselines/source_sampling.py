"""Source-sampling betweenness approximation (Bader et al. / Brandes–Pich style).

The oldest family of betweenness approximations ([3], [9] in the paper): pick
``k`` source vertices uniformly at random, run one full Brandes dependency
accumulation per source and extrapolate.  Unlike the path-sampling algorithms
(RK, ABRA, KADABRA) this gives no per-vertex additive guarantee for a fixed
sample size independent of ``n``, and each sample costs a *full* SSSP instead
of a truncated bidirectional BFS — which is exactly why the paper builds on
KADABRA instead.  The implementation exists as a comparison point for the
benchmarks and examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.brandes import _accumulate_source_dependencies
from repro.core.result import BetweennessResult
from repro.graph.csr import CSRGraph
from repro.kernels import ScratchPool
from repro.util.progress import ProgressCallback, ProgressEvent
from repro.util.timer import PhaseTimer
from repro.util.validation import check_positive, check_probability

__all__ = ["source_sample_size"]


def source_sample_size(eps: float, delta: float, num_vertices: int) -> int:
    """Hoeffding-style pivot count for an additive-eps guarantee per vertex.

    ``k = ceil(ln(2 n / delta) / (2 eps^2))`` sources suffice for the
    normalised dependency of each vertex to concentrate within eps; note the
    ``ln n`` factor that the VC-dimension-based path-sampling bounds avoid.
    """
    check_positive(eps, "eps")
    check_probability(delta, "delta")
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    return int(np.ceil(np.log(2.0 * num_vertices / delta) / (2.0 * eps * eps)))


@dataclass
class _SourceSamplingBetweenness:
    """Betweenness approximation from uniformly sampled SSSP sources
    (implementation behind the ``source-sampling`` registry backend)."""

    graph: CSRGraph
    eps: float = 0.05
    delta: float = 0.1
    seed: Optional[int] = None
    num_sources: Optional[int] = None
    progress: Optional[ProgressCallback] = None

    #: SSSP sources between two ``progress`` invocations.
    _PROGRESS_STRIDE = 32

    def run(self) -> BetweennessResult:
        graph = self.graph
        n = graph.num_vertices
        if n < 2:
            return BetweennessResult(scores=np.zeros(n), eps=self.eps, delta=self.delta)
        timer = PhaseTimer()
        rng = np.random.default_rng(self.seed)
        k = self.num_sources if self.num_sources is not None else source_sample_size(
            self.eps, self.delta, n
        )
        k = max(1, min(k, n))
        sources = rng.choice(n, size=k, replace=False)
        scores = np.zeros(n, dtype=np.float64)
        pool = ScratchPool(n)
        with timer.phase("sampling"):
            for i, source in enumerate(sources):
                _accumulate_source_dependencies(graph, int(source), scores, pool)
                done = i + 1
                if self.progress is not None and (
                    done % self._PROGRESS_STRIDE == 0 or done == k
                ):
                    self.progress(
                        ProgressEvent(phase="sssp", num_samples=done, omega=int(k))
                    )
        # Extrapolate to all sources, then normalise like the exact algorithm.
        scores *= n / float(k)
        if n > 2:
            scores /= float(n * (n - 1))
        return BetweennessResult(
            scores=scores,
            num_samples=int(k),
            eps=self.eps,
            delta=self.delta,
            phase_seconds=timer.as_dict(),
            extra={"num_sources": float(k)},
        )
