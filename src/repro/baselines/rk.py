"""The RK (Riondato–Kornaropoulos) fixed-sample-size approximation.

The direct predecessor of KADABRA ([18] in the paper): sample vertex pairs and
uniform shortest paths exactly like KADABRA, but the number of samples is fixed
*a priori* from the VC-dimension bound — there is no adaptive stopping rule.
Comparing RK and KADABRA shows how much work adaptivity saves, and the RK
driver doubles as a simple non-adaptive sampling baseline for the parallel
drivers' tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.kadabra import capped_samples, diameter_bound, make_sampler
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.state_frame import StateFrame
from repro.core.stopping import OMEGA_CONSTANT
from repro.graph.csr import CSRGraph
from repro.kernels import plan_batches
from repro.obs.trace import PhaseRecorder
from repro.util.progress import ProgressCallback, ProgressEvent
from repro.util.validation import check_positive, check_probability

__all__ = ["rk_sample_size"]


def rk_sample_size(eps: float, delta: float, vertex_diameter: int, *, constant: float = OMEGA_CONSTANT) -> int:
    """The RK sample-size bound ``(c / eps^2) (floor(log2(VD - 2)) + 1 + log(1/delta))``."""
    check_positive(eps, "eps")
    check_probability(delta, "delta")
    if vertex_diameter < 0:
        raise ValueError("vertex_diameter must be non-negative")
    if vertex_diameter > 2:
        log_term = math.floor(math.log2(vertex_diameter - 2)) + 1
    else:
        log_term = 1
    return int(math.ceil((constant / (eps * eps)) * (log_term + math.log(1.0 / delta))))


@dataclass
class _RKBetweenness:
    """Fixed-sample-size betweenness approximation (RK algorithm).

    Because the sample count is fixed a priori there is no adaptivity to
    stay stream-compatible with, so the driver uses the batch sampler's
    *vectorized* pair strategy: all pairs of a batch are rejection-sampled
    with bulk ``rng.integers`` calls (one call per round) instead of two
    scalar draws per sample.
    """

    graph: CSRGraph
    options: KadabraOptions = field(default_factory=KadabraOptions)
    progress: Optional[ProgressCallback] = None
    kernel: Optional[str] = None

    def run(self) -> BetweennessResult:
        graph = self.graph
        options = self.options
        progress = self.progress
        if graph.num_vertices < 2:
            return BetweennessResult(scores=np.zeros(graph.num_vertices), eps=options.eps, delta=options.delta)
        phases = PhaseRecorder()
        rng = np.random.default_rng(options.seed)
        sampler = make_sampler(graph, options, kernel=self.kernel, pair_strategy="vectorized")

        with phases("diameter") as sp:
            vd = diameter_bound(graph, options, sp)
        num_samples = capped_samples(options, rk_sample_size(options.eps, options.delta, vd))
        if progress is not None:
            progress(ProgressEvent(phase="diameter", omega=num_samples))

        frame = StateFrame.zeros(graph.num_vertices)
        block = max(1, options.samples_per_check)
        with phases("sampling"):
            reported = 0
            for take in plan_batches(num_samples):
                frame.record_batch(sampler.sample_batch(take, rng))
                done = frame.num_samples
                if progress is not None and done // block > reported:
                    reported = done // block
                    progress(
                        ProgressEvent(
                            phase="sampling",
                            epoch=reported,
                            num_samples=done,
                            omega=num_samples,
                        )
                    )

        return BetweennessResult(
            scores=frame.betweenness_estimates(),
            num_samples=frame.num_samples,
            eps=options.eps,
            delta=options.delta,
            omega=num_samples,
            vertex_diameter=vd,
            phase_seconds=phases.seconds,
            extra={"edges_touched": float(frame.edges_touched)},
        )
