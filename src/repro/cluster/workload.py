"""Workload profiles consumed by the cluster performance model.

An :class:`InstanceProfile` bundles everything the performance model needs to
know about one betweenness-approximation run on one input graph:

* the graph's size statistics (``|V|``, ``|E|``, diameter), which determine
  the state-frame size, the stopping-condition check cost and the per-sample
  BFS cost;
* the *workload*: how many samples the adaptive algorithm takes before
  terminating (``target_samples``) and how many calibration samples precede
  them;
* the sequential phase costs (diameter computation, the sequential part of the
  calibration).

Profiles are created either from an actual :class:`~repro.graph.csr.CSRGraph`
(measuring the per-sample cost empirically — used for the proxy instances) or
purely from statistics (used for the paper's billion-edge instances of
Table I/II, which cannot be instantiated in this environment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.cluster.machine import MachineSpec
from repro.cluster.sampling_cost import (
    estimate_edges_per_sample,
    measure_edges_per_sample,
)
from repro.core.stopping import compute_omega
from repro.core.calibration import default_calibration_samples
from repro.graph.csr import CSRGraph

__all__ = ["InstanceProfile"]

#: Number of BFS-equivalent graph sweeps charged to the sequential diameter
#: computation (the SumSweep-style algorithm of Borassi et al. needs a few
#: dozen BFS invocations on complex networks).
DIAMETER_SWEEPS = 30.0

#: Sequential per-vertex cost of the calibration's binary search (seconds).
CALIBRATION_SECONDS_PER_VERTEX = 4.0e-8


@dataclass(frozen=True)
class InstanceProfile:
    """Workload description of one instance for the performance model."""

    name: str
    num_vertices: int
    num_edges: int
    diameter: int
    target_samples: int
    edges_per_sample: float
    calibration_samples: int
    eps: float = 0.001
    delta: float = 0.1
    kind: str = "complex"  # "complex" or "road"

    def __post_init__(self) -> None:
        if self.num_vertices <= 0 or self.num_edges < 0:
            raise ValueError("graph statistics must be positive")
        if self.target_samples <= 0:
            raise ValueError("target_samples must be positive")
        if self.edges_per_sample <= 0:
            raise ValueError("edges_per_sample must be positive")
        if self.calibration_samples < 0:
            raise ValueError("calibration_samples must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def frame_bytes(self) -> int:
        """Serialized size of one state frame (8 bytes per vertex + counter)."""
        return 8 * self.num_vertices + 8

    @property
    def graph_bytes(self) -> int:
        """Approximate CSR footprint: indptr (8 B/vertex) + 2 directed entries
        of 4 B per undirected edge, for graph + transpose access."""
        return 8 * (self.num_vertices + 1) + 8 * self.num_edges

    @property
    def vertex_diameter(self) -> int:
        return self.diameter + 1

    def omega(self) -> int:
        """The static maximum number of samples for this instance's eps/delta."""
        return compute_omega(self.eps, self.delta, max(self.vertex_diameter, 3))

    def diameter_seconds(self, machine: MachineSpec) -> float:
        """Sequential diameter-phase cost (a few dozen BFS sweeps)."""
        return DIAMETER_SWEEPS * 2.0 * self.num_edges * machine.edge_traversal_seconds

    def calibration_sequential_seconds(self, machine: MachineSpec) -> float:
        """Sequential part of the calibration (per-vertex binary search)."""
        return CALIBRATION_SECONDS_PER_VERTEX * self.num_vertices

    def check_seconds(self, machine: MachineSpec) -> float:
        """Cost of one stopping-condition evaluation at rank 0."""
        return machine.check_seconds_per_vertex * self.num_vertices

    # ------------------------------------------------------------------ #
    @classmethod
    def from_statistics(
        cls,
        name: str,
        num_vertices: int,
        num_edges: int,
        diameter: int,
        *,
        target_samples: int,
        eps: float = 0.001,
        delta: float = 0.1,
        calibration_samples: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> "InstanceProfile":
        """Create a profile from published statistics (Table I / Table II)."""
        edges_per_sample = estimate_edges_per_sample(num_vertices, num_edges, diameter)
        omega = compute_omega(eps, delta, max(diameter + 1, 3))
        if calibration_samples is None:
            calibration_samples = default_calibration_samples(omega, num_vertices)
        if kind is None:
            kind = "road" if (2.0 * num_edges / num_vertices) <= 8.0 else "complex"
        return cls(
            name=name,
            num_vertices=num_vertices,
            num_edges=num_edges,
            diameter=diameter,
            target_samples=target_samples,
            edges_per_sample=edges_per_sample,
            calibration_samples=calibration_samples,
            eps=eps,
            delta=delta,
            kind=kind,
        )

    @classmethod
    def from_graph(
        cls,
        name: str,
        graph: CSRGraph,
        *,
        diameter: int,
        target_samples: int,
        eps: float = 0.001,
        delta: float = 0.1,
        calibration_samples: Optional[int] = None,
        measure_cost: bool = True,
        seed: int = 0,
        kind: Optional[str] = None,
    ) -> "InstanceProfile":
        """Create a profile from a concrete (proxy) graph.

        When ``measure_cost`` is true the per-sample cost is measured by
        running the bidirectional sampler on the graph; otherwise the analytic
        estimate is used.
        """
        if measure_cost and graph.num_vertices >= 2 and graph.num_edges > 0:
            from repro.core.kadabra import make_sampler
            from repro.core.options import KadabraOptions

            edges_per_sample = measure_edges_per_sample(
                make_sampler(graph, KadabraOptions()), num_probes=32, seed=seed
            )
            edges_per_sample = max(edges_per_sample, 1.0)
        else:
            edges_per_sample = estimate_edges_per_sample(
                graph.num_vertices, graph.num_edges, diameter
            )
        omega = compute_omega(eps, delta, max(diameter + 1, 3))
        if calibration_samples is None:
            calibration_samples = default_calibration_samples(omega, graph.num_vertices)
        if kind is None:
            avg_degree = 2.0 * graph.num_edges / max(graph.num_vertices, 1)
            kind = "road" if avg_degree <= 8.0 else "complex"
        return cls(
            name=name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            diameter=diameter,
            target_samples=target_samples,
            edges_per_sample=edges_per_sample,
            calibration_samples=calibration_samples,
            eps=eps,
            delta=delta,
            kind=kind,
        )

    def scaled(self, factor: float, *, name: Optional[str] = None) -> "InstanceProfile":
        """A profile with the graph size scaled by ``factor`` (workload kept)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        new_vertices = max(2, int(round(self.num_vertices * factor)))
        new_edges = max(1, int(round(self.num_edges * factor)))
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            num_vertices=new_vertices,
            num_edges=new_edges,
            edges_per_sample=estimate_edges_per_sample(new_vertices, new_edges, self.diameter),
        )
