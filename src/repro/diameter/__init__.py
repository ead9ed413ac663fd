"""Diameter bounds for KADABRA's ω: a few BFS sweeps per connected component."""

from repro.diameter.two_sweep import (
    DiameterEstimate,
    double_sweep_estimate,
    vertex_diameter_upper_bound,
)

__all__ = [
    "DiameterEstimate",
    "double_sweep_estimate",
    "vertex_diameter_upper_bound",
]
