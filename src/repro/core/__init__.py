"""KADABRA core: state frames, stopping rule, calibration and the sampler factories."""

from repro.core.state_frame import StateFrame
from repro.core.stopping import StoppingCondition, compute_omega, f_function, g_function
from repro.core.calibration import CalibrationResult, calibrate_deltas, default_calibration_samples
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.kadabra import make_sampler
from repro.core.topk import TopKResult, identify_top_k

__all__ = [
    "TopKResult",
    "identify_top_k",
    "StateFrame",
    "StoppingCondition",
    "compute_omega",
    "f_function",
    "g_function",
    "CalibrationResult",
    "calibrate_deltas",
    "default_calibration_samples",
    "KadabraOptions",
    "BetweennessResult",
    "make_sampler",
]
