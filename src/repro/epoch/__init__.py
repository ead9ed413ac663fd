"""Epoch-based framework for wait-free aggregation of sampling states."""

from repro.epoch.framework import EpochManager
from repro.epoch.frames import FramePool

__all__ = ["EpochManager", "FramePool"]
