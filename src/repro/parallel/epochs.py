"""The epoch-based framework (Sections IV-A to IV-C of the paper).

Sampling progress is divided into *epochs*.  Each thread owns one state frame
per epoch and only ever writes to the frame of its current epoch.  Thread 0
drives epoch transitions (:class:`EpochManager`):

* ``force_transition(e)`` — called only by thread 0 while in epoch ``e``;
  initiates a transition and immediately moves thread 0 to epoch ``e + 1``.
  The call is non-blocking: thread 0 keeps sampling (into the new epoch's
  frame) while monitoring completion.
* ``check_transition(e)`` — called by threads ``t != 0`` between samples; if a
  transition past ``e`` has been initiated the thread advances to ``e + 1``
  and the call returns ``True``, otherwise it does nothing.

Once every thread has advanced past ``e``, the epoch-``e`` frames are immutable
and thread 0 may aggregate them to evaluate the stopping condition on a
consistent snapshot.

Because the MPI reduction acts as a non-blocking barrier, epoch numbers across
threads/processes never differ by more than one, so no thread ever touches
frames older than ``e - 1`` once epoch ``e`` starts.  Each thread therefore
needs only **two** reusable frames, alternating by epoch parity
(:class:`FramePool`); reusing a frame for epoch ``e + 2`` is safe because its
epoch-``e`` content has been aggregated before the transition into ``e + 1``
was even initiated.  Beside them the pool keeps one :class:`ClaimCounter`
per parity for the whole rank, which bounds the rank's frames of an epoch.

The original C++ implementation achieves this wait-free with memory fences;
under CPython the GIL already serialises the individual reads/writes, so the
implementation below uses plain attribute updates plus a lock only for the
rarely-contended epoch counters, preserving the *protocol* exactly (which is
what the tests verify: asymmetry of the two calls, immutability of aggregated
frames, bounded frame reuse).
"""

from __future__ import annotations

import math
import threading
from typing import List

from repro.core.state_frame import StateFrame
from repro.mpi.requests import PolledRequest, Request

__all__ = ["ClaimCounter", "EpochManager", "FramePool"]


class EpochManager:
    """Coordinates epoch transitions between ``num_threads`` sampling threads."""

    def __init__(self, num_threads: int) -> None:
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        self._num_threads = num_threads
        self._lock = threading.Lock()
        self._thread_epoch: List[int] = [0] * num_threads  # the epoch each thread samples into
        self._target_epoch = 0  # thread 0 initiated the transition into it: the others advance to it
        self._terminated = False

    @property
    def num_threads(self) -> int:
        return self._num_threads

    def thread_epoch(self, thread: int) -> int:
        """Current epoch of ``thread``."""
        return self._thread_epoch[thread]

    def signal_termination(self) -> None:  # the atomic ``d`` of Algorithm 2
        """Atomically set the global termination flag (thread 0 only)."""
        self._terminated = True

    @property
    def terminated(self) -> bool:
        return self._terminated

    def force_transition(self, epoch: int) -> Request:
        """Initiate the transition out of ``epoch`` (thread 0 only).

        Thread 0 is advanced to ``epoch + 1`` immediately.  The returned
        request completes once every other thread has acknowledged the
        transition via :meth:`check_transition`; monitoring it costs O(T) per
        poll, exactly as stated in the paper.
        """
        with self._lock:
            if self._thread_epoch[0] != epoch:
                raise RuntimeError(
                    f"force_transition({epoch}) called while thread 0 is in epoch "
                    f"{self._thread_epoch[0]}"
                )
            if self._target_epoch > epoch:
                raise RuntimeError(f"transition out of epoch {epoch} already initiated")
            self._target_epoch = epoch + 1
            self._thread_epoch[0] = epoch + 1
        return PolledRequest(lambda: self.transition_done(epoch))

    def check_transition(self, thread: int, epoch: int) -> bool:
        """Participate in a pending transition (threads ``t != 0`` only).

        Returns ``True`` iff the calling thread advanced to ``epoch + 1``.
        Calls made before the corresponding :meth:`force_transition` have no
        effect — the asymmetry that distinguishes the mechanism from a plain
        barrier.
        """
        if thread == 0:
            raise ValueError("check_transition must not be called by thread 0")
        if not (0 < thread < self._num_threads):
            raise ValueError(f"thread index {thread} out of range")
        with self._lock:
            if self._thread_epoch[thread] != epoch:
                raise RuntimeError(
                    f"check_transition({epoch}) called while thread {thread} is in epoch "
                    f"{self._thread_epoch[thread]}"
                )
            if self._target_epoch > epoch:
                self._thread_epoch[thread] = epoch + 1
                return True
            return False

    def transition_done(self, epoch: int) -> bool:
        """Whether every thread has advanced past ``epoch``."""
        with self._lock:
            return all(e > epoch for e in self._thread_epoch)


class ClaimCounter:
    """The samples one rank's frames of an epoch may take, between its threads.

    Every draw into such a frame first claims its count (:meth:`take`) and
    draws only what it got, so the frames hold ``claimed <= limit`` samples;
    ``drawn`` sums ``claimed`` over every epoch the counter served.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.claimed = self.drawn = 0
        self.limit: float = math.inf

    def take(self, count: int) -> int:
        """Claim up to ``count`` samples; return how many the caller may draw."""
        with self._lock:
            taken = int(max(0, min(count, self.limit - self.claimed)))
            self.claimed += taken
            self.drawn += taken
        return taken

    def allow(self, total: float, more: int = 0) -> None:
        """Let the frames hold ``total`` samples, or, when it is 0, ``more`` than they were given so far."""
        with self._lock:
            self.limit = total or self.claimed + more

    def reset(self, limit: float) -> None:
        """Serve a new epoch whose frames may hold ``limit`` samples."""
        with self._lock:
            self.claimed, self.limit = 0, limit


class FramePool:
    """Two reusable state frames per thread and one :class:`ClaimCounter` per rank, indexed by epoch parity."""

    def __init__(self, num_threads: int, num_vertices: int) -> None:
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._num_threads = num_threads
        self._num_vertices = num_vertices
        self._frames: List[List[StateFrame]] = [
            [StateFrame.zeros(num_vertices), StateFrame.zeros(num_vertices)]
            for _ in range(num_threads)
        ]
        self._claims = (ClaimCounter(), ClaimCounter())

    @property
    def num_threads(self) -> int:
        return self._num_threads

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    def frame(self, thread: int, epoch: int) -> StateFrame:
        """The frame thread ``thread`` writes to during ``epoch``."""
        if not (0 <= thread < self._num_threads):
            raise ValueError(f"thread index {thread} out of range")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return self._frames[thread][epoch % 2]

    def claims(self, epoch: int) -> ClaimCounter:
        """The counter every draw into an epoch-``epoch`` frame takes its count from."""
        return self._claims[epoch % 2]

    def reset_for_epoch(self, thread: int, epoch: int) -> StateFrame:
        """Zero and return the frame the thread will use for ``epoch``.

        Must be called exactly when the thread enters ``epoch``; at that point
        the frame's previous content (epoch ``epoch - 2``) has already been
        aggregated by thread 0.
        """
        frame = self.frame(thread, epoch)
        frame.reset()
        return frame

    def aggregate_epoch(self, epoch: int, *, out: StateFrame | None = None) -> StateFrame:
        """Sum the epoch-``epoch`` frames of all threads (lines 16-18 of Algorithm 2).

        ``out``, a reusable accumulator, is zeroed in place and returned, so
        aggregation allocates nothing; callers that pass it are done with the
        previous epoch's aggregate (the engine reduces and folds it before a
        new epoch starts).  Without ``out`` a fresh frame is allocated.
        """
        if out is None:
            out = StateFrame.zeros(self._num_vertices)
        else:
            if out.num_vertices != self._num_vertices:
                raise ValueError("reusable aggregate frame has the wrong size")
            out.reset()
        for thread in range(self._num_threads):
            out.add_into(self.frame(thread, epoch))
        return out
