"""The rank engine: diameter → calibration → adaptive-sampling epochs.

Every parallel execution mode runs :func:`run_rank` once per rank; the modes
differ only in the :class:`~repro.mpi.interface.Communicator` and the graph
view they hand in (``SelfComm`` + the caller's graph for shared memory,
``SocketComm`` + the graph inherited from the caller for the facade's forked
ranks, ``SocketComm`` + a mapped ``.rcsr`` or shard view for ``dist``
workers).  The function mirrors the paper's phase structure:

1. *Diameter* — computed sequentially at rank 0 (the paper uses a sequential
   algorithm as well) and broadcast.
2. *Calibration* — the fixed number of non-adaptive samples is split evenly
   across all ranks ("pleasingly parallel"), aggregated with a blocking
   reduction, and rank 0 derives ``delta_L``/``delta_U`` which are then
   broadcast.
3. *Adaptive sampling* — :func:`adaptive_sampling_epochs`, the epoch loop of
   Section IV-C.  Inside every rank the epoch-based framework aggregates the
   state frames of the sampling threads; across ranks ``algorithm="epoch"``
   (Algorithm 2) aggregates with a non-blocking barrier followed by a
   blocking reduction (the paper found this faster than ``MPI_Ireduce``),
   while ``algorithm="mpi-only"`` (Algorithm 1) is the loop's single-thread
   case with a plain ``Ireduce``.  Either way thread 0 overlaps every wait
   with sampling.

Structure of one rank's adaptive phase:

* threads ``1 .. T-1`` sample continuously into the frame of their current
  epoch, calling ``check_transition`` between batches and exiting when the
  termination flag is raised;
* thread 0 (the caller) executes the per-epoch protocol: sample ``n0`` times,
  force the epoch transition (overlapping further samples into the next
  epoch's frame), aggregate the epoch's frames, reduce them to rank 0
  (optionally pre-aggregating over a node-local communicator, Section IV-E),
  evaluate the stopping condition at rank 0 and broadcast the termination
  flag.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.calibration import calibrate_deltas, calibration_sample_count
from repro.core.kadabra import capped_samples, diameter_bound, make_sampler
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.state_frame import StateFrame
from repro.core.stopping import StoppingCondition, compute_omega
from repro.kernels import WORKER_BATCH, BatchPathSampler, plan_batches
from repro.mpi.interface import Communicator
from repro.mpi.requests import Request
from repro.mpi.topology import NodeTopology, build_topology
from repro.obs import trace as obs_trace
from repro.parallel.epoch_length import thread_zero_samples_per_epoch
from repro.parallel.epochs import EpochManager, FramePool
from repro.sampling.rng import derive_seed, rng_for_rank_thread
from repro.util.progress import ProgressCallback, ProgressEvent
from repro.util.timer import PhaseTimer

__all__ = ["ALGORITHMS", "EpochBoundary", "EpochStats", "adaptive_sampling_epochs", "run_rank"]

#: ``"epoch"`` is Algorithm 2, ``"mpi-only"`` Algorithm 1.
ALGORITHMS = ("epoch", "mpi-only")

#: Salt tag separating post-resume RNG streams from the original run's.
_RESUME_SEED_TAG = 7701


@dataclass
class EpochStats:
    """Per-rank statistics of one run of the epoch loop."""

    rank: int
    num_threads: int
    num_epochs: int = 0
    local_samples: int = 0
    aggregated_frame: Optional[StateFrame] = None  # only at world rank 0
    stopped_by_omega: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    communication_bytes: int = 0


@dataclass
class EpochBoundary:
    """What an epoch boundary persists and a resumed run restores.

    Handed to ``on_aggregate`` at rank 0 after every fold (``frame`` is the
    live aggregate then, so the hook must copy what it keeps) and accepted
    back as ``resume``.
    """

    epoch: int
    frame: Optional[StateFrame]
    omega: int
    vertex_diameter: int
    delta_l: np.ndarray
    delta_u: np.ndarray


def _worker_loop(
    thread_index: int,
    sampler: BatchPathSampler,
    rng: np.random.Generator,
    manager: EpochManager,
    pool: FramePool,
    sample_counter: List[int],
    failures: List[BaseException],
) -> None:
    """Body of sampling threads ``t != 0`` (lines 5-9 of Algorithm 2).

    Samples are drawn in small batches (:data:`repro.kernels.WORKER_BATCH`):
    large enough to amortise per-sample overhead, small enough that pending
    epoch transitions are acknowledged promptly — ``check_transition`` runs
    between batches, so a frame is only ever written by its owner inside one
    epoch, exactly as in the scalar protocol.  An exception ends the thread
    and is left in ``failures`` for thread 0, which would otherwise wait
    forever for this thread's next transition.
    """
    try:
        epoch = 0
        frame = pool.frame(thread_index, epoch)
        while not manager.terminated:
            frame.record_batch(sampler.sample_batch(WORKER_BATCH, rng))
            sample_counter[thread_index] += WORKER_BATCH
            if manager.check_transition(thread_index, epoch):
                epoch += 1
                frame = pool.reset_for_epoch(thread_index, epoch)
    except BaseException as exc:  # noqa: BLE001 - re-raised by thread 0
        failures.append(exc)


def adaptive_sampling_epochs(
    comm: Communicator,
    sampler_factory: Callable[[int], BatchPathSampler],
    condition: StoppingCondition,
    rngs: List[np.random.Generator],
    *,
    num_threads: int,
    samples_per_epoch: int,
    algorithm: str = "epoch",
    initial_frame: Optional[StateFrame] = None,
    topology: Optional[NodeTopology] = None,
    max_epochs: Optional[int] = None,
    on_epoch: Optional[Callable[[int, int], None]] = None,
    on_aggregate: Optional[Callable[[int, StateFrame], None]] = None,
) -> EpochStats:
    """Run the adaptive-sampling epoch loop on this rank.

    Parameters
    ----------
    comm:
        World communicator spanning all ranks.
    sampler_factory:
        Called once per thread index to create that thread's sampler (the
        sampler may share the read-only graph between threads).
    condition:
        Stopping condition, evaluated only at world rank 0.
    rngs:
        One independent generator per thread.
    num_threads:
        Number of sampling threads ``T`` in this process (including thread 0).
    samples_per_epoch:
        The constant ``n0`` for thread 0.
    algorithm:
        ``"epoch"`` reduces with the paper's ``Ibarrier`` + blocking
        ``Reduce``; ``"mpi-only"`` is Algorithm 1: one thread and a plain
        ``Ireduce``.
    initial_frame:
        Calibration samples folded into the aggregate at rank 0.
    topology:
        Optional NUMA topology; when given, frames are pre-aggregated over the
        node-local communicator and only node leaders join the global
        reduction (Section IV-E).
    max_epochs:
        Safety bound for tests.
    on_epoch:
        Optional progress hook ``on_epoch(epochs_done, samples_aggregated)``,
        invoked at the reduce root (world rank 0) after each stopping-rule
        evaluation.
    on_aggregate:
        Optional hook ``on_aggregate(epochs_done, aggregated)`` invoked at
        the reduce root right after the epoch frame is folded into the
        aggregate ``S`` (before the stopping rule).  This is the epoch
        boundary the distributed runtime checkpoints at: the frame passed is
        the live aggregate, so the hook must copy what it keeps.

    Thread 0 draws its ``n0`` bulk samples in :func:`repro.kernels.plan_batches`
    batches and single samples in the overlap loops (where transitions,
    barriers, reductions and broadcasts are polled between samples); worker
    threads draw :data:`repro.kernels.WORKER_BATCH` at a time so they
    acknowledge epoch transitions promptly.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError("algorithm must be 'epoch' or 'mpi-only'")
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    if algorithm == "mpi-only" and num_threads != 1:
        raise ValueError("the mpi-only algorithm samples on one thread per rank")
    if samples_per_epoch <= 0:
        raise ValueError("samples_per_epoch must be positive")
    if len(rngs) < num_threads:
        raise ValueError("need one RNG per thread")

    num_vertices = condition.num_vertices
    timer = PhaseTimer()
    manager = EpochManager(num_threads)
    pool = FramePool(num_threads, num_vertices)
    sample_counter = [0] * num_threads
    failures: List[BaseException] = []
    stats = EpochStats(rank=comm.rank, num_threads=num_threads)

    aggregated = StateFrame.zeros(num_vertices)  # S at world rank 0
    if comm.is_root and initial_frame is not None:
        aggregated.add_into(initial_frame)

    # The communicators taking part in the reduction tree.
    local_comm = topology.local if topology is not None else None
    reduce_comm = topology.global_ if topology is not None else comm

    workers = [
        threading.Thread(
            target=_worker_loop,
            args=(t, sampler_factory(t), rngs[t], manager, pool, sample_counter, failures),
            daemon=True,
        )
        for t in range(1, num_threads)
    ]
    for worker in workers:
        worker.start()

    sampler0 = sampler_factory(0)
    rng0 = rngs[0]

    def overlap(request: Request, frame: StateFrame):
        """Sample into ``frame`` until ``request`` completes; return its result."""
        while not request.test():
            if failures:
                raise failures[0]
            sample = sampler0.sample(rng0)
            frame.record_sample(sample.internal_vertices, edges_touched=sample.edges_touched)
            sample_counter[0] += 1
        return request.result()

    # Reused every epoch by aggregate_epoch (zeroed in place, never
    # reallocated); safe because the aggregate is reduced and folded before
    # the next epoch's aggregation starts, and overlapped sampling only ever
    # writes the next epoch's frame.
    aggregate_scratch = StateFrame.zeros(num_vertices)

    epoch = 0
    terminated = False
    try:
        while not terminated:
            current_frame = pool.frame(0, epoch)
            # Lines 12-13: n0 samples by thread 0, in adaptive batches.
            with timer.phase("sampling"):
                for take in plan_batches(samples_per_epoch):
                    current_frame.record_batch(sampler0.sample_batch(take, rng0))
                    sample_counter[0] += take
            # Lines 14-15: force the epoch transition, sampling while waiting.
            next_frame = pool.reset_for_epoch(0, epoch + 1)
            with timer.phase("epoch_transition"):
                overlap(manager.force_transition(epoch), next_frame)
            # Lines 16-18: aggregate this process' epoch frames.
            with timer.phase("local_aggregation"):
                epoch_frame = pool.aggregate_epoch(epoch, out=aggregate_scratch)
                if local_comm is not None and local_comm.size > 1:
                    epoch_frame = local_comm.reduce(epoch_frame, op="sum", root=0)

            # Lines 19-21: reduce across processes, overlapped with sampling.
            reduced_frame: Optional[StateFrame] = None
            if reduce_comm is not None and epoch_frame is not None:
                if algorithm == "epoch":
                    with timer.phase("ibarrier"):
                        overlap(reduce_comm.ibarrier(), next_frame)
                    with timer.phase("reduce"):
                        reduced_frame = reduce_comm.reduce(epoch_frame, op="sum", root=0)
                else:
                    with timer.phase("reduce"):
                        reduced_frame = overlap(
                            reduce_comm.ireduce(epoch_frame, op="sum", root=0), next_frame
                        )

            # Lines 22-24: rank 0 folds the epoch frame and checks the rule.
            decision = False
            if comm.is_root:
                with timer.phase("check"):
                    if reduced_frame is not None:
                        aggregated.add_into(reduced_frame)
                    if on_aggregate is not None:
                        on_aggregate(stats.num_epochs + 1, aggregated)
                    decision = condition.should_stop(aggregated)
                    if aggregated.num_samples >= condition.omega:
                        stats.stopped_by_omega = True
                    if on_epoch is not None:
                        on_epoch(stats.num_epochs + 1, aggregated.num_samples)

            # Lines 25-27: broadcast the termination flag over the world
            # communicator, overlapped with sampling.
            with timer.phase("broadcast"):
                terminated = bool(
                    overlap(comm.ibcast(decision if comm.is_root else None, root=0), next_frame)
                )

            stats.num_epochs += 1
            epoch += 1
            if max_epochs is not None and stats.num_epochs >= max_epochs and not terminated:
                terminated = bool(comm.allreduce(True, op="lor"))
    finally:
        # Lines 28-30: stop the sampling threads.
        manager.signal_termination()
        for worker in workers:
            worker.join()
    if failures:
        raise failures[0]

    stats.local_samples = int(sum(sample_counter))
    stats.aggregated_frame = aggregated if comm.is_root else None
    stats.phase_seconds = timer.as_dict()
    stats.communication_bytes = comm.communication_bytes()
    return stats


def run_rank(
    comm: Communicator,
    graph,
    options: KadabraOptions,
    *,
    threads: int = 1,
    algorithm: str = "epoch",
    processes_per_node: Optional[int] = None,
    kernel: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    max_epochs: Optional[int] = None,
    on_aggregate: Optional[Callable[[EpochBoundary], None]] = None,
    resume: Optional[EpochBoundary] = None,
) -> Tuple[Optional[BetweennessResult], EpochStats]:
    """Run one rank of parallel KADABRA; every rank of ``comm`` calls this.

    Returns ``(result, stats)``: the result at rank 0 (``None`` elsewhere) and
    this rank's statistics, whose ``phase_seconds`` carry the whole breakdown
    (``diameter``, ``calibration``, ``adaptive_sampling`` and the loop's
    phases as ``ads_*``).

    Parameters
    ----------
    graph:
        The graph view this rank samples from (replicated or sharded).
    threads:
        Sampling threads ``T`` per rank (the mpi-only algorithm samples on
        one, but keeps the RNG slot layout of ``T``).
    algorithm:
        ``"epoch"`` for Algorithm 2 (default) or ``"mpi-only"`` for
        Algorithm 1.
    processes_per_node:
        If set, enables the NUMA-aware split: ranks are grouped into compute
        nodes of this size and state frames are pre-aggregated node-locally.
    kernel:
        Forced sampling kernel; see :mod:`repro.kernels`.
    progress:
        Optional progress callback, invoked at rank 0 after the diameter and
        calibration phases and after each aggregation epoch.
    max_epochs:
        Optional safety bound on the number of epochs (used by tests).
    on_aggregate:
        Rank 0's checkpoint hook, called with the :class:`EpochBoundary` of
        every completed epoch.
    resume:
        At rank 0, a boundary to continue from: the engine broadcasts it
        instead of running phases 1-2 and samples from fresh RNG streams.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    if algorithm not in ALGORITHMS:
        raise ValueError("algorithm must be 'epoch' or 'mpi-only'")
    if processes_per_node is not None and processes_per_node <= 0:
        raise ValueError("processes_per_node must be positive when given")
    rank = comm.rank
    sampling_threads = threads if algorithm == "epoch" else 1
    if graph.num_vertices < 2:
        trivial = BetweennessResult(
            scores=np.zeros(graph.num_vertices), eps=options.eps, delta=options.delta
        )
        return (trivial if comm.is_root else None), EpochStats(rank, sampling_threads)
    timer = PhaseTimer()
    if not comm.is_root:
        progress = None

    def emit(phase: str, **fields) -> None:
        if progress is not None:
            progress(ProgressEvent(phase=phase, omega=omega, **fields))

    def sampler_for(_thread: int = 0) -> BatchPathSampler:
        return make_sampler(graph, options, kernel=kernel)

    header = dataclasses.replace(resume, frame=None) if resume is not None else None
    restored: Optional[EpochBoundary] = comm.bcast(header, root=0)
    if restored is not None:
        vd, omega = restored.vertex_diameter, restored.omega
        delta_l, delta_u = restored.delta_l, restored.delta_u
        initial_frame = resume.frame if comm.is_root else None
        base_epoch = restored.epoch
        # Fresh, independent streams: never replay the pre-crash samples.
        stream_seed = derive_seed(options.seed, _RESUME_SEED_TAG, base_epoch)
    else:
        # ---------------- Phase 1: diameter (sequential at rank 0) -------- #
        # Ranks run in their own processes (or, in tests, threads), so
        # non-root spans root their own per-rank trees; rank 0 nests beneath
        # the facade's "estimate" span as usual.
        with timer.phase("diameter"), obs_trace.span("diameter", rank=rank) as sp:
            vd = diameter_bound(graph, options, sp) if comm.is_root else None
            vd = int(comm.bcast(vd, root=0))
        omega = capped_samples(options, compute_omega(options.eps, options.delta, vd))
        emit("diameter")

        # ---------------- Phase 2: calibration ---------------------------- #
        with timer.phase("calibration"), obs_trace.span("calibration", rank=rank):
            # Same deterministic count as the sequential session engine, so
            # the phase structure (and the cost model built on it) agrees
            # across execution modes.
            total_calibration = calibration_sample_count(
                options.calibration_samples, omega, graph.num_vertices
            )
            sampler = sampler_for()
            # Thread slot 0 is reserved for calibration so that the adaptive
            # phase (slots 1..T) never replays the calibration sample stream.
            rng = rng_for_rank_thread(options.seed, rank, 0, num_threads=threads + 1)
            local_frame = StateFrame.zeros(graph.num_vertices)
            for take in plan_batches(int(math.ceil(total_calibration / comm.size))):
                local_frame.record_batch(sampler.sample_batch(take, rng))
            initial_frame = comm.reduce(local_frame, op="sum", root=0)
            payload = None
            if comm.is_root:
                calibration = calibrate_deltas(initial_frame, options.delta, eps=options.eps)
                payload = (calibration.delta_l, calibration.delta_u)
            delta_l, delta_u = comm.bcast(payload, root=0)
        if progress is not None:
            emit("calibration", num_samples=initial_frame.num_samples)
        base_epoch = 0
        stream_seed = options.seed
    condition = StoppingCondition(eps=options.eps, omega=omega, delta_l=delta_l, delta_u=delta_u)

    fold_hook = None
    if on_aggregate is not None:
        def fold_hook(epochs_done: int, aggregated: StateFrame) -> None:
            on_aggregate(
                EpochBoundary(base_epoch + epochs_done, aggregated, omega, vd, delta_l, delta_u)
            )

    # ---------------- Phase 3: adaptive sampling -------------------------- #
    samples_per_epoch = thread_zero_samples_per_epoch(
        comm.size,
        sampling_threads,
        base=float(options.samples_per_check),
        exponent=options.epoch_exponent,
    )
    with timer.phase("adaptive_sampling"), obs_trace.span(
        "adaptive_sampling", rank=rank, omega=omega
    ):
        topology = None
        if processes_per_node is not None and comm.size > 1:
            topology = build_topology(comm, processes_per_node)
        stats = adaptive_sampling_epochs(
            comm,
            sampler_for,
            condition,
            [
                rng_for_rank_thread(stream_seed, rank, t + 1, num_threads=threads + 1)
                for t in range(sampling_threads)
            ],
            num_threads=sampling_threads,
            samples_per_epoch=samples_per_epoch,
            algorithm=algorithm,
            initial_frame=initial_frame,
            topology=topology,
            max_epochs=max_epochs,
            on_epoch=lambda epoch, num_samples: emit(
                "adaptive_sampling", epoch=epoch, num_samples=num_samples
            ),
            on_aggregate=fold_hook,
        )
    for phase, seconds in stats.phase_seconds.items():
        timer.add(f"ads_{phase}", seconds)
    stats.phase_seconds = timer.as_dict()

    aggregated = stats.aggregated_frame
    if aggregated is None:
        return None, stats
    result = BetweennessResult(
        scores=aggregated.betweenness_estimates(),
        num_samples=aggregated.num_samples,
        eps=options.eps,
        delta=options.delta,
        omega=omega,
        vertex_diameter=vd,
        num_epochs=stats.num_epochs,
        phase_seconds=dict(stats.phase_seconds),
        extra={
            "communication_bytes": float(stats.communication_bytes),
            "num_processes": float(comm.size),
            "threads_per_process": float(threads),
            "samples_per_epoch_n0": float(samples_per_epoch),
        },
    )
    return result, stats
