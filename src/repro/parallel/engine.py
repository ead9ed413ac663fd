"""The rank engine: diameter → calibration → adaptive-sampling epochs.

This module holds the only calibration phase and the only check/draw loop of
the adaptive algorithm.  Every parallel mode runs :func:`run_rank` once per
rank; the modes differ only in the :class:`~repro.mpi.interface.Communicator`
and graph view they hand in (``SelfComm`` for shared memory, ``SocketComm``
for forked ranks and ``dist`` workers, on the caller's graph, a mapped
``.rcsr`` or a shard view).  The sequential
:class:`~repro.session.EstimationSession` is the ``P = T = 1`` case: it calls
:func:`calibration_phase` and :func:`adaptive_sampling_epochs` on a
``SelfComm`` with one thread, its own RNG stream and its own check grid.

1. *Diameter* — computed sequentially at rank 0, as in the paper, and
   broadcast.
2. *Calibration* — :func:`calibration_phase` splits the non-adaptive samples
   evenly across the ranks, reduces them, and rank 0 derives
   ``delta_L``/``delta_U`` (:func:`stopping_condition`) for everyone.
3. *Adaptive sampling* — :func:`adaptive_sampling_epochs`, the epoch loop of
   Section IV-C.  Threads ``1 .. T-1`` sample continuously into the frame of
   their current epoch; thread 0 samples what the check grid asks, forces the
   epoch transition, aggregates the epoch's frames, reduces them to rank 0
   (``algorithm="epoch"``, Algorithm 2: a non-blocking barrier then a
   blocking reduction, which the paper found faster than ``MPI_Ireduce``;
   ``"mpi-only"``, Algorithm 1: one thread and a plain ``Ireduce``), where
   the stopping rule is evaluated, and broadcasts the termination flag —
   sampling into the next epoch's frame while each request is in flight.
   On ``SelfComm`` with one thread every request completes at once, so each
   epoch draws exactly what the grid says.
"""

from __future__ import annotations

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
from repro.parallel.epoch_length import EpochLength, thread_zero_samples_per_epoch
from repro.parallel.epochs import EpochManager, FramePool
from repro.sampling.rng import derive_seed, rng_for_rank_thread
from repro.util.progress import ProgressCallback, ProgressEvent

__all__ = [
    "ALGORITHMS", "EpochStats", "adaptive_sampling_epochs", "calibration_phase", "run_rank",
    "stopping_condition",
]

#: ``"epoch"`` is Algorithm 2, ``"mpi-only"`` Algorithm 1.
ALGORITHMS = ("epoch", "mpi-only")

#: The registry backend each algorithm's checkpoints are recorded under.
_BACKEND = {"epoch": "distributed", "mpi-only": "mpi-only"}

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


def _draw(sampler, rng, count: int, frame: StateFrame, on_batch=None) -> None:
    """Draw ``count`` samples into ``frame`` in planned batches."""
    for take in plan_batches(count):
        batch = sampler.sample_batch(take, rng)
        frame.record_batch(batch)
        if on_batch is not None:
            on_batch(batch)


def stopping_condition(
    frame: StateFrame, *, eps: float, delta: float, omega: int
) -> StoppingCondition:
    """Phase 2's decision: ``delta_L``/``delta_U`` from a calibration frame."""
    calibration = calibrate_deltas(frame, delta, eps=eps)
    return StoppingCondition(
        eps=eps, omega=omega, delta_l=calibration.delta_l, delta_u=calibration.delta_u
    )


def calibration_phase(
    comm: Communicator,
    sampler: BatchPathSampler,
    rng: np.random.Generator,
    total: int,
    *,
    num_vertices: int,
    eps: float,
    delta: float,
    omega: int,
    on_batch: Optional[Callable] = None,
) -> Tuple[Optional[StateFrame], StoppingCondition]:
    """Phase 2 on every rank: ``total`` samples split evenly across the ranks.

    Returns ``(frame, condition)``: the reduced calibration frame at rank 0
    (``None`` elsewhere) and, at every rank, the stopping condition rank 0
    derived from it.  ``on_batch`` sees each batch this rank draws.
    """
    local = StateFrame.zeros(num_vertices)
    _draw(sampler, rng, int(math.ceil(total / comm.size)), local, on_batch)
    frame = comm.reduce(local, op="sum", root=0)
    condition = None
    if comm.is_root:
        condition = stopping_condition(frame, eps=eps, delta=delta, omega=omega)
    return frame, comm.bcast(condition, root=0)


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

    Batches of :data:`repro.kernels.WORKER_BATCH` amortise per-sample
    overhead yet acknowledge transitions promptly (``check_transition`` runs
    between batches, so a frame is only written by its owner inside one
    epoch).  An exception ends the thread and is left in ``failures`` for
    thread 0, which would otherwise wait forever for its next transition.
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
    grid,
    algorithm: str = "epoch",
    initial_frame: Optional[StateFrame] = None,
    topology: Optional[NodeTopology] = None,
    max_epochs: Optional[int] = None,
    on_batch: Optional[Callable] = None,
    on_epoch: Optional[Callable[[int, int], None]] = None,
    on_aggregate: Optional[Callable[[int, StateFrame], None]] = None,
) -> EpochStats:
    """Run the adaptive-sampling epoch loop on this rank.

    ``sampler_factory(t)`` makes thread ``t``'s sampler and ``rngs[t]`` is its
    generator; ``condition`` is evaluated at world rank 0 only.  ``grid``
    is the check grid: ``grid.epoch_samples(epoch, tau)`` samples are drawn
    by thread 0 in loop epoch ``epoch`` (0-based) before its check, ``tau``
    being the aggregate's count at rank 0 (0 elsewhere) —
    :class:`~repro.parallel.epoch_length.EpochLength` for the parallel rule,
    the session's :class:`~repro.core.stopping.CheckSchedule` at ``P = T =
    1``.  ``algorithm`` picks Algorithm 2 (``"epoch"``) or 1 (``"mpi-only"``,
    one thread).  ``initial_frame`` (calibration, a resumed aggregate) is
    folded into the aggregate at rank 0 without being modified; with
    ``topology`` frames are pre-aggregated node-locally and only node leaders
    join the global reduction (Section IV-E); ``max_epochs`` is a safety
    bound for tests.

    Hooks: ``on_batch(batch)`` sees every batch thread 0 draws for the grid
    (not the single overlap samples taken while a request is in flight —
    there are none on ``SelfComm`` with one thread); at rank 0,
    ``on_aggregate(epochs_done, aggregated)`` fires right after each fold,
    before the rule (the boundary checkpoints are taken at; ``aggregated``
    is the live aggregate), and ``on_epoch(epochs_done, num_samples)`` after
    each evaluation of the rule.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError("algorithm must be 'epoch' or 'mpi-only'")
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    if algorithm == "mpi-only" and num_threads != 1:
        raise ValueError("the mpi-only algorithm samples on one thread per rank")
    if len(rngs) < num_threads:
        raise ValueError("need one RNG per thread")

    num_vertices = condition.num_vertices
    phases = obs_trace.PhaseRecorder()
    manager = EpochManager(num_threads)
    pool = FramePool(num_threads, num_vertices)
    sample_counter = [0] * num_threads
    failures: List[BaseException] = []
    stats = EpochStats(rank=comm.rank, num_threads=num_threads)

    seeded = comm.is_root and initial_frame is not None
    aggregated = initial_frame.copy() if seeded else StateFrame.zeros(num_vertices)  # S at rank 0

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
    # writes the next epoch's frame.  One thread's frame is its own aggregate.
    aggregate_scratch = StateFrame.zeros(num_vertices) if num_threads > 1 else None

    epoch = 0
    terminated = False
    try:
        while not terminated:
            current_frame = pool.frame(0, epoch)
            # Lines 12-13: thread 0 samples up to the grid's next check.
            count = grid.epoch_samples(epoch, aggregated.num_samples)
            with phases("sampling", epoch=epoch):
                _draw(sampler0, rng0, count, current_frame, on_batch)
                sample_counter[0] += count
            # Lines 14-15: force the epoch transition, sampling while waiting.
            next_frame = pool.reset_for_epoch(0, epoch + 1)
            with phases("epoch_transition"):
                overlap(manager.force_transition(epoch), next_frame)
            # Lines 16-18: aggregate this process' epoch frames.
            with phases("local_aggregation"):
                epoch_frame = current_frame
                if aggregate_scratch is not None:
                    epoch_frame = pool.aggregate_epoch(epoch, out=aggregate_scratch)
                if local_comm is not None and local_comm.size > 1:
                    epoch_frame = local_comm.reduce(epoch_frame, op="sum", root=0)

            # Lines 19-21: reduce across processes, overlapped with sampling.
            reduced_frame: Optional[StateFrame] = None
            if reduce_comm is not None and epoch_frame is not None:
                if algorithm == "epoch":
                    with phases("ibarrier"):
                        overlap(reduce_comm.ibarrier(), next_frame)
                    with phases("reduce"):
                        reduced_frame = reduce_comm.reduce(epoch_frame, op="sum", root=0)
                else:
                    with phases("reduce"):
                        reduced_frame = overlap(
                            reduce_comm.ireduce(epoch_frame, op="sum", root=0), next_frame
                        )

            # Lines 22-24: rank 0 folds the epoch frame and checks the rule.
            decision = False
            if comm.is_root:
                with phases("check", epoch=epoch) as sp:
                    if reduced_frame is not None:
                        aggregated.add_into(reduced_frame)
                    if on_aggregate is not None:
                        on_aggregate(stats.num_epochs + 1, aggregated)
                    decision = condition.should_stop(aggregated)
                    sp.set("stop", bool(decision))
                    if aggregated.num_samples >= condition.omega:
                        stats.stopped_by_omega = True
                    if on_epoch is not None:
                        on_epoch(stats.num_epochs + 1, aggregated.num_samples)

            # Lines 25-27: broadcast the termination flag over the world
            # communicator, overlapped with sampling.
            with phases("broadcast"):
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
    stats.phase_seconds = phases.seconds
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
    on_aggregate: Optional[Callable] = None,
    resume=None,
) -> Tuple[Optional[BetweennessResult], EpochStats]:
    """Run one rank of parallel KADABRA; every rank of ``comm`` calls this.

    Returns ``(result, stats)``: the result at rank 0 (``None`` elsewhere) and
    this rank's statistics, whose ``phase_seconds`` carry the whole breakdown
    (``diameter``, ``calibration``, ``adaptive_sampling`` and the loop's
    phases as ``ads_*``).  ``graph`` is this rank's (replicated or sharded)
    view; ``threads`` is ``T`` per rank (``"mpi-only"`` samples on one but
    keeps the RNG slot layout of ``T``); ``processes_per_node`` enables the
    NUMA-aware node-local pre-aggregation; ``kernel`` forces a sampling
    kernel; ``progress`` fires at rank 0 after each phase and epoch;
    ``max_epochs`` bounds the loop (tests).

    ``on_aggregate(state)`` is rank 0's checkpoint hook, called after every
    fold with rank 0's state as an :class:`~repro.session.EstimationSession`
    (``state.checkpoint(path)`` writes the session snapshot format; the
    state is not refinable, its samples come from per-rank streams).
    ``resume`` is, at rank 0, such a state restored with
    :meth:`~repro.session.EstimationSession.restore`: its diameter bound and
    stopping condition are broadcast instead of running phases 1-2, and the
    loop samples from fresh RNG streams.
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
        n = graph.num_vertices
        trivial = BetweennessResult(scores=np.zeros(n), eps=options.eps, delta=options.delta)
        return (trivial if comm.is_root else None), EpochStats(rank, sampling_threads)
    phases = obs_trace.PhaseRecorder()
    if not comm.is_root:
        progress = None

    def emit(phase: str, **fields) -> None:
        if progress is not None:
            progress(ProgressEvent(phase=phase, omega=omega, **fields))

    def sampler_for(_thread: int = 0) -> BatchPathSampler:
        return make_sampler(graph, options, kernel=kernel)

    state = resume if comm.is_root else None
    header = None if state is None else (state._vd, state._checks, state._condition)
    restored = comm.bcast(header, root=0)
    if restored is not None:
        vd, base_epoch, condition = restored
        omega = condition.omega
        initial_frame = state._frame if comm.is_root else None
        # Fresh, independent streams: never replay the pre-crash samples.
        stream_seed = derive_seed(options.seed, _RESUME_SEED_TAG, base_epoch)
    else:
        # ---------------- Phase 1: diameter (sequential at rank 0) -------- #
        # Ranks run in their own processes (or, in tests, threads), so
        # non-root spans root their own per-rank trees; rank 0 nests beneath
        # the facade's "estimate" span as usual.
        with phases("diameter", rank=rank) as sp:
            vd = diameter_bound(graph, options, sp) if comm.is_root else None
            vd = int(comm.bcast(vd, root=0))
        omega = capped_samples(options, compute_omega(options.eps, options.delta, vd))
        emit("diameter")

        # ---------------- Phase 2: calibration ---------------------------- #
        with phases("calibration", rank=rank):
            # The session's sample count, so the phase structure (and the cost
            # model built on it) agrees across modes; RNG slot 0, so the
            # adaptive phase (slots 1..T) never replays the calibration stream.
            initial_frame, condition = calibration_phase(
                comm,
                sampler_for(),
                rng_for_rank_thread(options.seed, rank, 0, num_threads=threads + 1),
                calibration_sample_count(options.calibration_samples, omega, graph.num_vertices),
                num_vertices=graph.num_vertices,
                eps=options.eps,
                delta=options.delta,
                omega=omega,
            )
        if progress is not None:
            emit("calibration", num_samples=initial_frame.num_samples)
        base_epoch = 0
        stream_seed = options.seed
        if comm.is_root and on_aggregate is not None:
            from repro.session.session import EstimationSession

            state = EstimationSession._rank_state(
                graph, options, kernel, _BACKEND[algorithm], vd, initial_frame, condition
            )

    fold_hook = None
    if state is not None and on_aggregate is not None:
        def fold_hook(epochs_done: int, aggregated: StateFrame) -> None:
            state._frame, state._checks = aggregated, base_epoch + epochs_done
            on_aggregate(state)

    # ---------------- Phase 3: adaptive sampling -------------------------- #
    n0 = thread_zero_samples_per_epoch(
        comm.size, sampling_threads,
        base=float(options.samples_per_check), exponent=options.epoch_exponent,
    )
    with phases("adaptive_sampling", rank=rank, omega=omega):
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
            grid=EpochLength(n0),
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
        phases.seconds[f"ads_{phase}"] = seconds
    stats.phase_seconds = phases.seconds

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
            "samples_per_epoch_n0": float(n0),
        },
    )
    return result, stats
