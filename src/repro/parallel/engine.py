"""The rank engine: diameter → calibration → adaptive-sampling epochs.

This module holds the only calibration phase and the only check/draw loop of
the adaptive algorithm.  Every adaptive mode runs :func:`run_rank` once per
rank; the modes differ only in the :class:`~repro.mpi.interface.Communicator`
and graph view they hand in (``SelfComm`` for shared memory, ``SocketComm``
for forked ranks and ``dist`` workers, on the caller's graph, a mapped
``.rcsr`` or a shard view).  One worker (one rank, one thread) is one
computation, Algorithm 2 at ``P = T = 1``: sequential KADABRA, drawing
calibration and sampling from one stream, checking on the
:class:`~repro.core.stopping.CheckSchedule` and stopping at ``omega`` at the
latest, whichever backend asks for it.  The sequential
:class:`~repro.session.EstimationSession` holds that worker's state (frames,
stream, sample log) and hands it to :func:`run_rank` for ``run``, ``refine``
and graph updates; it runs no phase of its own.

1. *Diameter* — computed sequentially at rank 0, as in the paper, and
   broadcast (``ibcast``).  With several workers the other ranks' thread 0
   samples from its adaptive (rank, thread 1) stream while the broadcast is
   in flight, into its epoch-0 frame.
2. *Calibration* — :func:`calibration_phase` splits the non-adaptive samples
   evenly across the ranks and reduces them (``ireduce``, rank 0's thread 0
   sampling into that same frame while it is in flight); rank 0 derives
   ``delta_L``/``delta_U`` (:func:`stopping_condition`) and keeps them, as
   it alone evaluates the stopping rule.  The other ranks go straight on.
   The samples taken during both collectives count toward epoch 0's ``n0``
   and stop at it; the calibration stream, frame and deltas are what they
   would be without them.  One worker draws calibration from its one stream
   instead, extending a state's frame to the target's count (positions the
   stream already drew are replayed), which is what makes ``refine`` exact.
3. *Adaptive sampling* — :func:`adaptive_sampling_epochs`, the epoch loop of
   Section IV-C, from the budget every rank knows after phase 2,
   ``R0 = omega - tau`` (``tau`` the calibration count, or the resumed
   aggregate's, which the resume header carries).  Threads ``1 .. T-1``
   sample into the frame of their current epoch until it holds their share,
   which thread 0 publishes: ``ceil(R / (P T))`` of the budget left with each
   plan, then, as it forces the transition, its own overlap cap for the
   next frame (0 after the last); thread 0 samples what the check grid
   plans, forces the epoch transition, aggregates the epoch's frames,
   reduces them to rank 0 (``algorithm="epoch"``, Algorithm 2: a
   non-blocking barrier then a blocking reduction, which the paper found
   faster than ``MPI_Ireduce``; ``"mpi-only"``, Algorithm 1: one thread and
   a plain ``Ireduce``), where
   the stopping rule is evaluated, and broadcasts the budget left, ``R``
   (0 stops) — sampling into the next epoch's frame while each request is
   in flight, between polls: a :data:`~repro.kernels.WORKER_BATCH` per poll
   when the search is compiled (that call releases the GIL the
   communicator's threads need), one sample otherwise.  One worker checks on
   the :class:`~repro.core.stopping.CheckSchedule`.  Several check on the
   :class:`EpochGrid`, which plans every epoch from ``R`` alike and so stops
   the run at ``omega``, planning none at all when ``R0 <= 0``.

A frame that crosses ranks travels in :meth:`~repro.core.state_frame.StateFrame.for_wire`
form: its nonzero counters as ``(index, count)`` arrays when they are fewer
than a third of the vertices, dense otherwise.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.calibration import calibrate_deltas, calibration_sample_count
from repro.core.kadabra import capped_samples, diameter_bound, make_sampler
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.state_frame import StateFrame
from repro.core.stopping import CheckSchedule, StoppingCondition, compute_omega
from repro.kernels import WORKER_BATCH, BatchPathSampler, plan_batches
from repro.mpi.interface import Communicator
from repro.mpi.requests import Request
from repro.obs import trace as obs_trace
from repro.parallel.epochs import EpochManager, FramePool
from repro.sampling.rng import derive_seed, generator_from_state, generator_state, rng_for_rank_thread
from repro.util.progress import ProgressCallback, ProgressEvent

__all__ = [
    "ALGORITHMS", "EpochGrid", "EpochStats", "adaptive_sampling_epochs", "calibration_phase", "run_rank",
    "stopping_condition",
]

#: ``"epoch"`` is Algorithm 2, ``"mpi-only"`` Algorithm 1.
ALGORITHMS = ("epoch", "mpi-only")

#: The registry backend each algorithm's checkpoints are recorded under.
_BACKEND = {"epoch": "distributed", "mpi-only": "mpi-only"}

#: Salt tag separating post-resume RNG streams from the original run's.
_RESUME_SEED_TAG = 7701

#: Seconds thread 0 sleeps between polls of a request it waits on without sampling.
_IDLE_POLL_S = 1e-4


@dataclass
class EpochStats:
    """Per-rank statistics of one run of the epoch loop."""

    rank: int
    num_threads: int
    num_epochs: int = 0
    #: Samples this rank's threads drew from their adaptive streams, the
    #: opening's (drawn before the loop, while the diameter and calibration
    #: collectives were in flight) and the discarded last overlap included.
    local_samples: int = 0
    #: The opening's part of ``local_samples``, drawn outside the loop's
    #: ``phase_seconds``: a rate over the loop's clock leaves it out.
    opening_samples: int = 0
    aggregated_frame: Optional[StateFrame] = None  # only at world rank 0
    stopped_by_omega: bool = False
    #: Samples this rank's frames held past its share ``ceil(R / P)`` of the
    #: budget when the run ended in its budgeted last epoch (else ``None``):
    #: the run's overshoot of ``omega`` is then their sum over the ranks plus
    #: the rounding, ``P * ceil(R / P) - R < P``.
    final_surplus: Optional[int] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    communication_bytes: int = 0


def _draw(sampler, rng, count: int, frame: StateFrame, on_batch=None) -> None:
    """Draw ``count`` samples into ``frame`` in planned batches."""
    for take in plan_batches(count):
        batch = sampler.sample_batch(take, rng)
        frame.record_batch(batch)
        if on_batch is not None:
            on_batch(batch)


def _sample_while(
    request: Request,
    sampler: BatchPathSampler,
    rng: np.random.Generator,
    frame: StateFrame,
    failures: Sequence[BaseException] = (),
    limit: float = math.inf,
) -> Tuple[object, int]:
    """Sample into ``frame`` until ``request`` completes; return its result and the samples drawn.

    A compiled batch runs without the GIL, so the communicator's threads
    progress while thread 0 draws a whole worker batch; any other search
    holds the GIL for the batch, so it draws one sample per poll.  Once
    ``frame`` holds ``limit`` samples it only waits.  A sampling
    thread's exception in ``failures`` ends the wait, which that thread's
    epoch transition would never end.
    """
    batch = WORKER_BATCH if sampler.compiled else 1
    drawn = 0
    while not request.test():
        if failures:
            raise failures[0]
        if frame.num_samples >= limit:
            time.sleep(_IDLE_POLL_S)
            continue
        frame.record_batch(sampler.sample_batch(batch, rng))
        drawn += batch
    return request.result(), drawn


def stopping_condition(
    frame: StateFrame, *, eps: float, delta: float, omega: int
) -> StoppingCondition:
    """Phase 2's decision: ``delta_L``/``delta_U`` from a calibration frame."""
    calibration = calibrate_deltas(frame, delta, eps=eps)
    return StoppingCondition(
        eps=eps, omega=omega, delta_l=calibration.delta_l, delta_u=calibration.delta_u
    )


def _wire(frame: StateFrame, comm: Communicator):
    """``frame`` as it travels: in :meth:`~StateFrame.for_wire` form when there is another rank."""
    return frame.for_wire() if comm.size > 1 else frame


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
    wait: Callable[[Request], object] = Request.wait,
) -> Tuple[Optional[StateFrame], Optional[StoppingCondition]]:
    """Phase 2 with several workers: ``total`` samples split evenly across the ranks.

    Returns ``(frame, condition)`` at rank 0: the reduced calibration frame
    and the stopping condition derived from it; ``(None, None)`` elsewhere,
    after the reduce, this phase's one collective (an ``ireduce``, which
    ``wait(request)`` completes: the engine samples meanwhile).
    """
    local = StateFrame.zeros(num_vertices)
    _draw(sampler, rng, int(math.ceil(total / comm.size)), local)
    reduced = wait(comm.ireduce(_wire(local, comm), op="sum", root=0))
    if not comm.is_root:
        return None, None
    frame = StateFrame.zeros(num_vertices).add_into(reduced)
    return frame, stopping_condition(frame, eps=eps, delta=delta, omega=omega)


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
    epoch).  Once the frame holds the share thread 0 published, the thread
    only polls for its transition, as thread 0 idles past its overlap cap,
    so a frame holds at most the largest share published while it was
    current plus a batch less one.  An exception ends the thread and is left
    in ``failures`` for thread 0, which would otherwise wait forever for its
    next transition.
    """
    try:
        epoch = 0
        frame = pool.frame(thread_index, epoch)
        while not manager.terminated:
            if frame.num_samples < manager.share:
                frame.record_batch(sampler.sample_batch(WORKER_BATCH, rng))
                sample_counter[thread_index] += WORKER_BATCH
            else:
                time.sleep(_IDLE_POLL_S)
            if manager.check_transition(thread_index, epoch):
                epoch += 1
                frame = pool.reset_for_epoch(thread_index, epoch)
    except BaseException as exc:  # noqa: BLE001 - re-raised by thread 0
        failures.append(exc)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class EpochGrid:
    """The check grid of a run with several workers (``P * T > 1``).

    Thread 0 draws ``n0 = samples_per_check / (P * T) ** 1.33`` per epoch, at
    least one (Section IV-D: Ref. [24]'s ``1000 / T^1.33`` for ``P * T``
    workers), plus what it samples while the previous epoch's collectives
    are in flight (few, long epochs on large graphs, hundreds of short ones
    on road networks: Table II); the opening counts toward epoch 0's ``n0``.

    Each epoch is planned from the budget left ``R``, which every rank knows
    (``R0``, then rank 0's broadcasts), so every rank takes each decision in
    the same epoch.  With one thread per rank an epoch adds at most
    ``reach = P * (n0 + cap + WORKER_BATCH - 1)``, ``cap`` being the cap on
    the overlap that filled its frames.  The epoch is the last once ``R <=
    reach``, or once the epoch before added ``R`` or more (worker threads
    sample up to their share of the ``R`` before): every thread draws
    ``ceil(R / (P T))`` and thread 0 tops its rank up to ``ceil(R / P)``.
    Otherwise every thread's overlap into the next frame is capped at
    ``min(s, max(n0, s // 2))``, ``s`` being each worker's share of ``R -
    reach``: a last frame holds at most its share, or that cap, plus a batch
    less one, and no cap near ``R`` makes the next epoch the last with most
    of ``R`` unchecked.
    """

    def __init__(self, ranks: int, threads: int, *, samples_per_check: int = 1000) -> None:
        if ranks <= 0 or threads <= 0:
            raise ValueError("ranks and threads must be positive")
        if samples_per_check <= 0:
            raise ValueError("samples_per_check must be positive")
        self.ranks, self.workers = ranks, ranks * threads
        self.n0 = max(1, int(round(float(samples_per_check) * (1.0 / self.workers) ** 1.33)))
        self.remaining = 0  # R at the last call; the first sees no growth
        self.cap = 0  # the overlap cap that filled the coming epoch's frames

    def next_epoch(self, epoch: int, tau: int, left: int) -> Optional[Tuple[int, int, float]]:
        """``(count, rank_share, cap)`` of epoch ``epoch`` with ``left`` the budget
        left, or ``None`` once it is spent; ``tau`` is unused (only rank 0 has it)."""
        growth, self.remaining = self.remaining - left, left
        if left <= 0:
            return None
        reach = max(self.ranks * (self.n0 + self.cap + WORKER_BATCH - 1), growth)
        if left <= reach:
            return _ceil_div(left, self.workers), _ceil_div(left, self.ranks), 0
        share = (left - reach) // self.workers
        self.cap = min(share, max(self.n0, share // 2))
        return self.n0, 0, self.cap


def adaptive_sampling_epochs(
    comm: Communicator,
    sampler_factory: Callable[[int], BatchPathSampler],
    condition: Optional[StoppingCondition],
    rngs: List[np.random.Generator],
    *,
    num_threads: int,
    num_vertices: int,
    grid,
    budget: int,
    algorithm: str = "epoch",
    initial_frame: Optional[StateFrame] = None,
    opening: Optional[StateFrame] = None,
    max_epochs: Optional[int] = None,
    on_batch: Optional[Callable] = None,
    on_epoch: Optional[Callable[[int, int], None]] = None,
    on_aggregate: Optional[Callable[[int, StateFrame], None]] = None,
) -> EpochStats:
    """Run the adaptive-sampling epoch loop on this rank.

    ``sampler_factory(t)`` makes thread ``t``'s sampler and ``rngs[t]`` is its
    generator; ``num_vertices`` sizes the frames; ``condition`` is evaluated
    at world rank 0 only (the other ranks may pass ``None``).  ``grid`` plans
    each epoch — :class:`EpochGrid` for several workers, the
    :class:`~repro.core.stopping.CheckSchedule` for one: ``grid.next_epoch(
    epoch, tau, R)`` (``tau`` the aggregate's count at rank 0, 0 elsewhere;
    ``R`` the budget left, ``budget`` before the first check, then rank 0's
    broadcast) is ``(count, rank_share, cap)`` — thread 0 draws ``count``
    (epoch 0 less the opening), a ``rank_share`` makes the epoch the last,
    ``cap`` bounds thread 0's overlap into its next frame — or ``None``: no
    more epochs.  ``algorithm`` picks Algorithm 2 (``"epoch"``) or 1
    (``"mpi-only"``, one thread).  ``initial_frame`` (calibration, a resumed
    aggregate) is folded into the aggregate at rank 0 without being
    modified; ``opening`` holds samples thread 0 drew from ``rngs[0]`` before
    the loop, which open its epoch-0 frame; ``max_epochs`` is a safety bound
    for tests.

    In the last epoch every thread draws its share and thread 0, sampling no
    overlap, tops its rank up to ``rank_share``: the run passes ``omega`` by
    what frames held over their shares (``EpochStats.final_surplus``) and the
    rounding.  A run with no epoch starts no thread and posts no collective.

    Hooks: ``on_batch(batch)`` sees every batch thread 0 draws for the grid
    (not the overlap batches drawn while a request is in flight — there are
    none on ``SelfComm`` with one thread); at rank 0,
    ``on_aggregate(epochs_done, aggregated)`` fires right after each fold,
    before the rule (the boundary checkpoints are taken at; ``aggregated``
    is the live aggregate), and ``on_epoch(epochs_done, num_samples)`` after
    each evaluation of the rule.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError("algorithm must be 'epoch' or 'mpi-only'")
    if algorithm == "mpi-only" and num_threads != 1:
        raise ValueError("the mpi-only algorithm samples on one thread per rank")
    if len(rngs) < num_threads:
        raise ValueError("need one RNG per thread")

    phases = obs_trace.PhaseRecorder()
    manager = EpochManager(num_threads)
    pool = FramePool(num_threads, num_vertices)
    sample_counter = [0] * num_threads
    failures: List[BaseException] = []
    stats = EpochStats(rank=comm.rank, num_threads=num_threads)
    if opening is not None:
        pool.frame(0, 0).add_into(opening)
        sample_counter[0] = stats.opening_samples = opening.num_samples

    seeded = comm.is_root and initial_frame is not None
    aggregated = initial_frame.copy() if seeded else StateFrame.zeros(num_vertices)  # S at rank 0

    def plan_epoch() -> Optional[Tuple[int, int, float]]:
        manager.share = _ceil_div(left, comm.size * num_threads)  # each worker thread's share of R
        return grid.next_epoch(epoch, aggregated.num_samples, left)

    epoch, left = 0, budget
    plan = plan_epoch()
    if plan is None:
        # The breakdown keeps the loop's phases, each empty, because the
        # bench reads them unguarded; ROADMAP direction 1(e) removes them.
        barrier = ("ibarrier",) if algorithm == "epoch" else ()  # Algorithm 1 has none
        for phase in ("sampling", *barrier, "reduce", "check"):
            with phases(phase, epoch=0, skipped=True):
                pass

    workers = [
        threading.Thread(
            target=_worker_loop,
            args=(t, sampler_factory(t), rngs[t], manager, pool, sample_counter, failures),
            daemon=True,
        )
        for t in range(1, num_threads if plan is not None else 1)
    ]
    for worker in workers:
        worker.start()

    sampler0 = sampler_factory(0)
    rng0 = rngs[0]

    def draw(count: int, frame: StateFrame) -> None:
        if count > 0:
            _draw(sampler0, rng0, count, frame, on_batch)
            sample_counter[0] += count

    def overlap(request: Request, frame: StateFrame):
        """Sample into ``frame``, up to the plan's cap, until ``request`` completes; return its result."""
        value, drawn = _sample_while(request, sampler0, rng0, frame, failures, limit)
        sample_counter[0] += drawn
        return value

    # Reused every epoch by aggregate_epoch (zeroed in place, never
    # reallocated); safe because the aggregate is reduced and folded before
    # the next epoch's aggregation starts, and overlapped sampling only ever
    # writes the next epoch's frame.  One thread's frame is its own aggregate.
    aggregate_scratch = StateFrame.zeros(num_vertices) if num_threads > 1 else None

    try:
        while plan is not None:
            count, rank_share, limit = plan
            current_frame = pool.frame(0, epoch)
            if rank_share or epoch == 0:
                count -= current_frame.num_samples  # what overlap or the opening put there
            # Lines 12-13: thread 0 samples up to the grid's next check.
            with phases("sampling", epoch=epoch):
                draw(count, current_frame)
            # Lines 14-15: force the epoch transition, sampling while waiting
            # (the last epoch's cap is 0: it only waits, here and below); the
            # worker threads' next frames fill up to the same cap.
            next_frame = pool.reset_for_epoch(0, epoch + 1)
            manager.share = limit
            with phases("epoch_transition"):
                overlap(manager.force_transition(epoch), next_frame)
            if rank_share:  # the last epoch's frames are immutable now: top the rank's share up
                held = sum(pool.frame(t, epoch).num_samples for t in range(num_threads))
                with phases("sampling", epoch=epoch):
                    draw(rank_share - held, current_frame)
                stats.final_surplus = max(0, held - rank_share)
            # Lines 16-18: aggregate this process' epoch frames.
            with phases("local_aggregation"):
                epoch_frame = current_frame
                if aggregate_scratch is not None:
                    epoch_frame = pool.aggregate_epoch(epoch, out=aggregate_scratch)
                wire = _wire(epoch_frame, comm)

            # Lines 19-21: reduce across processes, overlapped with sampling.
            if algorithm == "epoch":
                with phases("ibarrier"):
                    overlap(comm.ibarrier(), next_frame)
                with phases("reduce"):
                    reduced_frame = comm.reduce(wire, op="sum", root=0)
            else:
                with phases("reduce"):
                    reduced_frame = overlap(comm.ireduce(wire, op="sum", root=0), next_frame)

            # Lines 22-24: rank 0 folds the epoch frame and checks the rule
            # (the last epoch ends at omega, which stops it).
            if comm.is_root:
                with phases("check", epoch=epoch) as sp:
                    if reduced_frame is not None:
                        aggregated.add_into(reduced_frame)
                    if on_aggregate is not None:
                        on_aggregate(stats.num_epochs + 1, aggregated)
                    decision = condition.should_stop(aggregated)
                    sp.set("stop", bool(decision))
                    if on_epoch is not None:
                        on_epoch(stats.num_epochs + 1, aggregated.num_samples)
                    left = 0 if decision else condition.omega - aggregated.num_samples

            # Lines 25-27: broadcast the budget left, overlapped with sampling.
            with phases("broadcast"):
                left = int(overlap(comm.ibcast(left, root=0), next_frame))

            stats.num_epochs += 1
            epoch += 1
            if max_epochs is not None and stats.num_epochs >= max_epochs:
                left = 0
            plan = plan_epoch()
    finally:
        # Lines 28-30: stop the sampling threads.
        manager.signal_termination()
        for worker in workers:
            worker.join()
    if failures:
        raise failures[0]

    stats.local_samples = int(sum(sample_counter))
    stats.stopped_by_omega = comm.is_root and aggregated.num_samples >= condition.omega
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
    keeps the RNG slot layout of ``T``); ``kernel`` forces a sampling
    kernel; ``progress`` fires at rank 0 after each phase and epoch;
    ``max_epochs`` bounds the loop (tests).

    One rank with one thread is one worker: sequential KADABRA, drawing
    calibration and sampling from one stream and checking on the
    :class:`~repro.core.stopping.CheckSchedule`, which stops at ``omega`` at
    the latest.  More workers draw from their (rank, thread) slots and check
    on the :class:`EpochGrid` from ``R0 = omega - tau``, which every rank
    knows after phase 2, so they stop at ``omega`` too (with no epoch when
    ``R0 <= 0``); a fresh run's thread 0 samples while the diameter
    broadcast and the calibration reduce are in flight.

    ``on_aggregate(state)`` is rank 0's checkpoint hook, called after every
    fold with rank 0's state as an :class:`~repro.session.EstimationSession`
    (``state.checkpoint(path)`` writes the session snapshot format; the
    state is not refinable, it holds no stream of its own).  ``resume`` is,
    at rank 0, such a session: the run continues from its aggregate, epoch
    count and diameter bound.  With several workers, those and ``tau`` are
    broadcast instead of running phases 1-2, its stopping condition stays at
    rank 0, and the loop samples from fresh, salted slots.  One worker continues the
    session's own stream when it carries one (``run``, ``refine`` and graph
    updates: the session holds the state, this function runs the phases),
    else a fresh, salted one; it runs phase 1 when the state holds no
    diameter bound, extends the calibration frame to the target's count and
    recalibrates.
    """
    if threads <= 0:
        raise ValueError("threads must be positive")
    if algorithm not in ALGORITHMS:
        raise ValueError("algorithm must be 'epoch' or 'mpi-only'")
    rank = comm.rank
    sampling_threads = threads if algorithm == "epoch" else 1
    n = graph.num_vertices
    if n < 2:
        trivial = BetweennessResult(scores=np.zeros(n), eps=options.eps, delta=options.delta)
        return (trivial if comm.is_root else None), EpochStats(rank, sampling_threads)
    phases = obs_trace.PhaseRecorder()
    if not comm.is_root:
        progress = None
    state = resume if comm.is_root else None
    base_epoch = 0 if state is None else state._checks

    def emit(phase: str, **fields) -> None:
        if progress is not None:
            progress(ProgressEvent(phase=phase, omega=omega, **fields))

    def diameter_phase(wait: Callable[[Request], object] = Request.wait) -> int:
        # Sequential at rank 0.  Ranks run in their own processes (or, in
        # tests, threads), so non-root spans root their own per-rank trees;
        # rank 0 nests beneath its caller's span as usual.
        with phases("diameter", rank=rank) as sp:
            vd = diameter_bound(graph, options, sp) if comm.is_root else None
            vd = int(wait(comm.ibcast(vd, root=0)))
            sp.set("vertex_diameter", vd)
        return vd

    # Thread 0's sampler, for calibration and the loop alike (a session's
    # own, when it has one), is built before the first collective: the other
    # ranks build theirs while rank 0 sweeps.
    sampler0 = getattr(state, "_sampler", None)
    if sampler0 is None:
        sampler0 = make_sampler(graph, options, kernel=kernel)

    def sampler_for(thread: int) -> BatchPathSampler:
        return sampler0 if thread == 0 else make_sampler(graph, options, kernel=kernel)

    replayed = 0
    one_worker = comm.size == 1 and threads == 1
    if one_worker:
        # ---------------- One worker: sequential KADABRA ----------------- #
        stream = getattr(state, "_rng", None)
        if stream is None:
            seed = options.seed if state is None else derive_seed(options.seed, _RESUME_SEED_TAG, base_epoch)
            stream = np.random.default_rng(seed)
        vd = None if state is None else state._vd
        computed = vd is None
        if computed:
            vd = diameter_phase()
        omega = capped_samples(options, compute_omega(options.eps, options.delta, vd))
        if computed:
            emit("diameter")
        grid = CheckSchedule(
            calibration_samples=calibration_sample_count(options.calibration_samples, omega, n),
            samples_per_check=max(1, options.samples_per_check),
            omega=omega,
        )
        log = getattr(state, "_sample_log", None)
        on_batch = None if log is None else log.append_batch
        with phases("calibration", rank=rank):
            initial_frame = StateFrame.zeros(n) if state is None else state._frame
            calibration = getattr(state, "_calibration_frame", None)
            if calibration is None:
                calibration = StateFrame.zeros(n)
            # The calibration frame is the first C samples of the stream.  To
            # extend it, positions the stream already drew are replayed from
            # where calibration stopped (into this frame only), later ones
            # are drawn live (into both frames).
            tau, target = initial_frame.num_samples, grid.calibration_samples
            replayed = min(target, tau) - calibration.num_samples
            if replayed > 0:
                replay = generator_from_state(state._calibration_rng_state)
                _draw(sampler0, replay, replayed, calibration)
                state._calibration_rng_state = generator_state(replay)
            if target > tau:
                def into_both(batch) -> None:
                    initial_frame.record_batch(batch)
                    if on_batch is not None:
                        on_batch(batch)

                _draw(sampler0, stream, target - tau, calibration, into_both)
                if state is not None:
                    state._calibration_rng_state = generator_state(stream)
            condition = stopping_condition(calibration, eps=options.eps, delta=options.delta, omega=omega)
        emit("calibration", num_samples=initial_frame.num_samples)
        rngs, n0, opening, tau = [stream], grid.samples_per_check, None, initial_frame.num_samples
    else:
        on_batch = None
        opening = None

        def streams(seed: int) -> List[np.random.Generator]:
            return [rng_for_rank_thread(seed, rank, t + 1, num_threads=threads + 1) for t in range(sampling_threads)]

        grid = EpochGrid(comm.size, sampling_threads, samples_per_check=options.samples_per_check)
        n0 = grid.n0
        header = None if state is None else (state._vd, state._checks, state._condition.omega, state._frame.num_samples)
        restored = comm.bcast(header, root=0)
        if restored is not None:
            vd, base_epoch, omega, tau = restored
            calibration = condition = initial_frame = None
            if state is not None:  # rank 0
                calibration, condition, initial_frame = state._calibration_frame, state._condition, state._frame
            # Fresh, independent streams: never replay the pre-crash samples.
            rngs = streams(derive_seed(options.seed, _RESUME_SEED_TAG, base_epoch))
        else:
            rngs = streams(options.seed)
            # While the diameter broadcast (ranks != 0) or the calibration
            # reduce (rank 0) is in flight, thread 0 samples from its
            # adaptive stream: those samples open its epoch-0 frame.
            # At most the epoch's n0 of them: they count toward it.
            opening = StateFrame.zeros(n)

            def sample_while(request: Request):
                return _sample_while(request, sampler0, rngs[0], opening, limit=n0)[0]

            vd = diameter_phase(sample_while)
            omega = capped_samples(options, compute_omega(options.eps, options.delta, vd))
            emit("diameter")
            total = calibration_sample_count(options.calibration_samples, omega, n)
            tau = comm.size * _ceil_div(total, comm.size)  # what calibration_phase reduces
            with phases("calibration", rank=rank):
                # RNG slot 0, so the adaptive phase (slots 1..T) never replays
                # the calibration stream.
                calibration, condition = calibration_phase(
                    comm,
                    sampler0,
                    rng_for_rank_thread(options.seed, rank, 0, num_threads=threads + 1),
                    total,
                    num_vertices=n,
                    eps=options.eps,
                    delta=options.delta,
                    omega=omega,
                    wait=sample_while,
                )
            initial_frame = calibration
            emit("calibration", num_samples=tau)

    if comm.is_root and state is None and on_aggregate is not None:
        from repro.session.session import EstimationSession

        # Rank 0's checkpointable state: a session without a stream of its
        # own, so it restores as this backend's and refuses refine.
        state = EstimationSession(graph, options, kernel=kernel)
        state._native, state._algorithm, state._sample_log = False, _BACKEND[algorithm], None
        state._ran = True
    if state is not None:
        state._vd, state._omega = vd, omega
        state._condition, state._calibration_frame = condition, calibration

    fold_hook = None
    if state is not None and on_aggregate is not None:
        def fold_hook(epochs_done: int, aggregated: StateFrame) -> None:
            state._frame, state._checks = aggregated, base_epoch + epochs_done
            on_aggregate(state)

    # ---------------- Phase 3: adaptive sampling -------------------------- #
    with phases("adaptive_sampling", rank=rank, omega=omega):
        stats = adaptive_sampling_epochs(
            comm,
            sampler_for,
            condition,
            rngs,
            num_threads=sampling_threads,
            num_vertices=n,
            grid=grid,
            budget=omega - tau,
            algorithm=algorithm,
            initial_frame=initial_frame,
            opening=opening,
            max_epochs=max_epochs,
            on_batch=on_batch,
            on_epoch=lambda epoch, num_samples: emit(
                "adaptive_sampling", epoch=base_epoch + epoch, num_samples=num_samples
            ),
            on_aggregate=fold_hook,
        )
        if stats.num_epochs == 0:  # R0 <= 0: the phase ends where it started
            emit("adaptive_sampling", epoch=base_epoch, num_samples=tau)
    for phase, seconds in stats.phase_seconds.items():
        phases.seconds[f"ads_{phase}"] = seconds
    stats.phase_seconds = phases.seconds

    aggregated = stats.aggregated_frame
    if aggregated is None:
        return None, stats
    if state is not None and one_worker:  # the state one worker continues
        state._frame, state._checks = aggregated, base_epoch + stats.num_epochs
    extra = {
        "communication_bytes": float(stats.communication_bytes),
        "num_processes": float(comm.size),
        "threads_per_process": float(threads),
        "samples_per_epoch_n0": float(n0),
    }
    if replayed > 0:
        extra["samples_replayed"] = float(replayed)
    result = BetweennessResult(
        scores=aggregated.betweenness_estimates(),
        num_samples=aggregated.num_samples,
        eps=options.eps,
        delta=options.delta,
        omega=omega,
        vertex_diameter=vd,
        num_epochs=stats.num_epochs,
        phase_seconds=dict(stats.phase_seconds),
        extra=extra,
    )
    return result, stats
