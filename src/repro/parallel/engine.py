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
   The samples taken during both collectives are claimed from epoch 0's
   counter, up to ``n0`` and the rank's share of ``R0`` (of the least ``R0``
   any diameter gives, before it is known); the calibration stream, frame
   and deltas are what they would be without them.  One worker draws
   calibration from its one stream instead, extending a state's frame to the
   target's count (positions the stream already drew are replayed), which
   is what makes ``refine`` exact.
3. *Adaptive sampling* — :func:`adaptive_sampling_epochs`, the epoch loop of
   Section IV-C, from the budget every rank knows after phase 2, ``R0 =
   omega - tau`` (``tau`` the calibration count, or the resumed aggregate's,
   which the resume header carries).  Threads ``1 .. T-1`` sample into the
   frame of their current epoch; thread 0 samples what the check grid
   plans, forces the epoch transition, aggregates the epoch's frames,
   reduces them to rank 0 (``algorithm="epoch"``, Algorithm 2: a
   non-blocking barrier then a blocking reduction, which the paper found
   faster than ``MPI_Ireduce``; ``"mpi-only"``, Algorithm 1: one thread and
   a plain ``Ireduce``), where the stopping rule is evaluated, and
   broadcasts the budget left, ``R`` (0 stops) — sampling into the next
   epoch's frame while each request is in flight, between polls: a
   :data:`~repro.kernels.WORKER_BATCH` per poll when the search is compiled
   (that call releases the GIL the communicator's threads need), one sample
   otherwise.  Every draw into a frame first takes its count from the
   rank's claim counter for that epoch, which each plan sets.  One worker
   checks on the :class:`~repro.core.stopping.CheckSchedule`.  Several check
   on the :class:`EpochGrid`, which plans every epoch from ``R`` alike (none
   when ``R0 <= 0``) and ends the run within ``P - 1`` of ``omega``.

A frame that crosses ranks travels in :meth:`~repro.core.state_frame.StateFrame.for_wire`
form: its nonzero counters as ``(index, count)`` arrays when they are fewer
than a third of the vertices, dense otherwise.
"""

from __future__ import annotations

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
from repro.parallel.epochs import ClaimCounter, EpochManager, FramePool
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

    num_epochs: int = 0
    #: Samples this rank's threads drew from their adaptive streams, the
    #: opening's (drawn while the pre-loop collectives were in flight) and an
    #: overlap the run never folded included.
    local_samples: int = 0
    #: The opening's part of ``local_samples``, drawn outside the loop's
    #: ``phase_seconds``: a rate over the loop's clock leaves it out.
    opening_samples: int = 0
    aggregated_frame: Optional[StateFrame] = None  # only at world rank 0
    stopped_by_omega: bool = False
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    communication_bytes: int = 0


def _draw(sampler, rng, count: int, frame: StateFrame, on_batch=None, claims: Optional[ClaimCounter] = None) -> None:
    """Draw ``count`` samples into ``frame`` in planned batches, each first
    claimed from ``claims`` when given: the draw ends once that is spent."""
    for take in plan_batches(count):
        if claims is not None:
            take = claims.take(take)
            if not take:
                return
        batch = sampler.sample_batch(take, rng)
        frame.record_batch(batch)
        if on_batch is not None:
            on_batch(batch)


def _sample_while(
    request: Request,
    sampler: BatchPathSampler,
    rng: np.random.Generator,
    frame: StateFrame,
    claims: ClaimCounter,
    failures: Sequence[BaseException] = (),
) -> object:
    """Sample into ``frame``, a batch per poll claimed from ``claims``, until ``request`` completes; return its result.

    A compiled batch runs without the GIL, so the communicator's threads
    progress while thread 0 draws a whole worker batch; any other search
    holds the GIL for the batch, so it draws one sample per poll.  A sampling
    thread's exception in ``failures`` ends the wait, which that thread's
    epoch transition would never end.
    """
    batch = WORKER_BATCH if sampler.compiled else 1
    while not request.test():
        if failures:
            raise failures[0]
        take = claims.take(batch)
        if take:
            frame.record_batch(sampler.sample_batch(take, rng))
        else:
            time.sleep(_IDLE_POLL_S)
    return request.result()


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
    _draw(sampler, rng, _ceil_div(total, comm.size), local)
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
    failures: List[BaseException],
) -> None:
    """Body of sampling threads ``t != 0`` (lines 5-9 of Algorithm 2).

    Batches of :data:`repro.kernels.WORKER_BATCH`, each claimed from the
    counter of the thread's epoch first, amortise per-sample overhead yet
    acknowledge transitions promptly (``check_transition`` runs between
    batches); once the counter is spent the thread only polls.  An exception
    ends the thread and is left in ``failures`` for thread 0, which would
    otherwise wait forever for its next transition.
    """
    try:
        epoch, frame = 0, pool.frame(thread_index, 0)
        while not manager.terminated:
            take = pool.claims(epoch).take(WORKER_BATCH)
            if take:
                frame.record_batch(sampler.sample_batch(take, rng))
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
    workers).  Each epoch is planned from the budget left ``R``, which every
    rank knows (``R0``, then rank 0's broadcasts), so the ranks take each
    decision in the same epoch, and the plan sets each rank's claim counters
    (:class:`~repro.parallel.epochs.ClaimCounter`).  A middle epoch's frames
    take ``T * n0`` more than they hold (epoch 0's hold ``T * n0``, the
    opening included), so an epoch adds at most ``reach = P * (cap + T *
    n0)``, ``cap`` bounding the overlap in each rank's frames.  The epoch is
    the last once ``R <= reach``: each rank's frames hold ``ceil(R / P)``, so
    the run passes ``omega`` by the rounding, less than ``P``, and nothing
    goes into the next frames.  Otherwise the overlap into them is capped at
    ``min(s, max(T * n0, s // 2))``, ``s`` being each rank's share of ``R -
    reach``: far from ``omega`` no collective lasts that long, and no cap
    near ``R`` makes the next epoch the last with most of ``R`` unchecked.
    """

    def __init__(self, ranks: int, threads: int, *, samples_per_check: int = 1000) -> None:
        if ranks <= 0 or threads <= 0:
            raise ValueError("ranks and threads must be positive")
        if samples_per_check <= 0:
            raise ValueError("samples_per_check must be positive")
        self.ranks = ranks
        self.n0 = max(1, int(round(float(samples_per_check) * (1.0 / (ranks * threads)) ** 1.33)))
        self.quota = threads * self.n0  # what a middle epoch adds to a rank's frames
        self.cap = 0  # the overlap cap that filled the coming epoch's frames

    def next_epoch(self, epoch: int, tau: int, left: int) -> Optional[Tuple[int, int, int]]:
        """``(count, total, cap)`` of epoch ``epoch`` (see
        :func:`adaptive_sampling_epochs`) with ``left`` the budget left, or
        ``None`` once it is spent; ``tau`` is unused (only rank 0 has it)."""
        if left <= 0:
            return None
        reach = self.ranks * (self.cap + self.quota)
        if left <= reach:
            self.cap, total = 0, _ceil_div(left, self.ranks)
            return total, total, 0  # thread 0 draws until the counter is spent
        spare = (left - reach) // self.ranks
        self.cap = min(spare, max(self.quota, spare // 2))
        return self.n0, 0 if epoch else self.quota, self.cap


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
    pool: Optional[FramePool] = None,
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
    broadcast) is ``(count, total, cap)`` or ``None``: no more epochs.  It
    sets the claim counters every draw into a frame takes its count from:
    the epoch's frames hold ``total`` (else take ``T * count`` more than they
    hold), the next epoch's at most ``cap``.  Thread 0 draws ``count`` (epoch
    0 less the opening) unless the counter is spent first, the workers until
    it is.  ``algorithm`` picks Algorithm 2 (``"epoch"``) or 1 (``"mpi-only"``,
    one thread).  ``initial_frame`` (calibration, a resumed aggregate) is
    folded into the aggregate at rank 0 without being modified; ``pool`` is
    this rank's when thread 0 opened its epoch-0 frame from ``rngs[0]``
    before the loop (else the loop makes its own); ``max_epochs`` is a
    safety bound for tests.  A run with no epoch starts no thread and posts
    no collective.

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
    if pool is None:
        pool = FramePool(num_threads, num_vertices)
    failures: List[BaseException] = []
    stats = EpochStats(opening_samples=pool.claims(0).claimed)

    seeded = comm.is_root and initial_frame is not None
    aggregated = initial_frame.copy() if seeded else StateFrame.zeros(num_vertices)  # S at rank 0

    def plan_epoch() -> Optional[Tuple[int, int, float]]:
        plan = grid.next_epoch(epoch, aggregated.num_samples, left)
        if plan is not None:
            count, total, cap = plan
            pool.claims(epoch).allow(total, more=num_threads * count)
            pool.claims(epoch + 1).reset(cap)
        return plan

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
            args=(t, sampler_factory(t), rngs[t], manager, pool, failures),
            daemon=True,
        )
        for t in range(1, num_threads if plan is not None else 1)
    ]
    for worker in workers:
        worker.start()

    sampler0, rng0 = sampler_factory(0), rngs[0]

    def overlap(request: Request, frame: StateFrame):  # into the next epoch's frame, through its counter
        return _sample_while(request, sampler0, rng0, frame, pool.claims(epoch + 1), failures)

    # Reused by aggregate_epoch every epoch: the aggregate is reduced and folded
    # before the next aggregation starts, and overlap only ever writes the next
    # epoch's frames.  One thread's frame is its own aggregate.
    aggregate_scratch = StateFrame.zeros(num_vertices) if num_threads > 1 else None

    try:
        while plan is not None:
            count, current_frame = plan[0], pool.frame(0, epoch)
            if epoch == 0:
                count -= current_frame.num_samples  # the opening's
            # Lines 12-13: thread 0 samples up to the grid's next check.
            with phases("sampling", epoch=epoch):
                _draw(sampler0, rng0, count, current_frame, on_batch, pool.claims(epoch))
            # Lines 14-15: force the epoch transition, sampling into the next
            # frame while waiting (after the last epoch its counter allows
            # nothing: thread 0 only waits, here and below).
            next_frame = pool.reset_for_epoch(0, epoch + 1)
            with phases("epoch_transition"):
                overlap(manager.force_transition(epoch), next_frame)
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

    stats.local_samples = pool.claims(0).drawn + pool.claims(1).drawn
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
    knows after phase 2 (no epoch when ``R0 <= 0``); a fresh run's thread 0
    samples while the diameter broadcast and the calibration reduce are in
    flight.

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
        return (trivial if comm.is_root else None), EpochStats()
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
        rngs, n0, pool, tau = [stream], grid.samples_per_check, None, initial_frame.num_samples
    else:
        on_batch = pool = None

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

            def budget(vd: int) -> Tuple[int, int, int]:
                """``(omega, calibration count, R0)`` for the vertex diameter bound ``vd``."""
                omega = capped_samples(options, compute_omega(options.eps, options.delta, vd))
                total = calibration_sample_count(options.calibration_samples, omega, n)
                return omega, total, omega - comm.size * _ceil_div(total, comm.size)  # tau: what calibration reduces

            # While the diameter broadcast (ranks != 0) or the calibration
            # reduce (rank 0) is in flight, thread 0 samples into its epoch-0
            # frame through epoch 0's counter: up to n0 and the rank's share of
            # R0 (before the broadcast, of VD = 2's, the least; less one for rounding).
            pool = FramePool(sampling_threads, n)
            opening = pool.claims(0)
            opening.allow(min(n0, _ceil_div(budget(2)[2], comm.size) - 1))

            def sample_while(request: Request):
                return _sample_while(request, sampler0, rngs[0], pool.frame(0, 0), opening)

            vd = diameter_phase(sample_while)
            omega, total, r0 = budget(vd)
            opening.allow(min(n0, _ceil_div(r0, comm.size)))
            tau = omega - r0
            emit("diameter")
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
            pool=pool,
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
        "edges_touched": float(aggregated.edges_touched),
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
