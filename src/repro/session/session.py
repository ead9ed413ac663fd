"""Resumable estimation sessions: incremental refinement over live state.

The one-shot :func:`repro.estimate_betweenness` facade answers a single
``(eps, delta)`` request and throws the sampling state away.  An
:class:`EstimationSession` keeps it alive — the RNG stream, the sampler, the
per-vertex accumulators and the stopping state — and exposes ``run`` (the
classic adaptive run), ``refine`` (tighten ``eps``/``delta`` drawing *only*
the additional samples), ``checkpoint``/``restore`` (CRC-checked ``.snap``
files, :mod:`repro.session.snapshot`) and ``peek``/``top_k``
(confidence-aware queries on the same f/g bounds as the stopping rule).

A native session is the rank engine's ``P = T = 1`` rank: its calibration is
:func:`repro.parallel.engine.calibration_phase` and its check/draw loop is
:func:`repro.parallel.engine.adaptive_sampling_epochs`, both on a
``SelfComm`` with one thread, drawing from the session's single RNG stream
and checking on its :class:`~repro.core.stopping.CheckSchedule`.  A parallel
run's rank 0 keeps its state in a (non-refinable) session too, so
``dist --checkpoint`` writes this module's snapshot format.

Why refinement is *exact*: the sample stream is a pure function of ``(graph,
seed, sampler kind)`` — the batch kernels draw it identically for any batch
partitioning, and the integer-valued counters make accumulation order
irrelevant.  A fresh run at a tighter target consumes a *longer prefix* of
the same stream; its only position-dependent decisions — where calibration
ends (:func:`~repro.core.calibration.calibration_sample_count`) and where the
rule is checked (the :class:`~repro.core.stopping.CheckSchedule`) — are
deterministic grids, monotone in the target.  ``refine`` therefore extends
the calibration frame to the tighter count (replaying already-drawn samples
from the saved calibration RNG state, drawing new ones past the live
position), recalibrates, aligns with the tighter grid and runs the loop —
bit-identical to a fresh run at that target (``tests/test_session.py``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.calibration import calibration_sample_count
from repro.core.kadabra import capped_samples, diameter_bound, make_sampler
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.state_frame import StateFrame
from repro.core.stopping import CheckSchedule, StoppingCondition, compute_omega
from repro.core.topk import TopKResult, confidence_bounds, identify_top_k
from repro.graph.csr import CSRGraph
from repro.kernels import kernel_names, plan_batches
from repro.mpi.interface import SelfComm
from repro.obs import trace as obs_trace
from repro.parallel.engine import adaptive_sampling_epochs, calibration_phase, stopping_condition
from repro.session.sample_log import SampleLog
from repro.session.snapshot import SnapshotError, read_snapshot, require_keys, write_snapshot
from repro.util.progress import ProgressCallback, ProgressEvent
from repro.util.validation import check_positive, check_probability

__all__ = [
    "ConfidenceEstimate",
    "EstimationSession",
    "SessionCapabilityError",
    "SessionStateError",
    "open_session",
]

PathLike = Union[str, Path]

#: Session metadata keys every snapshot must carry (format enforcement).
_REQUIRED_META = (
    "kind", "graph", "options", "achieved", "omega", "vertex_diameter", "checks", "frame",
    "calibration", "rng_state",
)

_SNAPSHOT_KIND = "repro-estimation-session"

#: What a CRC-clean snapshot carrying a value of the wrong type or range
#: raises while it is parsed; ``restore`` reports all of them as SnapshotError.
_MALFORMED = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


class SessionStateError(RuntimeError):
    """An operation was called in the wrong session lifecycle state."""


class SessionCapabilityError(RuntimeError):
    """The session's backend does not support the requested operation."""


@dataclass(frozen=True)
class ConfidenceEstimate:
    """A :meth:`EstimationSession.peek`: point estimates plus ADS bounds.

    The per-vertex interval comes from the f/g deviation bounds at the
    current sample count (infinite before any sampling) and is asymmetric,
    hence the two half-widths.
    """

    scores: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    num_samples: int
    eps: Optional[float]
    delta: Optional[float]

    @property
    def half_width_lower(self) -> np.ndarray:
        return self.scores - self.lower_bounds

    @property
    def half_width_upper(self) -> np.ndarray:
        return self.upper_bounds - self.scores

    @property
    def max_half_width(self) -> float:
        if self.scores.size == 0:
            return 0.0
        return float(max(np.max(self.half_width_lower), np.max(self.half_width_upper)))


def _rng_from_state(state: Dict[str, object]) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from a saved state dict."""
    name = state.get("bit_generator") if isinstance(state, dict) else None
    kind = getattr(np.random, str(name), None)
    concrete = isinstance(kind, type) and issubclass(kind, np.random.BitGenerator)
    if not concrete or kind is np.random.BitGenerator:
        raise ValueError(f"unknown bit generator {name!r}")
    bit_generator = kind()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _json_object(meta: Dict[str, object], key: str) -> Dict[str, object]:
    """``meta[key]``, which a snapshot writes as a JSON object."""
    value = meta[key]
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _optional_int(value) -> Optional[int]:
    return None if value is None else int(value)


def _graph_checksum(graph) -> Optional[str]:
    """The content checksum of a stored graph or shard view (None in memory)."""
    manifest = getattr(graph, "manifest", None)
    if manifest is not None:
        return manifest.source_checksum
    source = getattr(graph, "source_path", None)
    if source is None:
        return None
    try:
        from repro.store.catalog import _header_checksum
        from repro.store.format import read_header

        return _header_checksum(read_header(source))
    except Exception:  # noqa: BLE001 - non-.rcsr sources have no checksum
        return None


def _jsonable_rng_state(rng: np.random.Generator) -> Dict[str, object]:
    """The generator's state as a JSON-serializable dict (ints stay exact)."""

    def convert(value):
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.ndarray):
            return [int(v) for v in value]
        return value

    return convert(dict(rng.bit_generator.state))


class EstimationSession:
    """A resumable betweenness estimation over one graph and one RNG stream.

    Create sessions with :func:`open_session` (registry-aware, used by the
    facade) or :meth:`restore` (from a checkpoint).  **Native** sessions
    (``algorithm="sequential"`` or a backend registered with
    ``supports_refinement=True``) drive the engine themselves and support the
    full surface.  **Delegated** ones (every other backend) execute the
    registered runner once in ``run``; ``refine`` and ``checkpoint`` raise
    :class:`SessionCapabilityError` and ``peek``/``top_k`` fall back to the
    uniform-split bounds of :mod:`repro.core.topk`.  A parallel run's rank 0
    state is a delegated session that checkpoints and restores but still
    refuses ``refine``: its samples came from the ranks' streams.
    """

    def __init__(
        self,
        graph: CSRGraph,
        options: Optional[KadabraOptions] = None,
        *,
        progress: Optional[ProgressCallback] = None,
        kernel: Optional[str] = None,
        _spec=None,
        _resources=None,
    ) -> None:
        if not hasattr(graph, "num_vertices"):
            raise TypeError(f"graph must be a CSRGraph-like object, got {type(graph).__name__}")
        self._graph = graph
        self._options = options if options is not None else KadabraOptions()
        self._progress = progress
        # Resolved once: what the sampler is built with, here and after a
        # restore or a graph update, and what the checkpoint records.
        self._kernel = kernel if kernel is not None else getattr(_resources, "kernel", None)
        self._spec = _spec
        self._resources = _resources
        self._native = _spec is None or getattr(_spec, "supports_refinement", False)
        self._algorithm = _spec.name if _spec is not None else "sequential"

        # Progress events carry ts = monotonic seconds since session creation
        # (see ProgressEvent.ts); monotonic, so producer/consumer clock skew
        # cannot make the stream run backwards.
        self._start_monotonic = time.monotonic()
        self._ran = False
        self._eps: Optional[float] = None
        self._delta: Optional[float] = None
        self._omega: Optional[int] = None
        self._vd: Optional[int] = None
        self._checks = 0
        self._frame = StateFrame.zeros(graph.num_vertices)
        self._calibration_frame: Optional[StateFrame] = None
        self._calibration_rng_state: Optional[Dict[str, object]] = None
        self._condition: Optional[StoppingCondition] = None
        self._rng: Optional[np.random.Generator] = None
        self._sampler = None
        self._last_result: Optional[BetweennessResult] = None
        # Native sessions log every sample's (pair, distance, interior path):
        # the extra state that makes their checkpoints update-refinable when
        # the graph mutates (see repro.evolve).  Delegated backends never
        # draw through the session, so their sessions carry no log.
        self._sample_log: Optional[SampleLog] = SampleLog.empty() if self._native else None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraph:
        return self._graph

    @property
    def options(self) -> KadabraOptions:
        return self._options

    @property
    def seed(self) -> Optional[int]:
        return self._options.seed

    @property
    def algorithm(self) -> str:
        return self._algorithm

    @property
    def supports_refinement(self) -> bool:
        return self._native

    @property
    def has_run(self) -> bool:
        return self._ran

    @property
    def num_samples(self) -> int:
        return int(self._frame.num_samples)

    @property
    def eps(self) -> Optional[float]:
        """The tightest absolute-error target certified so far."""
        return self._eps

    @property
    def delta(self) -> Optional[float]:
        """The failure probability of the current certificate."""
        return self._delta

    @property
    def omega(self) -> Optional[int]:
        return self._omega

    @property
    def last_result(self) -> Optional[BetweennessResult]:
        return self._last_result

    @property
    def sample_log(self) -> Optional[SampleLog]:
        """The per-sample path log, or ``None`` (delegated backends, or a
        session restored from a pre-log snapshot)."""
        return self._sample_log

    @property
    def progress(self) -> Optional[ProgressCallback]:
        """The (possibly backend-tagged) progress callback this session emits to."""
        return self._progress

    def __repr__(self) -> str:
        state = "idle" if not self._ran else f"eps={self._eps}, delta={self._delta}"
        return (
            f"EstimationSession(algorithm={self.algorithm!r}, "
            f"n={self._graph.num_vertices}, tau={self.num_samples}, {state})"
        )

    # ------------------------------------------------------------------ #
    # Internal plumbing
    # ------------------------------------------------------------------ #
    def _emit(self, **kwargs) -> None:
        if self._progress is not None:
            kwargs.setdefault("ts", time.monotonic() - self._start_monotonic)
            self._progress(ProgressEvent(**kwargs))

    def _ensure_engine(self) -> None:
        """Create the RNG and the sampler if they are not there yet."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._options.seed)
        if self._sampler is None:
            self._sampler = make_sampler(self._graph, self._options, kernel=self._kernel)

    def _target_options(self, eps, delta) -> KadabraOptions:
        """Validate an (eps, delta) target through the options dataclass."""
        changes = {}
        if eps is not None:
            changes["eps"] = float(eps)
        if delta is not None:
            changes["delta"] = float(delta)
        return self._options.with_(**changes) if changes else self._options

    def _schedule(self, eps: float, delta: float) -> CheckSchedule:
        omega = capped_samples(self._options, compute_omega(eps, delta, self._vd))
        return CheckSchedule(
            calibration_samples=calibration_sample_count(
                self._options.calibration_samples, omega, self._graph.num_vertices
            ),
            samples_per_check=max(1, self._options.samples_per_check),
            omega=omega,
        )

    def _draw(self, count: int, rng, *, into_calibration: Optional[StateFrame] = None) -> None:
        """Draw ``count`` samples from ``rng`` into the aggregate frame."""
        for take in plan_batches(count):
            batch = self._sampler.sample_batch(take, rng)
            self._frame.record_batch(batch)
            if self._sample_log is not None:
                # Calibration *replays* in refine() bypass _draw on purpose:
                # their stream positions are already logged.
                self._sample_log.append_batch(batch)
            if into_calibration is not None:
                into_calibration.record_batch(batch)

    def _build_result(self, phase_seconds: Dict[str, float], *, samples_reused: int) -> BetweennessResult:
        tau = self._frame.num_samples
        result = BetweennessResult(
            scores=self._frame.betweenness_estimates(),
            num_samples=tau,
            eps=self._eps,
            delta=self._delta,
            omega=self._omega,
            vertex_diameter=self._vd,
            num_epochs=self._checks,
            phase_seconds=phase_seconds,
            extra={"edges_touched": float(self._frame.edges_touched)},
            samples_drawn=tau - samples_reused,
            samples_reused=samples_reused,
        )
        self._last_result = result
        return result

    def _trivial_result(self, eps: float, delta: float) -> BetweennessResult:
        self._ran = True
        self._eps, self._delta = eps, delta
        result = BetweennessResult(scores=np.zeros(self._graph.num_vertices), eps=eps, delta=delta)
        self._last_result = result
        return result

    # ------------------------------------------------------------------ #
    # run
    # ------------------------------------------------------------------ #
    def run(self, eps: Optional[float] = None, delta: Optional[float] = None) -> BetweennessResult:
        """Run the estimation to the ``(eps, delta)`` target from zero samples.

        ``eps``/``delta`` default to the session options.  ``run`` may only
        be called once per session; tighten an existing estimate with
        :meth:`refine` instead.  For native sessions the sampling flow is
        bit-identical to the pre-session sequential driver.
        """
        with obs_trace.span("session.run", algorithm=self.algorithm):
            return self._run_to_target(eps, delta)

    def _run_to_target(self, eps: Optional[float], delta: Optional[float]) -> BetweennessResult:
        if self._ran:
            raise SessionStateError(
                "session has already run; use refine(eps, delta) to tighten "
                "the guarantee without resampling"
            )
        target = self._target_options(eps, delta)
        if not self._native:
            start = time.perf_counter()
            result = self._spec.runner(self._graph, target, self._resources, self._progress)
            result.phase_seconds.setdefault("total", time.perf_counter() - start)
            self._ran = True
            self._eps, self._delta = target.eps, target.delta
            self._frame.num_samples = int(result.num_samples)
            self._last_result = result
            return result

        if self._graph.num_vertices < 2:
            return self._trivial_result(target.eps, target.delta)

        self._ensure_engine()
        phases = obs_trace.PhaseRecorder()

        with phases("diameter") as sp:
            self._vd = diameter_bound(self._graph, self._options, sp)
            sp.set("vertex_diameter", self._vd)
        schedule = self._schedule(target.eps, target.delta)
        self._omega = schedule.omega
        self._emit(phase="diameter", omega=schedule.omega)

        with phases("calibration") as sp:
            self._frame, self._condition = calibration_phase(
                SelfComm(),
                self._sampler,
                self._rng,
                schedule.calibration_samples,
                num_vertices=self._graph.num_vertices,
                eps=target.eps,
                delta=target.delta,
                omega=schedule.omega,
                on_batch=self._sample_log.append_batch,
            )
            self._calibration_frame = self._frame.copy()
            self._calibration_rng_state = _jsonable_rng_state(self._rng)
            sp.set("num_samples", int(self._frame.num_samples))
        return self._certify(phases, schedule, target.eps, target.delta, samples_reused=0)

    def _recalibrate(self, eps: float, delta: float, omega: int) -> None:
        """Derive the stopping condition for a target from the calibration frame."""
        frame = self._calibration_frame
        self._condition = stopping_condition(frame, eps=eps, delta=delta, omega=omega)

    def _certify(
        self, phases: obs_trace.PhaseRecorder, schedule: CheckSchedule, eps: float, delta: float,
        *, samples_reused: int,
    ) -> BetweennessResult:
        """Phase 3 of ``run``, ``refine`` and graph updates, to an ``(eps, delta)`` certificate.

        The engine's epoch loop at ``P = T = 1``, on ``schedule``: its first
        epoch draws forward to the first check boundary at or past the live
        position (nothing in ``run``, whose calibration ends on the first
        boundary).  Boundaries strictly before that position were decided by
        the looser certificate already (monotone guarantees: the tighter rule
        cannot fire before the looser one did), so skipping them is safe.
        Every later epoch draws exactly one block — the same decisions a
        one-shot run makes.
        """
        self._emit(phase="calibration", num_samples=self._frame.num_samples, omega=schedule.omega)
        checks = self._checks

        def on_epoch(epochs_done: int, num_samples: int) -> None:
            self._emit(
                phase="adaptive_sampling",
                epoch=checks + epochs_done,
                num_samples=num_samples,
                omega=schedule.omega,
            )

        with phases("adaptive_sampling", omega=schedule.omega):
            stats = adaptive_sampling_epochs(
                SelfComm(),
                lambda _thread: self._sampler,
                self._condition,
                [self._rng],
                num_threads=1,
                grid=schedule,
                initial_frame=self._frame,
                on_batch=None if self._sample_log is None else self._sample_log.append_batch,
                on_epoch=on_epoch,
            )
        self._frame = stats.aggregated_frame
        self._checks += stats.num_epochs
        self._ran = True
        self._eps, self._delta, self._omega = eps, delta, schedule.omega
        return self._build_result(phases.seconds, samples_reused=samples_reused)

    # ------------------------------------------------------------------ #
    # refine
    # ------------------------------------------------------------------ #
    def refine(
        self, eps: Optional[float] = None, delta: Optional[float] = None
    ) -> BetweennessResult:
        """Tighten the guarantee to ``(eps, delta)``, reusing all samples.

        The target must be at least as tight as the current certificate in
        both dimensions; a no-op target returns the current estimate without
        sampling.  The result is bit-identical to a fresh session run at the
        same target and seed, while drawing only the sample-count difference
        plus a calibration-gap replay (see the module docstring).
        """
        with obs_trace.span("session.refine", algorithm=self.algorithm):
            return self._refine_to_target(eps, delta)

    def _refine_to_target(self, eps: Optional[float], delta: Optional[float]) -> BetweennessResult:
        if not self._native:
            raise SessionCapabilityError(
                f"backend {self.algorithm!r} does not support refinement; "
                "open the session with algorithm='sequential'"
            )
        if not self._ran:
            raise SessionStateError("run() must complete before refine()")
        eps = self._eps if eps is None else float(eps)
        delta = self._delta if delta is None else float(delta)
        target = self._target_options(eps, delta)
        if target.eps > self._eps or target.delta > self._delta:
            raise ValueError(
                f"refine target (eps={target.eps}, delta={target.delta}) must be "
                f"at least as tight as the current certificate "
                f"(eps={self._eps}, delta={self._delta})"
            )
        reused = self._frame.num_samples
        if target.eps == self._eps and target.delta == self._delta:
            return self._build_result({}, samples_reused=reused)
        if self._graph.num_vertices < 2:
            return self._trivial_result(target.eps, target.delta)

        self._ensure_engine()
        phases = obs_trace.PhaseRecorder()
        schedule = self._schedule(target.eps, target.delta)
        old_c = self._calibration_frame.num_samples
        new_c = schedule.calibration_samples
        if new_c < old_c:  # impossible by monotonicity; guard the invariant
            raise SessionStateError(
                f"calibration count shrank ({old_c} -> {new_c}); "
                "refinement requires a monotone schedule"
            )

        with phases("calibration"):
            # Extend the calibration frame to the tighter target's count: the
            # overlap with already-drawn samples is *replayed* from the saved
            # calibration RNG state (same stream positions, so identical
            # contributions, charged only to the calibration frame), anything
            # past the live position is drawn fresh and charged to both.
            replay_until = min(new_c, reused)
            if replay_until > old_c:
                replay_rng = _rng_from_state(self._calibration_rng_state)
                for take in plan_batches(replay_until - old_c):
                    self._calibration_frame.record_batch(
                        self._sampler.sample_batch(take, replay_rng)
                    )
                self._calibration_rng_state = _jsonable_rng_state(replay_rng)
            if new_c > reused:
                self._draw(new_c - reused, self._rng, into_calibration=self._calibration_frame)
                self._calibration_rng_state = _jsonable_rng_state(self._rng)
            self._recalibrate(target.eps, target.delta, schedule.omega)
        result = self._certify(phases, schedule, target.eps, target.delta, samples_reused=reused)
        if replay_until > old_c:
            result.extra["samples_replayed"] = float(replay_until - old_c)
        return result

    # ------------------------------------------------------------------ #
    # Confidence-aware queries
    # ------------------------------------------------------------------ #
    def _result_for_bounds(self) -> BetweennessResult:
        if not self._native and self._last_result is not None:
            return self._last_result
        return BetweennessResult(
            scores=self._frame.betweenness_estimates(),
            num_samples=self._frame.num_samples,
            eps=self._eps,
            delta=self._delta,
            omega=self._omega,
            vertex_diameter=self._vd,
        )

    def peek(self) -> ConfidenceEstimate:
        """The current point estimate with per-vertex confidence bounds.

        Before ``run`` the bounds are infinite; afterwards they are the f/g
        deviation bounds of the samples so far.  ``peek`` never draws.
        """
        result = self._result_for_bounds()
        lower, upper = confidence_bounds(result, *self._deltas())
        return ConfidenceEstimate(
            scores=result.scores,
            lower_bounds=lower,
            upper_bounds=upper,
            num_samples=int(result.num_samples),
            eps=self._eps,
            delta=self._delta,
        )

    def top_k(self, k: int) -> TopKResult:
        """Certified top-k against the session state (see :mod:`repro.core.topk`).

        Uses the live calibration vectors when available, so the separation
        test runs at exactly the confidence level the stopping rule certified.
        """
        delta_l, delta_u = self._deltas()
        return identify_top_k(self._result_for_bounds(), k, delta_l=delta_l, delta_u=delta_u)

    def _deltas(self):
        """``(delta_L, delta_U)`` of the live stopping condition, or ``(None, None)``."""
        condition = self._condition
        return (None, None) if condition is None else (condition.delta_l, condition.delta_u)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def _graph_identity(self) -> Dict[str, object]:
        source = getattr(self._graph, "source_path", None)
        return {
            "num_vertices": int(self._graph.num_vertices),
            "num_edges": int(self._graph.num_edges),
            "source_path": None if source is None else str(source),
            "checksum": _graph_checksum(self._graph),
        }

    def checkpoint(self, path: PathLike) -> Path:
        """Snapshot the session to ``path`` (atomically, CRC-checked).

        The snapshot holds everything :meth:`restore` needs to continue the
        exact sample stream: accumulators, calibration frame, both RNG states
        and the scalar run state.  Returns the path written.
        """
        with obs_trace.span("session.checkpoint"):
            return self._checkpoint_to(path)

    def _checkpoint_to(self, path: PathLike) -> Path:
        if not self._native and self._calibration_frame is None:
            raise SessionCapabilityError(
                f"backend {self.algorithm!r} does not support checkpointing"
            )
        if not self._ran:
            raise SessionStateError("nothing to checkpoint: run() has not completed")
        if self._native and self._rng is None:  # trivial (< 2 vertices) sessions
            self._ensure_engine()
            self._calibration_frame = self._calibration_frame or StateFrame.zeros(
                self._graph.num_vertices
            )
            self._calibration_rng_state = (
                self._calibration_rng_state or _jsonable_rng_state(self._rng)
            )
        meta = {
            "kind": _SNAPSHOT_KIND,
            # "sequential" marks the session's own, refinable stream.
            "algorithm": "sequential" if self._native else self._algorithm,
            "created_at": time.time(),
            "graph": self._graph_identity(),
            "options": asdict(self._options),
            "kernel": self._kernel,
            "achieved": {"eps": self._eps, "delta": self._delta},
            "omega": self._omega,
            "vertex_diameter": self._vd,
            "checks": int(self._checks),
            "frame": self._frame.scalar_state(),
            "calibration": {
                **self._calibration_frame.scalar_state(),
                "rng_state": self._calibration_rng_state,
            },
            "rng_state": None if self._rng is None else _jsonable_rng_state(self._rng),
        }
        arrays = {
            "counts": self._frame.counts,
            "calibration_counts": self._calibration_frame.counts,
        }
        if self._sample_log is not None and self._sample_log.num_samples == self._frame.num_samples:
            meta["sample_log"] = {"num_samples": self._sample_log.num_samples}
            arrays.update(self._sample_log.snapshot_arrays())
        write_snapshot(path, meta, arrays)
        return Path(path)

    @classmethod
    def restore(
        cls,
        path: PathLike,
        *,
        graph: Optional[CSRGraph] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> "EstimationSession":
        """Rebuild a session from a :meth:`checkpoint` snapshot.

        ``graph`` may be passed explicitly (it is validated against the
        recorded identity); otherwise it is re-opened from the recorded
        ``source_path``, which is how a worker in another process resumes
        against the shared ``.rcsr`` store.  A file that is not a complete,
        well-formed snapshot raises :class:`SnapshotError`; keys this version
        does not read are ignored.  A parallel rank's checkpoint restores as
        a session whose ``refine`` raises :class:`SessionCapabilityError`.
        """
        with obs_trace.span("session.restore"):
            meta, arrays = read_snapshot(path)
            require_keys(meta, _REQUIRED_META, path)
            if meta.get("kind") != _SNAPSHOT_KIND:
                raise SnapshotError(f"{path}: not an estimation-session snapshot")
            if graph is None:
                identity = meta["graph"]
                source = identity.get("source_path") if isinstance(identity, dict) else None
                if not source or not isinstance(source, str):
                    raise SnapshotError(
                        f"{path}: snapshot records no graph source path; pass the graph explicitly"
                    )
                from repro.store import load_graph

                graph = load_graph(source)
            try:
                session = cls._from_meta(path, meta, arrays, graph, progress)
            except SnapshotError:
                raise
            except _MALFORMED as exc:
                raise SnapshotError(f"{path}: malformed snapshot metadata: {exc}") from None
            if session._native:
                session._ensure_engine()
            return session

    @classmethod
    def _from_meta(
        cls, path: PathLike, meta: dict, arrays: dict, graph: CSRGraph, progress
    ) -> "EstimationSession":
        """The session a snapshot's metadata and arrays describe, over ``graph``."""
        identity = _json_object(meta, "graph")
        if int(graph.num_vertices) != int(identity["num_vertices"]):
            raise SnapshotError(
                f"{path}: graph mismatch (snapshot has {identity['num_vertices']} "
                f"vertices, provided graph has {graph.num_vertices})"
            )
        recorded, current = identity.get("checksum"), _graph_checksum(graph)
        if recorded is not None and current is not None and current != recorded:
            raise SnapshotError(
                f"{path}: graph contents changed since the snapshot "
                f"(checksum {current} != {recorded})"
            )

        for name in ("counts", "calibration_counts"):
            if name not in arrays:
                raise SnapshotError(f"{path}: snapshot lacks the {name!r} array")
            if arrays[name].size != graph.num_vertices:
                raise SnapshotError(
                    f"{path}: {name!r} length {arrays[name].size} does not match "
                    f"the graph ({graph.num_vertices} vertices)"
                )

        kernel = meta.get("kernel")
        if kernel is not None and kernel not in kernel_names():
            raise SnapshotError(f"{path}: snapshot names unknown kernel {kernel!r}")

        algorithm = meta.get("algorithm", "sequential")
        if not isinstance(algorithm, str):
            raise TypeError(f"'algorithm' must be a string, got {algorithm!r}")
        options = KadabraOptions(**_json_object(meta, "options"))
        session = cls(graph, options, progress=progress, kernel=kernel)
        # Only the session's own stream can be refined or extended.
        session._native = algorithm == "sequential"
        session._algorithm = algorithm
        session._ran = True
        achieved = _json_object(meta, "achieved")
        eps, delta = achieved.get("eps"), achieved.get("delta")
        session._eps = None if eps is None else check_positive(eps, "eps")
        session._delta = None if delta is None else check_probability(delta, "delta")
        session._omega = _optional_int(meta["omega"])
        session._vd = _optional_int(meta["vertex_diameter"])
        session._checks = int(meta["checks"])
        session._frame = StateFrame.from_scalar_state(_json_object(meta, "frame"), arrays["counts"])
        calibration = _json_object(meta, "calibration")
        session._calibration_frame = StateFrame.from_scalar_state(
            calibration, arrays["calibration_counts"]
        )
        session._calibration_rng_state = calibration.get("rng_state")
        if session._calibration_rng_state is not None:
            _rng_from_state(session._calibration_rng_state)  # refine replays from it
        # Pre-log snapshots restore fine; the session just is not
        # update-refinable (repro.evolve requires the per-sample log).
        session._sample_log = None
        if session._native and isinstance(meta.get("sample_log"), dict):
            log = SampleLog.from_snapshot_arrays(arrays)
            if log.num_samples != session._frame.num_samples:
                raise SnapshotError(
                    f"{path}: sample log holds {log.num_samples} samples but the "
                    f"frame holds {session._frame.num_samples}"
                )
            session._sample_log = log
        session._rng = _rng_from_state(meta["rng_state"]) if session._native else None
        # Recompute the stopping state instead of storing 2n more floats: the
        # calibration is a deterministic function of the stored frame.  A
        # rank's mid-run checkpoint certifies nothing yet and is calibrated
        # for the target of its options.
        if session._omega is not None and session._calibration_frame.num_samples > 0:
            session._recalibrate(
                options.eps if session._eps is None else session._eps,
                options.delta if session._delta is None else session._delta,
                session._omega,
            )
        elif not session._native:
            raise SnapshotError(f"{path}: {algorithm!r} checkpoint carries no calibration")
        return session

    @classmethod
    def _rank_state(
        cls, graph, options: KadabraOptions, kernel: Optional[str], algorithm: str,
        vertex_diameter: int, calibration_frame: StateFrame, condition: StoppingCondition,
    ) -> "EstimationSession":
        """Rank 0's state in a parallel run; the engine keeps its frame and
        check count current at every epoch boundary.  Checkpointable and
        restorable, not refinable: it holds no session RNG stream."""
        session = cls(graph, options, kernel=kernel)
        session._native, session._algorithm, session._sample_log = False, algorithm, None
        session._ran = True
        session._vd, session._omega = vertex_diameter, condition.omega
        session._calibration_frame, session._condition = calibration_frame, condition
        return session


def open_session(
    graph,
    *,
    algorithm: str = "sequential",
    seed=None,
    options: Optional[KadabraOptions] = None,
    resources=None,
    callbacks=None,
    **option_overrides,
) -> EstimationSession:
    """Open an estimation session — the handle behind the one-shot facade.

    Parameters mirror :func:`repro.estimate_betweenness`: ``graph`` may be a
    :class:`~repro.graph.csr.CSRGraph`, a path or a catalog name;
    ``algorithm`` is a backend registry name or ``"auto"``; ``options`` plus
    ``seed``/keyword overrides configure the run (``eps``/``delta`` are
    usually passed to ``run``/``refine``).  Only backends registered with
    ``supports_refinement=True`` return fully resumable sessions; the rest
    are delegated.
    """
    from repro.api import backends as _backends  # noqa: F401  (populate registry)
    from repro.api.registry import AUTO, get_backend, select_backend
    from repro.api.resources import Resources
    from repro.util.progress import combine_callbacks, tag_backend

    if isinstance(graph, (str, Path)):
        from repro.store import load_graph

        graph = load_graph(graph)
    if not hasattr(graph, "num_vertices"):
        raise TypeError(f"graph must be a CSRGraph-like object, got {type(graph).__name__}")
    resources = resources if resources is not None else Resources()
    if not isinstance(resources, Resources):
        raise TypeError("resources must be a repro.api.Resources instance")
    if algorithm == AUTO:
        spec = select_backend(graph.num_vertices, resources)
    else:
        spec = get_backend(algorithm)

    base = options if options is not None else KadabraOptions()
    changes = dict(option_overrides)
    if seed is not None:
        changes["seed"] = seed
    opts = base.with_(**changes) if changes else base

    progress = tag_backend(combine_callbacks(callbacks), spec.name)
    return EstimationSession(graph, opts, progress=progress, _spec=spec, _resources=resources)
