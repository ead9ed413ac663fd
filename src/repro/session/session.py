"""Resumable estimation sessions: incremental refinement over live state.

A backend's registered runner, which :func:`repro.estimate_betweenness` calls,
answers a single ``(eps, delta)`` request and throws the sampling state away.
An :class:`EstimationSession` keeps it alive — the RNG stream, the sampler, the
per-vertex accumulators and the stopping state — and exposes ``run`` (the
classic adaptive run), ``refine`` (tighten ``eps``/``delta`` drawing *only*
the additional samples), ``checkpoint``/``restore`` (CRC-checked ``.snap``
files, :mod:`repro.session.snapshot`) and ``peek``/``top_k``
(confidence-aware queries on the same f/g bounds as the stopping rule).

A session holds state: the frames, the RNG stream, the sample log and the
snapshot, nothing else: no backend spec, no resources, no runner.  It runs
no phase of its own: ``run``, ``refine`` and graph updates
(:mod:`repro.evolve`) hand the state to :func:`repro.parallel.engine.run_rank`
on a ``SelfComm`` with one thread.  One worker is one computation, the same
as every one-worker backend: sequential KADABRA on one stream, checked on the
:class:`~repro.core.stopping.CheckSchedule` and stopped at ``omega`` at the
latest.  The facade opens one only to keep a run (``checkpoint_path`` on a
backend registered with ``supports_refinement=True``), so a plain call and a
kept one return the same result.  A parallel run's rank 0 keeps its state in
a (non-refinable) session too, so ``dist --checkpoint`` writes this module's
snapshot format.

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

from repro.core.kadabra import make_sampler
from repro.core.options import KadabraOptions
from repro.core.result import BetweennessResult
from repro.core.state_frame import StateFrame
from repro.core.stopping import StoppingCondition
from repro.core.topk import TopKResult, confidence_bounds, identify_top_k
from repro.graph.csr import CSRGraph
from repro.kernels import kernel_names
from repro.mpi.interface import SelfComm
from repro.obs import trace as obs_trace
from repro.parallel.engine import run_rank, stopping_condition
from repro.sampling.rng import generator_from_state, generator_state
from repro.session.sample_log import SampleLog
from repro.session.snapshot import SnapshotError, read_snapshot, require_keys, write_snapshot
from repro.util.progress import ProgressCallback, ProgressEvent, tag_backend
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

#: Options older snapshots record and this version no longer has, with the
#: one value every run used: a snapshot holding it restores, any other value
#: describes a run this version cannot continue.
_RETIRED_OPTIONS = {"epoch_exponent": 1.33, "use_bidirectional_bfs": True}

#: What a CRC-clean snapshot carrying a value of the wrong type or range
#: raises while it is parsed; ``restore`` reports all of them as SnapshotError.
_MALFORMED = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


class SessionStateError(RuntimeError):
    """An operation was called in the wrong session lifecycle state."""


class SessionCapabilityError(RuntimeError):
    """The session (or the backend asked for) does not support the requested operation."""


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
        from repro.store.format import header_checksum, read_header

        return header_checksum(read_header(source))
    except Exception:  # noqa: BLE001 - non-.rcsr sources have no checksum
        return None


class EstimationSession:
    """A resumable betweenness estimation over one graph and one RNG stream.

    Create sessions with :func:`open_session` or :meth:`restore` (from a
    checkpoint).  A session holds the state of the rank engine's one worker
    and hands it to :func:`~repro.parallel.engine.run_rank` for ``run`` and
    ``refine``.  A parallel run's rank 0 keeps its state in a session too
    (``run_rank``'s ``on_aggregate``); that one checkpoints and restores but
    refuses ``refine`` with :class:`SessionCapabilityError`: its samples came
    from the ranks' streams.  ``progress`` receives every event tagged
    ``"sequential"`` and stamped with the seconds since the session opened.
    """

    def __init__(
        self,
        graph: CSRGraph,
        options: Optional[KadabraOptions] = None,
        *,
        progress: Optional[ProgressCallback] = None,
        kernel: Optional[str] = None,
    ) -> None:
        if not hasattr(graph, "num_vertices"):
            raise TypeError(f"graph must be a CSRGraph-like object, got {type(graph).__name__}")
        self._graph = graph
        self._options = options if options is not None else KadabraOptions()
        self._progress = tag_backend(progress, "sequential")
        # Resolved once: what the sampler is built with, here and after a
        # restore or a graph update, and what the checkpoint records.
        self._kernel = kernel
        # Only the session's own stream can be refined; a parallel rank's
        # state (built by run_rank, or restored) clears this.
        self._native = True
        self._algorithm = "sequential"
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
        # Every sample's (pair, distance, interior path): the extra state that
        # makes checkpoints update-refinable when the graph mutates (see
        # repro.evolve).  A parallel rank's state carries none.
        self._sample_log: Optional[SampleLog] = SampleLog.empty()

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
    def sample_log(self) -> Optional[SampleLog]:
        """The per-sample path log, or ``None`` (a parallel rank's state, or a
        session restored from a pre-log snapshot)."""
        return self._sample_log

    @property
    def progress(self) -> Optional[ProgressCallback]:
        """The callback this session emits to: the caller's, tagged and stamped."""
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
            self._progress(ProgressEvent(**kwargs))

    def _ensure_engine(self) -> None:
        """Create the RNG and the sampler (of a graph that has samples) if they are not there yet."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._options.seed)
        if self._sampler is None and self._graph.num_vertices >= 2:
            self._sampler = make_sampler(self._graph, self._options, kernel=self._kernel)

    def _target_options(self, eps, delta) -> KadabraOptions:
        """Validate an (eps, delta) target through the options dataclass."""
        changes = {}
        if eps is not None:
            changes["eps"] = float(eps)
        if delta is not None:
            changes["delta"] = float(delta)
        return self._options.with_(**changes) if changes else self._options

    def _advance(self, target: KadabraOptions, *, samples_reused: int) -> BetweennessResult:
        """Certify ``target``: the rank engine's one worker on this state.

        The engine runs phase 1 when the state holds no diameter bound,
        extends the calibration frame to the target's count, recalibrates
        and checks on the target's grid from the live position on, drawing
        from this session's stream; the state is updated in place.  The
        engine's result is returned with the session's accounting: epochs
        counted since the first ``run``, samples split into drawn and reused.
        """
        self._ensure_engine()
        result, _stats = run_rank(
            SelfComm(), self._graph, target, kernel=self._kernel, progress=self._progress, resume=self
        )
        self._ran = True
        self._eps, self._delta = target.eps, target.delta
        result.num_epochs = self._checks
        result.samples_drawn = result.num_samples - samples_reused
        result.samples_reused = samples_reused
        return result

    def _state_result(self) -> BetweennessResult:
        """The estimate the state holds, drawing nothing."""
        return BetweennessResult(
            scores=self._frame.betweenness_estimates(),
            num_samples=self._frame.num_samples,
            eps=self._eps,
            delta=self._delta,
            omega=self._omega,
            vertex_diameter=self._vd,
            num_epochs=self._checks,
            extra={"edges_touched": float(self._frame.edges_touched)},
        )

    # ------------------------------------------------------------------ #
    # run
    # ------------------------------------------------------------------ #
    def run(self, eps: Optional[float] = None, delta: Optional[float] = None) -> BetweennessResult:
        """Run the estimation to the ``(eps, delta)`` target from zero samples.

        ``eps``/``delta`` default to the session options.  ``run`` may only
        be called once per session; tighten an existing estimate with
        :meth:`refine` instead.  The result is the sequential backend's
        runner's at that target, bit for bit.
        """
        with obs_trace.span("session.run", algorithm=self.algorithm):
            return self._run_to_target(eps, delta)

    def _run_to_target(self, eps: Optional[float], delta: Optional[float]) -> BetweennessResult:
        if self._ran:
            raise SessionStateError(
                "session has already run; use refine(eps, delta) to tighten "
                "the guarantee without resampling"
            )
        return self._advance(self._target_options(eps, delta), samples_reused=0)

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
            result = self._state_result()
            result.samples_reused = reused
            return result
        return self._advance(target, samples_reused=reused)

    # ------------------------------------------------------------------ #
    # Confidence-aware queries
    # ------------------------------------------------------------------ #
    def peek(self) -> ConfidenceEstimate:
        """The current point estimate with per-vertex confidence bounds.

        Before ``run`` the bounds are infinite; afterwards they are the f/g
        deviation bounds of the samples so far.  ``peek`` never draws.
        """
        result = self._state_result()
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
        return identify_top_k(self._state_result(), k, delta_l=delta_l, delta_u=delta_u)

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
        if not self._ran:
            raise SessionStateError("nothing to checkpoint: run() has not completed")
        if self._calibration_frame is None:  # trivial (< 2 vertices) sessions
            self._ensure_engine()
            self._calibration_frame = StateFrame.zeros(self._graph.num_vertices)
            self._calibration_rng_state = generator_state(self._rng)
        meta = {
            "kind": _SNAPSHOT_KIND,
            # "sequential" marks the session's own, refinable stream; a rank's state names its backend.
            "algorithm": self._algorithm,
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
            "rng_state": None if self._rng is None else generator_state(self._rng),
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
        options = dict(_json_object(meta, "options"))
        for key, value in _RETIRED_OPTIONS.items():
            recorded = options.pop(key, value)
            if recorded != value:
                raise SnapshotError(
                    f"{path}: snapshot records option {key}={recorded!r}; this version runs only {value!r}"
                )
        options = KadabraOptions(**options)
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
        for name, frame in (
            ("counts", session._frame), ("calibration_counts", session._calibration_frame)
        ):
            # A sample adds at most 1 to a vertex.  A NaN makes min and max
            # NaN, which fails these tests too.
            counts = frame.counts
            if counts.size and not (
                counts.min() >= 0
                and counts.max() <= frame.num_samples
                and np.array_equal(np.floor(counts), counts)
            ):
                raise SnapshotError(
                    f"{path}: {name!r} holds values that are not whole sample counts "
                    f"between 0 and the frame's {frame.num_samples} samples"
                )
        session._calibration_rng_state = calibration.get("rng_state")
        if session._calibration_rng_state is not None:
            generator_from_state(session._calibration_rng_state)  # refine replays from it
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
        session._rng = generator_from_state(meta["rng_state"]) if session._native else None
        # Recompute the stopping state instead of storing 2n more floats: the
        # calibration is a deterministic function of the stored frame.  A
        # rank's mid-run checkpoint certifies nothing yet and is calibrated
        # for the target of its options.
        if session._omega is not None and session._calibration_frame.num_samples > 0:
            session._condition = stopping_condition(
                session._calibration_frame,
                eps=options.eps if session._eps is None else session._eps,
                delta=options.delta if session._delta is None else session._delta,
                omega=session._omega,
            )
        elif not session._native:
            raise SnapshotError(f"{path}: {algorithm!r} checkpoint carries no calibration")
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
    """Open a resumable estimation session on ``graph``.

    Parameters mirror :func:`repro.estimate_betweenness`: ``graph`` may be a
    :class:`~repro.graph.csr.CSRGraph`, a path or a catalog name;
    ``algorithm`` is a backend registry name or ``"auto"``; ``options`` plus
    ``seed``/keyword overrides configure the run (``eps``/``delta`` are
    usually passed to ``run``/``refine``).  The backend must be registered
    with ``supports_refinement=True``; one that runs once raises
    :class:`SessionCapabilityError` (call :func:`repro.estimate_betweenness`
    for it).
    """
    from repro.api import backends as _backends  # noqa: F401  (populate registry)
    from repro.api.registry import AUTO, get_backend, select_backend
    from repro.api.resources import Resources

    if isinstance(graph, (str, Path)):
        from repro.store import load_graph

        graph = load_graph(graph)
    if not hasattr(graph, "num_vertices"):
        raise TypeError(f"graph must be a CSRGraph-like object, got {type(graph).__name__}")
    resources = resources if resources is not None else Resources()
    if not isinstance(resources, Resources):
        raise TypeError("resources must be a repro.api.Resources instance")
    spec = select_backend(graph.num_vertices, resources) if algorithm == AUTO else get_backend(algorithm)
    if not spec.supports_refinement:
        raise SessionCapabilityError(
            f"backend {spec.name!r} runs once and keeps no session; "
            f"call estimate_betweenness(graph, algorithm={spec.name!r}) instead"
        )

    base = options if options is not None else KadabraOptions()
    changes = dict(option_overrides)
    if seed is not None:
        changes["seed"] = seed
    opts = base.with_(**changes) if changes else base

    return EstimationSession(graph, opts, progress=callbacks, kernel=resources.kernel)
