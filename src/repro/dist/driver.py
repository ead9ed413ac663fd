"""Per-worker driver of the distributed runtime.

One OS process per rank.  Rank 0's process hosts the rendezvous hub and
joins the world communicator on the hub's in-process seat, every other rank
over TCP to ``(host, port)``; each rank runs
:func:`repro.parallel.engine.run_rank` on its own view of the graph.  What
this module adds around the engine:

* **Sharded adjacency** — with ``parts`` set, each rank opens a
  :class:`~repro.store.partition.PartitionedGraphView` of only its shard
  (``rank % parts``); the manifest's precomputed diameter bound makes the
  sequential diameter phase a no-op.
* **Epoch checkpoints** — rank 0's state reaches the engine's
  ``on_aggregate`` hook as a session and is checkpointed in the session
  snapshot format; ``--resume`` restores it through the session's restore
  (a bad checkpoint is a :class:`~repro.session.SnapshotError`, exit code 2)
  and hands it back as ``resume``, so a SIGKILLed run continues from the last
  completed epoch with zero lost aggregated samples.
* **Merged observability** — every rank ships its metrics-registry snapshot
  to rank 0 with the final ``gather``; rank 0 merges them so one
  ``/metrics`` exposition covers the whole world.

The fault-injection arm (``REPRO_DIST_FAULT_RANK``) SIGKILLs this process
shortly after the first checkpoint exists — used by tests and CI to prove
crash recovery with real processes, never set in normal operation.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.options import OPTION_FLAGS, KadabraOptions, add_option_flags, flag_field
from repro.dist.socketcomm import SocketComm, SocketHub
from repro.mpi.interface import Communicator
from repro.obs.metrics import get_registry, metrics_enabled
from repro.parallel.engine import ALGORITHMS, run_rank
from repro.session import EstimationSession, SnapshotError
from repro.store.format import open_rcsr
from repro.store.partition import PartitionManifest, PartitionedGraphView, manifest_path_for

__all__ = [
    "DistWorkerConfig", "RUN_FIELDS", "WORKER_FIELDS", "add_run_flags", "run_worker", "write_result",
    "receive_result", "FAULT_RANK_ENV",
]

FAULT_RANK_ENV = "REPRO_DIST_FAULT_RANK"


@dataclass
class DistWorkerConfig:
    """Everything one worker process needs; each field declares its ``dist worker`` flag.

    The fields from ``parts`` to ``options`` are a run's parameters
    (:data:`RUN_FIELDS`; ``options`` stands for the flags
    :class:`~repro.core.options.KadabraOptions` declares): ``dist run`` and
    ``dist worker`` take them as the flags :func:`add_run_flags` adds, and
    ``launch_local`` as keywords.  The others (:data:`WORKER_FIELDS`) say
    which rank this is and where its hub listens: only ``dist worker`` takes
    them as flags.  A config that could not run raises ``ValueError`` when
    it is built.
    """

    graph: str = flag_field(MISSING, str, ".rcsr container path", required=True)
    rank: int = flag_field(MISSING, int, required=True)
    size: int = flag_field(MISSING, int, required=True)
    host: str = flag_field("127.0.0.1", str, "hub address: rank 0 listens on it, the other ranks dial it")
    port: int = flag_field(0, int, "hub port (rank 0: 0 picks a free one)")
    parts: Optional[int] = flag_field(None, int, "partition the graph into K shards; each rank maps only shard "
                                      "rank%%K (default: no partitioning, every rank maps the full graph)")
    algorithm: str = flag_field("epoch", str, choices=ALGORITHMS)
    threads: int = flag_field(1, int, "sampling threads per process")
    max_epochs: Optional[int] = flag_field(None, int)
    checkpoint: Optional[str] = flag_field(None, str, "epoch-boundary checkpoint file (.snap)")
    checkpoint_every: int = flag_field(1, int, "epochs between checkpoints")
    options: KadabraOptions = field(default_factory=KadabraOptions)
    resume: bool = flag_field(False, None, "continue from --checkpoint when it exists", action="store_true")
    result_path: Optional[str] = flag_field(None, str, "rank-0 result JSON path", name="output")
    timeout: float = flag_field(60.0, float, "seconds a rank other than 0 keeps dialling the hub")

    def __post_init__(self) -> None:
        for name in ("size", "threads", "checkpoint_every", "timeout", "parts"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.rank < self.size:
            raise ValueError(f"rank must be in [0, size), got rank {self.rank} of size {self.size}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")

    def to_argv(self) -> List[str]:
        """The ``repro.cli dist worker`` argument vector for this config."""
        argv = ["dist", "worker"]
        own = {flag: getattr(self, name) for flag, name in _OWN_FLAGS.items()}
        for name, value in {**own, **self.options.flags()}.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif value is not None and value is not False:
                argv += [flag, str(value)]
        return argv

    @classmethod
    def from_flags(cls, values: Mapping[str, Any]) -> "DistWorkerConfig":
        """The config a mapping by flag name describes: ``vars()`` of a parsed ``dist worker``
        command line, or ``launch_local``'s keywords.  Other keys are ignored."""
        given = {name: values[flag] for flag, name in _OWN_FLAGS.items() if flag in values}
        return cls(options=KadabraOptions.from_flags(values), **given)


#: The ``dist worker`` flag of each of the config's own fields (``options`` has its own flags).
_OWN_FLAGS = {
    spec.metadata["name"] or spec.name: spec.name for spec in fields(DistWorkerConfig) if spec.name != "options"
}

#: The fields that tell one worker apart: the launcher sets them, not the caller.
WORKER_FIELDS = ("graph", "rank", "size", "host", "port", "resume", "result_path", "timeout")

#: The run parameters: the flags every rank of one run shares.
RUN_FIELDS = tuple(name for name in _OWN_FLAGS.values() if name not in WORKER_FIELDS) + OPTION_FLAGS


def add_run_flags(parser, *, worker: bool = False) -> None:
    """Add one flag per run parameter (``dist run``) to an ``argparse`` parser, with its default
    and help; with ``worker``, one per field of the config (``dist worker``)."""
    for spec in fields(DistWorkerConfig):
        if spec.name == "options":
            add_option_flags(parser)
        elif worker or spec.name in RUN_FIELDS:
            flag = "--" + (spec.metadata["name"] or spec.name).replace("_", "-")
            parser.add_argument(flag, default=spec.default, **spec.metadata["flag"])


# --------------------------------------------------------------------------- #
# fault injection (tests / CI only)


def _arm_fault_injection(config: DistWorkerConfig) -> None:
    """SIGKILL this process shortly after the first checkpoint appears.

    Waiting for the file makes the kill land *after* an epoch boundary was
    persisted — the scenario resume must survive — not during start-up,
    where a restart would simply rerun from scratch.
    """
    if os.environ.get(FAULT_RANK_ENV) != str(config.rank) or not config.checkpoint:
        return
    target = Path(config.checkpoint)

    def watch() -> None:
        while not target.exists():
            time.sleep(0.005)
        time.sleep(0.02)  # let the run proceed into the next epoch
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=watch, name="fault-arm", daemon=True).start()


def write_result(path, result: Dict[str, Any]) -> List[float]:
    """Write ``result`` (scores: float64 array) to ``path`` as ``json.dumps`` would; returns the scores as a list.

    An estimate is n floats, well under 1 % of them distinct: each distinct
    one is formatted once and is one float object in the list.
    """
    scores = np.ascontiguousarray(result["scores"], dtype=np.float64)
    distinct, inverse = np.unique(scores.view(np.int64), return_inverse=True)  # 0.0, -0.0 print apart
    values = np.array(distinct.view(np.float64).tolist(), dtype=object)
    listed = values[inverse].tolist()
    body = ", ".join(np.array([json.dumps(value) for value in values], dtype=object)[inverse].tolist())
    items, at = list(result.items()), list(result).index("scores")  # the other keys, dumped on either side
    head = json.dumps(dict(items[:at]))[:-1] + (", " if at else "")
    tail = (", " if at + 1 < len(items) else "") + json.dumps(dict(items[at + 1 :]))[1:]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(f'{head}"scores": [{body}]{tail}')
    os.replace(tmp, out)
    return listed


def receive_result(reader) -> Optional[Dict[str, Any]]:
    """Rank 0's hand-off (JSON header, then the scores' bytes), scores as an array; None if cut short."""
    try:
        result, buffer = json.loads(reader.recv_bytes()), reader.recv_bytes()
    except EOFError:
        return None
    if len(buffer) == 8 * result["scores"]:
        result["scores"] = np.frombuffer(buffer, dtype=np.float64)
        return result
    return None


# --------------------------------------------------------------------------- #
# the worker body


def _open_graph(config: DistWorkerConfig):
    """Returns (graph-shaped object, vd override)."""
    path = Path(config.graph)
    if config.parts:
        manifest = PartitionManifest.load(manifest_path_for(path, config.parts))
        return PartitionedGraphView(manifest, config.rank % config.parts), manifest.vertex_diameter
    return open_rcsr(path), None


def _restore_checkpoint(config: DistWorkerConfig, graph) -> Optional[EstimationSession]:
    """Rank 0's state from ``config.checkpoint``, when resuming from one.

    The session restore validates the container and the graph; this adds
    what makes it *this run's* checkpoint.  Raises :class:`SnapshotError`.
    """
    path = config.checkpoint
    if config.rank != 0 or not (config.resume and path and Path(path).exists()):
        return None
    state = EstimationSession.restore(path, graph=graph)
    if state.supports_refinement:
        raise SnapshotError(f"{path}: a sequential session, not a parallel checkpoint")
    target, run = (state.options.eps, state.options.delta), (config.options.eps, config.options.delta)
    if target != run:
        raise SnapshotError(f"{path}: checkpoint (eps, delta) = {target} differ from this run's {run}")
    return state


def run_worker(config: DistWorkerConfig, *, listener: Optional[socket.socket] = None, handoff=None) -> int:
    """Run one rank of a distributed estimation; returns a process exit code.

    Rank 0 hosts the hub — on ``listener`` when the launcher that forked it
    bound one, else on ``config.host:config.port``, whose bound address it
    then prints as one ``hub listening on HOST:PORT`` stdout line (port 0
    picks a free one) — and takes its seat on it in process; the other
    ranks dial that address.  Rank 0
    writes checkpoints, and sends the merged result down the ``handoff``
    pipe end when it has one, else writes it to ``config.result_path``.  A
    checkpoint that cannot be resumed ends rank 0 with exit code 2 and one
    ``error:`` line, before it joins the world.
    """
    _arm_fault_injection(config)
    graph, vd_hint = _open_graph(config)
    try:
        resume = _restore_checkpoint(config, graph)
    except SnapshotError as exc:
        print(f"error: cannot resume: {exc}", file=sys.stderr)
        return 2
    hub: Optional[SocketHub] = None
    if config.rank == 0:
        hub = SocketHub(config.size, host=config.host, port=config.port, listener=listener)
        comm = hub.seat()
        hub.start()
        if listener is None:  # the other ranks' only way to learn an ephemeral port
            print(f"hub listening on {hub.host}:{hub.port}", flush=True)
    else:
        comm = SocketComm.connect(config.host, config.port, config.rank, config.size, timeout=config.timeout)
    try:
        result = _worker_body(comm, config, graph, vd_hint, resume)
        if comm.is_root and result is not None:
            if handoff is not None:  # the vertex count in place of the scores, whose bytes follow
                handoff.send_bytes(json.dumps({**result, "scores": result["scores"].size}).encode())
                handoff.send_bytes(result["scores"])
            elif config.result_path:
                write_result(config.result_path, result)
        return 0
    finally:
        comm.close()
        if hub is not None:
            # Drain: the hub closes itself once every rank (including this
            # one, which just left its seat) departed; force-close as backstop.
            hub.wait_closed(timeout=10.0)
            hub.close()


def _worker_body(
    comm: Communicator,
    config: DistWorkerConfig,
    graph,
    vd_hint: Optional[int],
    resume: Optional[EstimationSession],
) -> Optional[Dict[str, Any]]:
    options = config.options if vd_hint is None else config.options.with_(vertex_diameter_override=vd_hint)

    # Rank 0 alone reads and writes checkpoints; the engine broadcasts what
    # the other ranks need of a restored state.
    resumed_epoch = resume._checks if resume is not None else 0
    resumed_samples = resume.num_samples if resume is not None else 0
    on_aggregate = None
    if config.checkpoint and comm.is_root:
        epochs = itertools.count(1)

        def on_aggregate(state: EstimationSession) -> None:
            if next(epochs) % config.checkpoint_every == 0:
                state.checkpoint(config.checkpoint)

    result, stats = run_rank(
        comm,
        graph,
        options,
        threads=config.threads,
        algorithm=config.algorithm,
        max_epochs=config.max_epochs,
        on_aggregate=on_aggregate,
        resume=resume,
    )

    # ---------------- Merge per-rank stats + metrics at rank 0 ------------ #
    loaded = graph.loaded_parts() if isinstance(graph, PartitionedGraphView) else None
    eager = graph.eager_parts() if isinstance(graph, PartitionedGraphView) else None
    rank_report = {
        "rank": comm.rank,
        "local_samples": int(stats.local_samples),
        "communication_bytes": int(comm.communication_bytes()),
        "adaptive_seconds": float(stats.phase_seconds.get("adaptive_sampling", 0.0)),
        "opening_samples": int(stats.opening_samples),
        "eager_parts": list(eager) if eager is not None else None,
        "loaded_parts": list(loaded) if loaded is not None else None,
        "metrics": get_registry().snapshot() if metrics_enabled() else None,
    }
    reports = comm.gather(rank_report, root=0)
    if not comm.is_root:
        return None

    assert result is not None and reports is not None
    if metrics_enabled():
        registry = get_registry()
        for report in reports:
            if report["rank"] != 0 and report["metrics"]:
                registry.merge(report["metrics"])
    per_rank = [{k: v for k, v in report.items() if k != "metrics"} for report in reports]
    # The loop's samples over the loop's clock: the opening's are drawn outside it.
    total_adaptive_samples = sum(r["local_samples"] - r["opening_samples"] for r in per_rank)
    slowest = max(r["adaptive_seconds"] for r in per_rank)
    if total_adaptive_samples == 0 and (result.num_epochs == 0 or comm.size * config.threads == 1):
        # Calibration reached omega, so it drew every sample (several workers
        # run no epoch and drop their openings; one worker's only epoch
        # checks and draws nothing): report that phase's rate instead of 0.
        # An epoch whose openings held every rank's share reports the loop's 0.
        total_adaptive_samples = int(result.num_samples) - int(resumed_samples)
        slowest = result.phase_seconds.get("calibration", 0.0)
    return {
        "scores": result.scores,
        "num_samples": int(result.num_samples),
        "num_epochs": int(result.num_epochs),
        "eps": float(options.eps),
        "delta": float(options.delta),
        "omega": int(result.omega or 0),  # None on a graph of fewer than 2 vertices
        "vertex_diameter": int(result.vertex_diameter or 0),
        "algorithm": config.algorithm,
        "num_processes": int(comm.size),
        "threads_per_process": int(config.threads),
        "parts": config.parts,
        "samples_per_epoch_n0": result.extra.get("samples_per_epoch_n0", 0.0),
        "resumed_from_samples": int(resumed_samples),
        "resumed_from_epoch": int(resumed_epoch),
        "communication_bytes": int(sum(r["communication_bytes"] for r in per_rank)),
        "aggregate_samples_per_sec": (total_adaptive_samples / slowest) if slowest > 0 else 0.0,
        "phase_seconds": result.phase_seconds,
        "per_rank": per_rank,
    }
