"""Per-worker driver of the distributed runtime.

One OS process per rank.  Rank 0's process hosts the rendezvous hub (unless
``connect`` points at a remote hub), every rank joins the world communicator
over TCP and runs :func:`repro.parallel.engine.run_rank` — the same function
every parallel backend runs — on its own view of the graph.
What this module adds around the engine:

* **Sharded adjacency** — with ``parts`` set, each rank opens a
  :class:`~repro.store.partition.PartitionedGraphView` of only its shard
  (``rank % parts``); the manifest's precomputed diameter bound makes the
  sequential diameter phase a no-op.
* **Epoch checkpoints** — rank 0 snapshots the engine's
  :class:`~repro.parallel.engine.EpochBoundary` through the ``on_aggregate``
  hook into a ``.snap`` container and hands the loaded boundary back as
  ``resume``, so a SIGKILLed run continues from the last completed epoch with
  zero lost aggregated samples (see :func:`repro.dist.launcher.launch_local`).
* **Merged observability** — every rank ships its metrics-registry snapshot
  to rank 0 with the final ``gather``; rank 0 merges them so one
  ``/metrics`` exposition covers the whole world.

The fault-injection arm (``REPRO_DIST_FAULT_RANK``) SIGKILLs this process
shortly after the first checkpoint exists — used by tests and CI to prove
crash recovery with real processes, never set in normal operation.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.options import KadabraOptions
from repro.core.state_frame import StateFrame
from repro.dist.socketcomm import SocketComm, SocketHub
from repro.mpi.interface import Communicator
from repro.obs.metrics import get_registry, metrics_enabled
from repro.parallel.engine import EpochBoundary, run_rank
from repro.session.snapshot import read_snapshot, require_keys, write_snapshot
from repro.store.format import open_rcsr, read_header
from repro.store.partition import PartitionManifest, PartitionedGraphView, manifest_path_for

__all__ = ["DistWorkerConfig", "run_worker", "FAULT_RANK_ENV", "CHECKPOINT_KIND"]

FAULT_RANK_ENV = "REPRO_DIST_FAULT_RANK"
CHECKPOINT_KIND = "dist-epoch"


@dataclass
class DistWorkerConfig:
    """Everything one worker process needs; mirrored by ``dist worker`` flags."""

    graph: str
    rank: int
    size: int
    port: int
    host: str = "127.0.0.1"
    connect: Optional[str] = None  # "host:port" of a remote hub
    parts: Optional[int] = None
    algorithm: str = "epoch"  # or "mpi-only"
    threads: int = 1
    eps: float = 0.05
    delta: float = 0.1
    seed: Optional[int] = 0
    samples_per_check: int = 1000
    calibration_samples: Optional[int] = None
    max_samples: Optional[int] = None
    max_epochs: Optional[int] = None
    checkpoint: Optional[str] = None
    checkpoint_every: int = 1
    resume: bool = False
    result_path: Optional[str] = None
    timeout: float = 60.0

    def hub_address(self) -> tuple:
        if self.connect:
            host, _, port = self.connect.rpartition(":")
            return host, int(port)
        return self.host, int(self.port)

    def to_argv(self) -> List[str]:
        """The ``repro.cli dist worker`` argument vector for this config."""
        argv = [
            "dist",
            "worker",
            "--graph",
            self.graph,
            "--rank",
            str(self.rank),
            "--size",
            str(self.size),
            "--host",
            self.host,
            "--port",
            str(self.port),
            "--algorithm",
            self.algorithm,
            "--threads",
            str(self.threads),
            "--eps",
            str(self.eps),
            "--delta",
            str(self.delta),
            "--samples-per-check",
            str(self.samples_per_check),
            "--checkpoint-every",
            str(self.checkpoint_every),
            "--timeout",
            str(self.timeout),
        ]
        if self.connect:
            argv += ["--connect", self.connect]
        if self.parts is not None:
            argv += ["--parts", str(self.parts)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        if self.calibration_samples is not None:
            argv += ["--calibration-samples", str(self.calibration_samples)]
        if self.max_samples is not None:
            argv += ["--max-samples", str(self.max_samples)]
        if self.max_epochs is not None:
            argv += ["--max-epochs", str(self.max_epochs)]
        if self.checkpoint:
            argv += ["--checkpoint", self.checkpoint]
        if self.resume:
            argv += ["--resume"]
        if self.result_path:
            argv += ["--output", self.result_path]
        return argv


# --------------------------------------------------------------------------- #
# fault injection (tests / CI only)


def _arm_fault_injection(config: DistWorkerConfig) -> None:
    """SIGKILL this process shortly after the first checkpoint appears.

    Waiting for the checkpoint file guarantees the kill lands *after* at
    least one epoch boundary was persisted — the scenario the resume path
    must survive — rather than during startup where a restart would simply
    rerun from scratch.
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


# --------------------------------------------------------------------------- #
# checkpointing


def _write_checkpoint(
    path: str, boundary: EpochBoundary, *, config: DistWorkerConfig, graph_checksum: str
) -> None:
    aggregated = boundary.frame
    meta = {
        "kind": CHECKPOINT_KIND,
        "epoch": int(boundary.epoch),
        "num_samples": int(aggregated.num_samples),
        "eps": float(config.eps),
        "delta": float(config.delta),
        "seed": config.seed,
        "omega": int(boundary.omega),
        "vertex_diameter": int(boundary.vertex_diameter),
        "size": int(config.size),
        "parts": config.parts,
        "algorithm": config.algorithm,
        "frame": {k: int(v) for k, v in aggregated.scalar_state().items()},
        "graph_checksum": graph_checksum,
    }
    arrays = {
        "counts": aggregated.counts.copy(),
        "delta_l": np.asarray(boundary.delta_l, dtype=np.float64),
        "delta_u": np.asarray(boundary.delta_u, dtype=np.float64),
    }
    write_snapshot(Path(path), meta, arrays)


def _load_checkpoint(path: str, *, graph_checksum: str, config: DistWorkerConfig) -> EpochBoundary:
    meta, arrays = read_snapshot(Path(path))
    require_keys(
        meta,
        ["kind", "epoch", "num_samples", "eps", "delta", "omega", "vertex_diameter", "frame", "graph_checksum"],
        Path(path),
    )
    if meta["kind"] != CHECKPOINT_KIND:
        raise ValueError(f"{path}: not a distributed epoch checkpoint ({meta['kind']!r})")
    if meta["graph_checksum"] != graph_checksum:
        raise ValueError(
            f"{path}: checkpoint belongs to a different graph "
            f"({meta['graph_checksum']} != {graph_checksum})"
        )
    if float(meta["eps"]) != float(config.eps) or float(meta["delta"]) != float(config.delta):
        raise ValueError(f"{path}: checkpoint (eps, delta) differ from this run's")
    return EpochBoundary(
        epoch=int(meta["epoch"]),
        frame=StateFrame.from_scalar_state(meta["frame"], arrays["counts"]),
        omega=int(meta["omega"]),
        vertex_diameter=int(meta["vertex_diameter"]),
        delta_l=arrays["delta_l"],
        delta_u=arrays["delta_u"],
    )


# --------------------------------------------------------------------------- #
# the worker body


def _open_graph(config: DistWorkerConfig):
    """Returns (graph-shaped object, graph content checksum, vd override)."""
    path = Path(config.graph)
    if config.parts:
        manifest = PartitionManifest.load(manifest_path_for(path, config.parts))
        view = PartitionedGraphView(manifest, config.rank % config.parts)
        return view, manifest.source_checksum, manifest.vertex_diameter
    header = read_header(path)
    checksum = f"crc32:{header.crc_indptr:08x}{header.crc_indices:08x}"
    return open_rcsr(path), checksum, None


def run_worker(config: DistWorkerConfig, *, listener: Optional[socket.socket] = None) -> int:
    """Run one rank of a distributed estimation; returns a process exit code.

    Rank 0 (without ``connect``) hosts the hub — on ``listener`` when the
    launcher that forked it bound one, else on ``config.host:config.port`` —
    writes checkpoints, and emits the merged result JSON to
    ``config.result_path``.
    """
    _arm_fault_injection(config)
    hub: Optional[SocketHub] = None
    if config.rank == 0 and config.connect is None:
        hub = SocketHub(config.size, host=config.host, port=config.port, listener=listener).start()
    host, port = config.hub_address()
    comm = SocketComm.connect(host, port, config.rank, config.size, timeout=config.timeout)
    try:
        result = _worker_body(comm, config)
        if comm.is_root and result is not None and config.result_path:
            out = Path(config.result_path)
            out.parent.mkdir(parents=True, exist_ok=True)
            tmp = out.with_name(out.name + ".tmp")
            tmp.write_text(json.dumps(result))
            os.replace(tmp, out)
        return 0
    finally:
        comm.close()
        if hub is not None:
            # Drain: the hub closes itself once every rank (including this
            # one, whose bye was just sent) departed; force-close as backstop.
            hub.wait_closed(timeout=10.0)
            hub.close()


def _worker_body(comm: Communicator, config: DistWorkerConfig) -> Optional[Dict[str, Any]]:
    graph, graph_checksum, vd_hint = _open_graph(config)
    num_threads = max(int(config.threads), 1)
    options = KadabraOptions(
        eps=config.eps,
        delta=config.delta,
        seed=config.seed,
        samples_per_check=config.samples_per_check,
        calibration_samples=config.calibration_samples,
        max_samples_override=config.max_samples,
        vertex_diameter_override=vd_hint,
    )

    # Rank 0 alone reads and writes checkpoints; the engine broadcasts what
    # the other ranks need of a restored boundary.
    checkpointing = bool(config.checkpoint) and comm.is_root
    resume: Optional[EpochBoundary] = None
    if checkpointing and config.resume and Path(config.checkpoint).exists():
        resume = _load_checkpoint(config.checkpoint, graph_checksum=graph_checksum, config=config)
    base_epoch = resume.epoch if resume is not None else 0
    resumed_from_samples = resume.frame.num_samples if resume is not None else 0

    on_aggregate = None
    if checkpointing:
        checkpoint_every = max(int(config.checkpoint_every), 1)

        def on_aggregate(boundary: EpochBoundary) -> None:
            if (boundary.epoch - base_epoch) % checkpoint_every == 0:
                _write_checkpoint(
                    config.checkpoint, boundary, config=config, graph_checksum=graph_checksum
                )

    result, stats = run_rank(
        comm,
        graph,
        options,
        threads=num_threads,
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
    per_rank = [
        {k: v for k, v in report.items() if k != "metrics"} for report in reports
    ]
    total_adaptive_samples = sum(r["local_samples"] for r in per_rank)
    slowest = max(r["adaptive_seconds"] for r in per_rank)
    return {
        "scores": result.scores.tolist(),
        "num_samples": int(result.num_samples),
        "num_epochs": int(result.num_epochs),
        "eps": float(options.eps),
        "delta": float(options.delta),
        "omega": int(result.omega),
        "vertex_diameter": int(result.vertex_diameter),
        "algorithm": config.algorithm,
        "num_processes": int(comm.size),
        "threads_per_process": int(num_threads),
        "parts": config.parts,
        "samples_per_epoch_n0": result.extra["samples_per_epoch_n0"],
        "resumed_from_samples": int(resumed_from_samples),
        "resumed_from_epoch": int(base_epoch),
        "communication_bytes": int(sum(r["communication_bytes"] for r in per_rank)),
        "aggregate_samples_per_sec": (total_adaptive_samples / slowest) if slowest > 0 else 0.0,
        "phase_seconds": result.phase_seconds,
        "per_rank": per_rank,
    }
