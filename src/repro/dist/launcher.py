"""Local process launcher: fork N ranks, monitor, resume after a crash.

``repro.cli dist run`` lands here.  The launcher:

1. with ``parts``, partitions the graph up front (idempotent, so no two
   workers race the shard writes; the manifest also records the diameter
   bound, so no worker pays for that phase).  Without ``parts`` - every rank
   maps the whole graph - nothing is precomputed: rank 0 runs the diameter
   phase inside :func:`repro.parallel.engine.run_rank` and broadcasts the
   bound, while the other ranks wait (the ``diameter`` entry of rank 0's
   ``phase_seconds``);
2. binds the hub's listening socket, then forks ``processes`` real OS
   processes from itself (:func:`repro.dist.socketcomm.fork_rank`), each
   calling :func:`repro.dist.driver.run_worker` directly — no interpreter
   start-up, no re-import of numpy and ``repro``; rank 0 inherits the
   listener and hosts the hub on it.  ``python -m repro.cli dist worker`` is
   the same function behind a command line, for ranks on other hosts and
   under ``mpirun``;
3. monitors them: if any worker dies (crash, OOM, SIGKILL), the remaining
   workers are torn down and — when a checkpoint exists and restarts
   remain — the whole world is forked again with ``resume`` set, continuing
   from the last persisted epoch boundary with zero lost aggregated samples;
4. receives rank 0's merged result over a pipe, grown (on Linux, when it
   may) to hold the scores at once, writes it to ``result_path``
   and returns it with the restart count.  However it ends, no rank outlives the call.

Fault-injection (``fault_rank``) sets :data:`~repro.dist.driver.FAULT_RANK_ENV`
inside exactly one worker of the *first* generation; later generations never
see it, mirroring a real transient fault.
"""

from __future__ import annotations

import fcntl
import multiprocessing
import os
import socket
import time
from dataclasses import replace
from multiprocessing.connection import wait
from pathlib import Path
from typing import Dict, Optional

from repro.dist.driver import (
    FAULT_RANK_ENV, RUN_FIELDS, DistWorkerConfig, receive_result, run_worker, write_result,
)
from repro.dist.socketcomm import bind_listener, fork_rank, reap
from repro.store.format import read_header
from repro.store.partition import partition_rcsr

__all__ = ["LaunchError", "launch_local"]


class LaunchError(RuntimeError):
    """The distributed run could not be completed (even after restarts)."""


def _grow_pipe(writer, graph_path: Path) -> None:
    """Size the hand-off pipe to the scores plus room for the header, so rank 0
    writes its result without waiting for the launcher to drain 64 KiB chunks.

    Best effort: capped by ``/proc/sys/fs/pipe-max-size``, Linux only, and any
    failure keeps the default size.
    """
    try:
        want = 8 * read_header(graph_path).num_vertices + (1 << 16)
        cap = int(Path("/proc/sys/fs/pipe-max-size").read_text())
        fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, min(want, cap))
    except (OSError, ValueError, AttributeError):
        pass


def _rank_process(config: DistWorkerConfig, listener: socket.socket, reader, writer, fault: bool) -> None:
    """Body of one forked rank: the launcher's state, minus what is not this rank's."""
    os.environ.pop(FAULT_RANK_ENV, None)
    if fault:
        os.environ[FAULT_RANK_ENV] = str(config.rank)
    reader.close()
    if config.rank != 0:
        listener.close()
        writer.close()
        listener = writer = None
    run_worker(config, listener=listener, handoff=writer)


def launch_local(
    graph: str,
    *,
    processes: int,
    max_restarts: int = 2,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    result_path: Optional[str] = None,
    timeout: float = 600.0,
    fault_rank: Optional[int] = None,
    **run,
) -> Dict:
    """Run a distributed estimation with ``processes`` local worker processes.

    ``run`` holds the run parameters, :data:`~repro.dist.driver.RUN_FIELDS`
    with :class:`~repro.dist.driver.DistWorkerConfig`'s defaults; a run that
    could not start raises ``ValueError`` before anything is bound or forked.
    Returns rank 0's merged result dict plus ``{"restarts": k}``.  ``graph``
    must be a ``.rcsr`` path (callers resolve catalog names first); with
    ``parts`` the shards are built here before any worker starts.
    """
    if processes <= 0:
        raise LaunchError("processes must be positive")
    unknown = sorted(set(run) - set(RUN_FIELDS))
    if unknown:
        raise TypeError(f"launch_local() got unexpected keyword arguments {unknown}")
    graph_path = Path(graph)
    if not graph_path.exists():
        raise LaunchError(f"graph container not found: {graph_path}")
    base = DistWorkerConfig.from_flags(
        dict(run, graph=str(graph_path), rank=0, size=processes, port=0, host=host, timeout=min(timeout, 120.0))
    )
    if base.parts:
        partition_rcsr(graph_path, base.parts)

    if result_path is None:
        result_path = str(graph_path.with_name(f"{graph_path.stem}.dist-result.json"))
    Path(result_path).unlink(missing_ok=True)

    restarts = 0
    resume = False
    deadline = time.monotonic() + timeout
    while True:
        try:
            listener = bind_listener(host, port or 0, backlog=processes)
        except OSError as exc:
            raise LaunchError(f"cannot listen on {host}:{port or 0}: {exc}") from None
        world_port = listener.getsockname()[1]
        configs = [replace(base, rank=rank, port=world_port, resume=resume) for rank in range(processes)]
        reader, writer = multiprocessing.Pipe(duplex=False)
        _grow_pipe(writer, graph_path)
        procs = []
        result = failed_rank = None
        try:
            for config in configs:
                fault = fault_rank == config.rank and restarts == 0
                procs.append(fork_rank(_rank_process, config, listener, reader, writer, fault, rank=config.rank))
            writer.close()  # rank 0 holds the only write end now: its exit is the reader's EOF
            # Until the result arrives or a rank fails; the reader leaves the list
            # only once read, so a result sent by ranks that all exited is drained.
            waiting = [reader, *(proc.sentinel for proc in procs)]
            while result is None and failed_rank is None and waiting:
                ready = wait(waiting, timeout=max(deadline - time.monotonic(), 0.0))
                if not ready:
                    raise LaunchError(f"distributed run exceeded {timeout}s")
                if reader in ready:
                    waiting.remove(reader)
                    result = receive_result(reader)  # None: rank 0 ended without a whole result
                for proc in procs:
                    if proc.sentinel in ready:
                        waiting.remove(proc.sentinel)
                        proc.join()
                failed_rank = next((rank for rank, proc in enumerate(procs) if proc.exitcode), None)
            if result is not None:  # written while the ranks say goodbye
                result["scores"] = write_result(result_path, result)
        finally:
            listener.close()
            reader.close()
            writer.close()
            reap(procs, grace=10.0 if result is not None else 0.0)

        if result is not None:
            result["restarts"] = restarts
            return result
        if failed_rank is None:
            raise LaunchError("workers exited cleanly but produced no result")

        can_resume = base.checkpoint is not None and Path(base.checkpoint).exists()
        if restarts >= max_restarts:
            raise LaunchError(
                f"rank {failed_rank} died (exit {procs[failed_rank].exitcode}) "
                f"and the restart budget ({max_restarts}) is exhausted"
            )
        restarts += 1
        resume = can_resume
