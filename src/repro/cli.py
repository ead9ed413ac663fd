"""Command-line interface: approximate betweenness for an edge-list graph.

Usage::

    python -m repro.cli INPUT_GRAPH [--eps 0.01] [--delta 0.1]
        [--algorithm auto|sequential|shared-memory|distributed|...]
        [--processes P] [--threads T] [--top 10] [--output scores.json]
    python -m repro.cli convert INPUT [OUTPUT] [--format auto|edgelist|metis]
    python -m repro.cli info GRAPH_OR_NAME [--json]
    python -m repro.cli serve [--host H] [--port P] [--workers N]
        [--store JOBS.sqlite3] [--dispatch pool|external]
        [--max-inflight N] [--max-queued N]
    python -m repro.cli worker --store JOBS.sqlite3 [--max-jobs N] [...]
    python -m repro.cli query GRAPH [--eps 0.01] [--delta 0.1] [--port P]
    python -m repro.cli cache ls|evict [...]
    python -m repro.cli session run GRAPH --checkpoint S [--eps E] [...]
    python -m repro.cli session refine SNAPSHOT --eps E [--delta D] [...]
    python -m repro.cli session checkpoint SNAPSHOT [--json]
    python -m repro.cli evolve apply GRAPH --delta-file D.json [--name N]
    python -m repro.cli evolve run GRAPH --snapshot S [--delta-file D.json] [...]
    python -m repro.cli obs TRACE.jsonl [--json] [--limit N]
    python -m repro.cli --list-backends

The ``--algorithm`` choices are derived from the backend registry in
:mod:`repro.api`; ``--list-backends`` prints the capability table.  The input
is a whitespace-separated edge list (KONECT/SNAP style, ``.gz`` supported) or
a binary ``.rcsr`` container (see :mod:`repro.store`): text inputs are
converted into the graph cache on first touch and every later run opens the
binary form zero-copy; ``--no-cache`` forces a plain text parse.  Disconnected
inputs are reduced to their largest connected component, exactly as in the
paper's evaluation (skipped without a copy when the catalog metadata already
proves the graph connected).

``serve`` starts the cached query service of :mod:`repro.service` (see
``docs/serving.md``), ``worker`` starts a store-draining estimation worker
(N of them against one ``--store`` scale the service horizontally), ``query``
talks to a running service, and ``cache`` inspects/evicts its on-disk result
cache.

``session`` exposes the resumable-session layer (see ``docs/sessions.md``):
``session run`` estimates and writes a checkpoint, ``session refine``
restores a checkpoint and tightens eps/delta by drawing only the additional
samples, and ``session checkpoint`` inspects a snapshot file.

``obs`` pretty-prints a phase trace (a ``$REPRO_TRACE`` JSONL file or a
result JSON carrying ``extra.trace``) as a per-phase time breakdown; see
``docs/observability.md``.

``evolve`` exposes the evolving-graph layer (see ``docs/evolving.md``):
``evolve apply`` applies an edge-delta JSON file to a stored graph,
producing a versioned child ``.rcsr`` with a lineage record, and ``evolve
run`` carries a session checkpoint across the delta — invalidating only the
samples the mutation touched and re-certifying on the mutated graph.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Tuple

from repro.api import AUTO, Resources, backend_names, estimate_betweenness, format_backend_table
from repro.graph import CSRGraph, largest_connected_component, read_edge_list
from repro.io_utils import save_result, save_scores_csv

__all__ = [
    "main",
    "build_parser",
    "build_convert_parser",
    "build_info_parser",
    "build_serve_parser",
    "build_query_parser",
    "build_cache_parser",
    "build_session_parser",
    "build_evolve_parser",
    "build_obs_parser",
    "build_dist_parser",
]

SUBCOMMANDS = (
    "convert", "info", "serve", "worker", "query", "cache", "session", "evolve", "obs", "dist",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness",
        description="Approximate betweenness centrality (KADABRA / MPI-style parallel KADABRA).",
        epilog="Subcommands: 'convert' (edge list -> .rcsr store), 'info' "
        "(stored-graph metadata), 'serve' (cached query service), 'query' "
        "(ask a running service), 'cache' (result-cache ls/evict), 'session' "
        "(resumable estimation sessions) and 'evolve' (edge deltas and "
        "incremental updates on evolving graphs); each "
        "has its own --help.  A graph file literally named like a subcommand "
        "can be forced positional with '--', e.g. 'repro-betweenness --eps "
        "0.1 -- convert'.  Docs: README.md (quickstart), docs/architecture.md "
        "(pipeline), docs/serving.md (service API), docs/formats.md "
        "(.rcsr container).",
    )
    parser.add_argument(
        "graph",
        nargs="?",
        help="graph input: edge-list file (whitespace separated, optionally .gz), "
        "an .rcsr store file, or a dataset name registered in the graph catalog",
    )
    parser.add_argument("--eps", type=float, default=0.01, help="absolute error bound (default 0.01)")
    parser.add_argument("--delta", type=float, default=0.1, help="failure probability (default 0.1)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--algorithm",
        choices=[AUTO, *backend_names()],
        default="sequential",
        help="which backend to run, or 'auto' to pick one from graph size and "
        "resources (default: sequential KADABRA)",
    )
    parser.add_argument(
        "--processes", type=int, default=1, help="ranks for distributed backends (default 1)"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="threads per rank / shared-memory threads (default 1)"
    )
    parser.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="force a registered sampling kernel (see --list-kernels) instead "
        "of automatic routing; also settable via $REPRO_KERNEL",
    )
    parser.add_argument("--top", type=int, default=10, help="number of top vertices to print")
    parser.add_argument("--output", default=None, help="write the full result as JSON")
    parser.add_argument("--csv", default=None, help="write per-vertex scores as CSV")
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="parse text inputs directly instead of auto-converting them into "
        "the binary graph cache ($REPRO_GRAPH_CACHE)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-phase/per-epoch progress to stderr while running",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered backends with their capabilities and exit",
    )
    parser.add_argument(
        "--list-kernels",
        action="store_true",
        help="list the registered sampling kernels (ABI registry) and exit",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def build_convert_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness convert",
        description="Convert a text graph (edge list or METIS) to the binary "
        ".rcsr store, streaming it out of core.",
    )
    parser.add_argument("input", help="source graph file (edge list, .gz, or METIS)")
    parser.add_argument(
        "output",
        nargs="?",
        default=None,
        help="destination .rcsr path (default: the graph cache directory)",
    )
    parser.add_argument(
        "--format",
        choices=("auto", "edgelist", "metis"),
        default="auto",
        help="input format (default: sniffed from the file suffix)",
    )
    parser.add_argument(
        "--chunk-bytes",
        type=int,
        default=None,
        help="streaming parse chunk size in bytes (default 16 MiB)",
    )
    parser.add_argument(
        "--force", action="store_true", help="re-convert even if a fresh cached conversion exists"
    )
    parser.epilog = (
        "The on-disk container format and the conversion pipeline are "
        "documented in docs/formats.md."
    )
    return parser


def build_info_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness info",
        description="Show the cached metadata sidecar of a stored graph "
        "(vertices, edges, max degree, components, diameter estimate, checksum), "
        "computing it first if necessary.  Text inputs are converted on first touch.",
    )
    parser.add_argument("graph", help=".rcsr file, text graph file, or registered dataset name")
    parser.add_argument("--json", action="store_true", help="emit the sidecar as JSON")
    parser.epilog = "The sidecar fields are documented in docs/formats.md."
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness serve",
        description="Start the cached betweenness query service: JSON-over-HTTP "
        "queries, an asyncio job queue with in-flight deduplication, and a "
        "persistent dominance-aware result cache (a cached run at tighter "
        "eps/delta on the same graph answers looser requests in O(ms)).",
        epilog="Endpoints, request/response JSON and the reuse semantics are "
        "documented in docs/serving.md.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8321, help="bind port (default 8321; 0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="concurrent estimation workers (default 1)"
    )
    parser.add_argument(
        "--worker-mode",
        choices=("process", "thread"),
        default="process",
        help="run estimations in a process pool (default; sampling is CPU-bound) "
        "or a thread pool",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="sampling threads per estimation (Resources.threads, default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_RESULT_CACHE or "
        "'results' next to the graph cache)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="durable job-store SQLite file (default: jobs.sqlite3 in the "
        "result-cache directory); share it between coordinators and workers",
    )
    parser.add_argument(
        "--dispatch",
        choices=("pool", "external"),
        default="pool",
        help="run estimations in this process's worker pool (default) or only "
        "enqueue them for separate 'repro-betweenness worker' processes",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-tenant cap on live (queued+running) jobs; over it -> HTTP 429",
    )
    parser.add_argument(
        "--max-queued",
        type=int,
        default=None,
        help="per-tenant cap on queued jobs; over it -> HTTP 429",
    )
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness query",
        description="Ask a running betweenness service (see 'serve') for the "
        "top-k vertices of a graph.  Identical and dominated requests are "
        "served from the service's result cache without sampling.",
        epilog="The JSON request/response schema is documented in docs/serving.md.",
    )
    parser.add_argument("graph", help="graph name or path, resolved by the *service*")
    parser.add_argument("--eps", type=float, default=0.01, help="absolute error bound (default 0.01)")
    parser.add_argument("--delta", type=float, default=0.1, help="failure probability (default 0.1)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "--algorithm",
        choices=[AUTO, *backend_names()],
        default=AUTO,
        help="backend to request (default: auto)",
    )
    parser.add_argument("--top", type=int, default=10, help="number of top vertices (default 10)")
    parser.add_argument("--host", default="127.0.0.1", help="service host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321, help="service port (default 8321)")
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="submit the job and poll its progress instead of one blocking request",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="client timeout in seconds (default 600)"
    )
    parser.add_argument("--json", action="store_true", help="print the raw JSON response")
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness cache",
        description="Inspect or evict the service's on-disk result cache "
        "(works directly on the cache directory; no running service needed).",
        epilog="The cache layout (one directory per graph checksum, meta + "
        "result JSON per entry) is documented in docs/serving.md.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    ls = sub.add_parser("ls", help="list cached results")
    ls.add_argument("--json", action="store_true", help="emit entries as JSON")
    ls.add_argument(
        "--cache-dir", default=None, help="result-cache directory (default: see 'serve')"
    )
    evict = sub.add_parser("evict", help="remove cached results")
    evict.add_argument(
        "--graph", default=None, help="evict entries of one graph (name or path)"
    )
    evict.add_argument("--key", default=None, help="evict one entry by its key")
    evict.add_argument("--all", action="store_true", help="clear the whole cache")
    evict.add_argument(
        "--cache-dir", default=None, help="result-cache directory (default: see 'serve')"
    )
    return parser


def build_session_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness session",
        description="Resumable estimation sessions: run with a checkpoint, "
        "refine a checkpoint to a tighter guarantee by drawing only the "
        "additional samples, or inspect a snapshot file.",
        epilog="Refinement is bit-identical to a fresh run at the tighter "
        "target for the same seed; semantics and a worked example are in "
        "docs/sessions.md.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    run = sub.add_parser("run", help="estimate and write a session checkpoint")
    run.add_argument("graph", help="edge-list file, .rcsr store, or dataset name")
    run.add_argument("--eps", type=float, default=0.01, help="absolute error bound (default 0.01)")
    run.add_argument("--delta", type=float, default=0.1, help="failure probability (default 0.1)")
    run.add_argument("--seed", type=int, default=None, help="RNG seed (pin it to make later refines deterministic)")
    run.add_argument("--checkpoint", required=True, help="where to write the session snapshot")
    run.add_argument("--top", type=int, default=10, help="number of top vertices to print")
    run.add_argument("--output", default=None, help="write the full result as JSON")
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="parse text inputs directly instead of the binary graph cache",
    )

    refine = sub.add_parser(
        "refine", help="restore a checkpoint and tighten its guarantee"
    )
    refine.add_argument("snapshot", help="session snapshot written by 'session run'")
    refine.add_argument("--eps", type=float, default=None, help="new absolute error bound (default: keep)")
    refine.add_argument("--delta", type=float, default=None, help="new failure probability (default: keep)")
    refine.add_argument(
        "--graph",
        default=None,
        help="graph to resume against (default: the source recorded in the snapshot)",
    )
    refine.add_argument(
        "--checkpoint",
        default=None,
        help="write the refined session back to this snapshot (may equal the input)",
    )
    refine.add_argument("--top", type=int, default=10, help="number of top vertices to print")
    refine.add_argument("--output", default=None, help="write the full result as JSON")

    inspect = sub.add_parser(
        "checkpoint", help="describe a snapshot file (no sampling, no graph load)"
    )
    inspect.add_argument("snapshot", help="session snapshot file")
    inspect.add_argument("--json", action="store_true", help="emit the metadata as JSON")
    return parser


def build_evolve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness evolve",
        description="Evolving graphs: apply an edge delta to a stored graph "
        "(producing a versioned child with a lineage record), or carry a "
        "session checkpoint across a delta — re-sampling only the shortest "
        "paths the mutation invalidated and re-certifying the guarantee.",
        epilog="The delta JSON format, the invalidation test and a worked "
        "example are in docs/evolving.md.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    apply_p = sub.add_parser(
        "apply", help="apply a delta file to a stored graph, with lineage"
    )
    apply_p.add_argument("graph", help=".rcsr store file or registered dataset name")
    apply_p.add_argument(
        "--delta-file",
        required=True,
        help='delta JSON: {"version": 1, "insert": [[u, v], ...], "delete": [...]}',
    )
    apply_p.add_argument(
        "--output", default=None, help="child .rcsr path (default: the graph cache)"
    )
    apply_p.add_argument(
        "--name", default=None, help="register the child under this catalog name"
    )

    run = sub.add_parser(
        "run", help="update a session checkpoint onto the mutated graph"
    )
    run.add_argument("graph", help="the *mutated* graph: .rcsr file or dataset name")
    run.add_argument(
        "--snapshot", required=True, help="parent session checkpoint to update from"
    )
    run.add_argument(
        "--delta-file",
        default=None,
        help="delta JSON connecting parent to graph (default: the catalog's "
        "lineage record for the mutated graph)",
    )
    run.add_argument("--eps", type=float, default=None, help="re-certification error bound (default: keep the checkpoint's)")
    run.add_argument("--delta", type=float, default=None, help="re-certification failure probability (default: keep)")
    run.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="invalidation-fraction ceiling before refusing to update (default 0.5)",
    )
    run.add_argument(
        "--checkpoint", default=None, help="write the updated session to this snapshot"
    )
    run.add_argument("--top", type=int, default=10, help="number of top vertices to print")
    run.add_argument("--output", default=None, help="write the full result as JSON")
    return parser


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness obs",
        description="Pretty-print a phase trace as a per-phase time breakdown. "
        "Accepts a JSONL trace file written via $REPRO_TRACE (one span tree "
        "per line) or a result JSON whose extra.trace carries the facade's "
        "trace summary.",
        epilog="Tracing and the span tree format are described in "
        "docs/observability.md.",
    )
    parser.add_argument("file", help="JSONL trace file or result JSON")
    parser.add_argument(
        "--json", action="store_true", help="emit the aggregated breakdown as JSON"
    )
    parser.add_argument(
        "--limit", type=int, default=0, help="show only the N slowest phases (0 = all)"
    )
    return parser


def build_dist_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-betweenness dist",
        description="Real multi-process distributed estimation over the socket "
        "transport: 'run' forks N local worker processes against a rank-0 "
        "rendezvous hub (partitioning the graph into per-rank .rcsr shards "
        "first); 'worker' is one rank, started by hand or by mpirun "
        "for multi-host deployments.",
        epilog="The launcher, rendezvous, shard layout and fault recovery are "
        "documented in docs/distributed.md.",
    )
    actions = parser.add_subparsers(dest="action", required=True)

    run = actions.add_parser("run", help="fork and monitor a local worker world")
    run.add_argument("graph", help=".rcsr file, text graph file, or registered dataset name")
    run.add_argument("--processes", type=int, default=2, help="worker processes (default 2)")
    run.add_argument(
        "--parts",
        type=int,
        default=None,
        help="partition the graph into K shards; each rank maps only shard rank%%K "
        "(default: no partitioning, every rank maps the full graph)",
    )
    run.add_argument("--algorithm", choices=("epoch", "mpi-only"), default="epoch")
    run.add_argument("--threads", type=int, default=1, help="sampling threads per process")
    run.add_argument("--eps", type=float, default=0.05)
    run.add_argument("--delta", type=float, default=0.1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples-per-check", type=int, default=1000)
    run.add_argument("--calibration-samples", type=int, default=None)
    run.add_argument("--max-samples", type=int, default=None)
    run.add_argument("--max-epochs", type=int, default=None)
    run.add_argument("--checkpoint", default=None, help="epoch-boundary checkpoint file (.snap)")
    run.add_argument("--checkpoint-every", type=int, default=1, help="epochs between checkpoints")
    run.add_argument("--max-restarts", type=int, default=2, help="crash-resume budget")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=None, help="hub port (default: ephemeral)")
    run.add_argument("--timeout", type=float, default=600.0, help="overall wall-clock bound (s)")
    run.add_argument("--output", default=None, help="merged result JSON path")
    run.add_argument("--top", type=int, default=5, help="print the top-K vertices (0 = none)")

    worker = actions.add_parser("worker", help="run one rank (on another host, or under mpirun)")
    worker.add_argument("--graph", required=True, help=".rcsr container path")
    worker.add_argument("--rank", type=int, required=True)
    worker.add_argument("--size", type=int, required=True)
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0, help="rank-0 hub port")
    worker.add_argument("--connect", default=None, help="host:port of a remote hub")
    worker.add_argument("--parts", type=int, default=None)
    worker.add_argument("--algorithm", choices=("epoch", "mpi-only"), default="epoch")
    worker.add_argument("--threads", type=int, default=1)
    worker.add_argument("--eps", type=float, default=0.05)
    worker.add_argument("--delta", type=float, default=0.1)
    worker.add_argument("--seed", type=int, default=None)
    worker.add_argument("--samples-per-check", type=int, default=1000)
    worker.add_argument("--calibration-samples", type=int, default=None)
    worker.add_argument("--max-samples", type=int, default=None)
    worker.add_argument("--max-epochs", type=int, default=None)
    worker.add_argument("--checkpoint", default=None)
    worker.add_argument("--checkpoint-every", type=int, default=1)
    worker.add_argument("--resume", action="store_true")
    worker.add_argument("--timeout", type=float, default=60.0)
    worker.add_argument("--output", default=None, help="rank-0 result JSON path")
    return parser


def _cmd_dist(argv: list) -> int:
    args = build_dist_parser().parse_args(argv)

    if args.action == "worker":
        from repro.dist.driver import DistWorkerConfig, run_worker

        return run_worker(DistWorkerConfig.from_args(args))

    # ---- dist run --------------------------------------------------------- #
    from repro.dist.launcher import LaunchError, launch_local
    from repro.store import GraphCatalog, StoreFormatError

    try:
        rcsr_path = GraphCatalog().resolve(args.graph)
    except (OSError, StoreFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        result = launch_local(
            str(rcsr_path),
            processes=args.processes,
            parts=args.parts,
            algorithm=args.algorithm,
            threads=args.threads,
            eps=args.eps,
            delta=args.delta,
            seed=args.seed,
            samples_per_check=args.samples_per_check,
            calibration_samples=args.calibration_samples,
            max_samples=args.max_samples,
            max_epochs=args.max_epochs,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            max_restarts=args.max_restarts,
            host=args.host,
            port=args.port,
            result_path=args.output,
            timeout=args.timeout,
        )
    except LaunchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    print(
        f"distributed run: {result['num_processes']} processes x "
        f"{result['threads_per_process']} threads, algorithm={result['algorithm']}"
        + (f", {result['parts']} shards" if result.get("parts") else "")
    )
    print(
        f"samples: {result['num_samples']} in {result['num_epochs']} epochs "
        f"(omega {result['omega']}, n0 {result['samples_per_epoch_n0']:.0f})"
    )
    print(
        f"throughput: {result['aggregate_samples_per_sec']:.0f} samples/s aggregate; "
        f"communication: {result['communication_bytes']} bytes; "
        f"restarts: {result['restarts']}; wall: {elapsed:.2f} s"
    )
    phases = result["phase_seconds"]
    ads = ", ".join(f"{k[4:]} {v:.3f}" for k, v in phases.items() if k.startswith("ads_"))
    print(
        f"phases at rank 0 (s): diameter {phases.get('diameter', 0.0):.3f}, "
        f"calibration {phases.get('calibration', 0.0):.3f}, "
        f"adaptive {phases.get('adaptive_sampling', 0.0):.3f} ({ads})"
    )
    if result.get("resumed_from_samples"):
        print(
            f"resumed from checkpoint: epoch {result['resumed_from_epoch']}, "
            f"{result['resumed_from_samples']} samples carried over"
        )
    if args.top:
        scores = result["scores"]
        order = sorted(range(len(scores)), key=lambda v: -scores[v])[: args.top]
        print("top vertices:")
        for v in order:
            print(f"  {v:>8d}  {scores[v]:.6f}")
    return 0


def _load_trace_breakdown(path: Path) -> Tuple[dict, int, float]:
    """Parse a trace file into ``(phases, num_spans, total_seconds)``.

    ``total_seconds`` sums the root spans only (children are contained in
    their roots); a result JSON contributes its recorded summary instead.
    """
    from repro.obs.trace import summarize

    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "children" not in payload and (
        "extra" in payload or "trace" in payload
    ):
        # A result JSON (or a bare summary): the summary the facade stores.
        summary = payload.get("trace") or payload.get("extra", {}).get("trace")
        if not isinstance(summary, dict):
            raise ValueError(f"{path} carries no extra.trace summary (traced run?)")
        summaries = [summary]
    else:
        # JSONL: one span tree per line (a single span dict is one-line JSONL).
        summaries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                node = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
            if not isinstance(node, dict) or "name" not in node:
                raise ValueError(f"{path}:{lineno}: not a span object")
            summaries.append(summarize(node))
        if not summaries:
            raise ValueError(f"{path} contains no spans")
    phases: dict = {}
    num_spans = 0
    total = 0.0
    for summary in summaries:
        root = str(summary.get("name", "estimate"))
        seconds = float(summary.get("seconds", 0.0))
        sub_phases = summary.get("phases") or {}
        total += seconds
        num_spans += int(summary.get("num_spans", 1 + len(sub_phases)))
        phases[root] = phases.get(root, 0.0) + seconds
        for sub, value in sub_phases.items():
            key = f"{root}.{sub}"
            phases[key] = phases.get(key, 0.0) + float(value)
    return phases, num_spans, total


def _cmd_obs(argv: list) -> int:
    args = build_obs_parser().parse_args(argv)
    path = Path(args.file)
    try:
        phases, num_spans, total = _load_trace_breakdown(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = sorted(phases.items(), key=lambda kv: kv[1], reverse=True)
    if args.limit and args.limit > 0:
        rows = rows[: args.limit]
    if args.json:
        print(
            json.dumps(
                {
                    "file": str(path),
                    "num_spans": num_spans,
                    "total_seconds": round(total, 9),
                    "phases": {k: round(v, 9) for k, v in rows},
                },
                indent=2,
            )
        )
        return 0
    print(f"trace: {path} — {num_spans} span(s), {total:.3f} s total")
    width = max((len(name) for name, _ in rows), default=5)
    print(f"{'phase'.ljust(width)}  {'seconds':>10}  {'share':>6}")
    for name, seconds in rows:
        share = f"{seconds / total:6.1%}" if total > 0 else "   n/a"
        print(f"{name.ljust(width)}  {seconds:10.4f}  {share}")
    return 0


def _progress_printer(event) -> None:
    budget = f"/{event.omega}" if event.omega is not None else ""
    print(
        f"[{event.backend}] {event.phase}: epoch {event.epoch}, "
        f"samples {event.num_samples}{budget}",
        file=sys.stderr,
    )


def _cmd_convert(argv: list) -> int:
    from repro.store import GraphCatalog, StoreFormatError

    args = build_convert_parser().parse_args(argv)
    if not Path(args.input).exists():
        print(f"error: graph file not found: {args.input}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.chunk_bytes is not None:
        kwargs["chunk_bytes"] = args.chunk_bytes
    catalog = GraphCatalog()
    start = time.perf_counter()
    try:
        report = catalog.convert(args.input, args.output, force=args.force, fmt=args.format, **kwargs)
    except (OSError, ValueError, StoreFormatError) as exc:
        print(f"error: cannot convert {args.input}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    action = "cached" if report.cache_hit else "converted"
    print(f"{action}: {report.source} -> {report.dest}")
    print(
        f"graph: {report.num_vertices} vertices, {report.num_edges} edges "
        f"(indices dtype {report.indices_dtype}, {report.output_bytes} bytes)"
    )
    print(f"elapsed: {elapsed:.2f} s")
    return 0


def _cmd_info(argv: list) -> int:
    from repro.kernels import compiled, describe_routing
    from repro.store import GraphCatalog, StoreFormatError, open_rcsr

    args = build_info_parser().parse_args(argv)
    catalog = GraphCatalog()
    try:
        info = catalog.info(args.graph)
        routing = None if args.json else describe_routing(open_rcsr(info.path))
    except (OSError, StoreFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(info.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"name:              {info.name}")
    print(f"store:             {info.path}")
    if info.source:
        print(f"source:            {info.source}")
    print(f"vertices:          {info.num_vertices}")
    print(f"edges:             {info.num_edges}")
    print(f"max degree:        {info.max_degree}")
    print(f"components:        {info.num_components}")
    print(f"diameter estimate: {info.diameter_estimate}")
    print(f"checksum:          {info.checksum}")
    line = f"kernel routing:    {routing['effective']}"
    if routing["effective"] != routing["auto"]:
        line += f" (auto would pick {routing['auto']}; $REPRO_KERNEL={routing['env']})"
    print(line)
    print(compiled.describe())
    from repro.store.partition import find_manifests, format_placement

    for manifest in find_manifests(info.path):
        for placement_line in format_placement(manifest):
            print(placement_line)
    return 0


def _cmd_serve(argv: list) -> int:
    from repro.service import TenantQuota, run_server

    args = build_serve_parser().parse_args(argv)
    if args.workers <= 0:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    try:
        resources = Resources(threads=args.threads)
        quota = TenantQuota(max_inflight=args.max_inflight, max_queued=args.max_queued)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_server(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        store=args.store,
        dispatch=args.dispatch,
        quota=quota,
        worker_mode=args.worker_mode,
        max_workers=args.workers,
        resources=resources,
    )
    return 0


def _cmd_worker(argv: list) -> int:
    # 'repro-betweenness worker' is the same program as
    # 'python -m repro.service.worker'; see that module for the pull loop.
    from repro.service.worker import main as worker_main

    return worker_main(argv)


def _print_query_result(payload: dict, top: int) -> None:
    result = payload["result"]
    if payload.get("served_from_cache"):
        origin = "result cache"
    elif payload.get("refined_from"):
        origin = "cached checkpoint, refined"
    elif payload.get("updated_from"):
        origin = f"parent checkpoint {payload['updated_from']}, updated"
    else:
        origin = "fresh run"
    print(
        f"graph checksum: {payload.get('graph_checksum')} (served from {origin})"
    )
    print(
        f"algorithm: {result.get('backend')}, eps={result.get('eps')}, "
        f"delta={result.get('delta')}"
    )
    if result.get("num_samples"):
        line = (
            f"samples: {result['num_samples']} (omega={result.get('omega')}), "
            f"epochs: {result.get('num_epochs')}"
        )
        if result.get("samples_reused"):
            line += (
                f", {result.get('samples_drawn')} drawn + "
                f"{result.get('samples_reused')} reused"
            )
        if result.get("samples_invalidated"):
            line += f", {result['samples_invalidated']} invalidated"
        print(line)
    print(f"top-{top} vertices:")
    for vertex, score in result.get("top", []):
        print(f"  {int(vertex):10d}  {score:.6f}")


def _cmd_query(argv: list) -> int:
    from repro.service import ServiceClient, ServiceError

    args = build_query_parser().parse_args(argv)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    fields = {
        "graph": args.graph,
        "eps": args.eps,
        "delta": args.delta,
        "k": args.top,
        "algorithm": args.algorithm,
        "wait": not args.no_wait,
    }
    if args.seed is not None:
        fields["seed"] = args.seed
    try:
        payload = client.query(**fields)
        if args.no_wait and payload.get("job_id") and payload.get("status") != "done":
            print(f"job {payload['job_id']} submitted; polling...", file=sys.stderr)

            def on_progress(event: dict) -> None:
                budget = f"/{event['omega']}" if event.get("omega") is not None else ""
                print(
                    f"[{event.get('backend')}] {event.get('phase')}: "
                    f"epoch {event.get('epoch')}, samples {event.get('num_samples')}{budget}",
                    file=sys.stderr,
                )

            status = client.wait_for_job(
                payload["job_id"], timeout=args.timeout, on_progress=on_progress
            )
            if status.get("status") == "error":
                print(f"error: job failed: {status.get('error')}", file=sys.stderr)
                return 1
            payload = status
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_query_result(payload, args.top)
    return 0


def _cmd_cache(argv: list) -> int:
    from repro.service import ResultCache
    from repro.store import GraphCatalog

    args = build_cache_parser().parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.action == "ls":
        entries = cache.entries()
        if args.json:
            print(json.dumps([e.as_dict() for e in entries], indent=2, sort_keys=True))
            return 0
        print(f"result cache: {cache.cache_dir} ({len(entries)} entries)")
        for e in entries:
            accuracy = (
                "exact" if e.family == "exact" else f"eps={e.eps:g} delta={e.delta:g}"
            )
            print(
                f"  {e.key}  {e.graph_checksum}  {e.algorithm:<15s} {accuracy:<22s} "
                f"n={e.num_vertices} samples={e.num_samples}  ({e.graph})"
            )
        return 0
    # action == "evict"
    if args.graph is None and args.key is None and not args.all:
        print("error: specify --graph, --key, or --all", file=sys.stderr)
        return 2
    if args.graph is not None:
        # Never convert just to evict: match by the already-stored checksum
        # when one exists, and by the recorded request string otherwise.
        checksum = GraphCatalog().cached_checksum(args.graph)
        removed = 0
        for entry in cache.entries():
            if entry.graph != args.graph and entry.graph_checksum != checksum:
                continue
            if args.key is not None and entry.key != args.key:
                continue
            removed += cache.evict(entry.graph_checksum, key=entry.key)
    else:
        removed = cache.evict(key=args.key)
    print(f"evicted {removed} cached result(s)")
    return 0


def _print_session_result(result, session, top: int) -> None:
    print(f"algorithm: {session.algorithm}, eps={result.eps}, delta={result.delta}")
    print(_samples_line(result))
    print(f"top-{top} vertices (peeked confidence half-widths):")
    peek = session.peek()
    for vertex, score in result.top_k(top):
        low = peek.half_width_lower[vertex]
        up = peek.half_width_upper[vertex]
        print(f"  {vertex:10d}  {score:.6f}  (-{low:.6f}/+{up:.6f})")


def _samples_line(result) -> str:
    line = f"samples: {result.num_samples} (omega={result.omega})"
    if result.samples_reused:
        line += (
            f", {result.samples_drawn} drawn + {result.samples_reused} reused "
            f"from the session"
        )
    if getattr(result, "samples_invalidated", 0):
        line += f" ({result.samples_invalidated} invalidated by the delta)"
    return line


def _cmd_session(argv: list) -> int:
    from repro.session import (
        EstimationSession,
        SessionCapabilityError,
        SnapshotError,
        open_session,
        read_snapshot_meta,
    )
    from repro.store import StoreFormatError

    args = build_session_parser().parse_args(argv)

    if args.action == "checkpoint":
        try:
            meta = read_snapshot_meta(args.snapshot)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(meta, indent=2, sort_keys=True))
            return 0
        graph_id = meta.get("graph", {})
        achieved = meta.get("achieved", {})
        frame = meta.get("frame", {})
        calibration = meta.get("calibration", {})
        options = meta.get("options", {})
        print(f"snapshot:          {args.snapshot}")
        print(f"graph:             {graph_id.get('source_path') or '<in-memory>'}")
        print(
            f"vertices/edges:    {graph_id.get('num_vertices')} / {graph_id.get('num_edges')}"
        )
        if graph_id.get("checksum"):
            print(f"graph checksum:    {graph_id['checksum']}")
        print(f"certified:         eps={achieved.get('eps')} delta={achieved.get('delta')}")
        print(
            f"samples:           {frame.get('num_samples')} "
            f"(omega={meta.get('omega')}, calibration={calibration.get('num_samples')})"
        )
        print(f"seed:              {options.get('seed')}")
        return 0

    if args.action == "run":
        try:
            graph, num_components = _load_cli_graph(args.graph, use_cache=not args.no_cache)
        except (OSError, ValueError, StoreFormatError) as exc:
            print(f"error: cannot read graph {args.graph}: {exc}", file=sys.stderr)
            return 2
        if num_components is not None and num_components > 1:
            graph = largest_connected_component(graph)
        try:
            session = open_session(graph, algorithm="sequential", seed=args.seed)
            start = time.perf_counter()
            result = session.run(args.eps, args.delta)
            elapsed = time.perf_counter() - start
            session.checkpoint(args.checkpoint)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
        _print_session_result(result, session, args.top)
        print(f"wall-clock time: {elapsed:.2f} s")
        print(f"checkpoint written to {args.checkpoint}")
        if args.output:
            save_result(result, args.output)
            print(f"result written to {args.output}")
        return 0

    # action == "refine"
    graph = None
    if args.graph is not None:
        try:
            graph, _ = _load_cli_graph(args.graph, use_cache=True)
        except (OSError, ValueError, StoreFormatError) as exc:
            print(f"error: cannot read graph {args.graph}: {exc}", file=sys.stderr)
            return 2
    try:
        session = EstimationSession.restore(args.snapshot, graph=graph)
    except (SnapshotError, OSError, StoreFormatError) as exc:
        print(f"error: cannot restore {args.snapshot}: {exc}", file=sys.stderr)
        return 2
    try:
        start = time.perf_counter()
        result = session.refine(args.eps, args.delta)
        elapsed = time.perf_counter() - start
    except (ValueError, SessionCapabilityError) as exc:  # a parallel checkpoint refuses refine
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint is not None:
        session.checkpoint(args.checkpoint)
    _print_session_result(result, session, args.top)
    print(f"wall-clock time: {elapsed:.2f} s")
    if args.checkpoint is not None:
        print(f"refined checkpoint written to {args.checkpoint}")
    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    return 0


def _cmd_evolve(argv: list) -> int:
    from repro.evolve import EvolveError, update_session
    from repro.session import SnapshotError
    from repro.store import (
        DeltaError,
        GraphCatalog,
        GraphDelta,
        StoreFormatError,
        open_rcsr,
    )

    args = build_evolve_parser().parse_args(argv)
    catalog = GraphCatalog()

    if args.action == "apply":
        try:
            graph_delta = GraphDelta.load(args.delta_file)
        except (OSError, DeltaError) as exc:
            print(f"error: cannot read delta {args.delta_file}: {exc}", file=sys.stderr)
            return 2
        try:
            child_path = catalog.apply_delta(
                args.graph, graph_delta, name=args.name, output=args.output
            )
        except (OSError, DeltaError, StoreFormatError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        child_checksum = catalog.checksum(child_path)
        record = catalog.lineage(child_checksum) or {}
        print(f"child graph:     {child_path}")
        print(f"child checksum:  {child_checksum}")
        print(f"parent checksum: {record.get('parent_checksum')}")
        print(
            f"delta:           +{graph_delta.num_insertions} edge(s), "
            f"-{graph_delta.num_deletions} edge(s)"
        )
        if args.name:
            print(f"registered as:   {args.name}")
        return 0

    # action == "run"
    try:
        child_path = catalog.resolve(args.graph)
        graph = open_rcsr(child_path)
    except (OSError, StoreFormatError, FileNotFoundError) as exc:
        print(f"error: cannot read graph {args.graph}: {exc}", file=sys.stderr)
        return 2
    if args.delta_file is not None:
        try:
            graph_delta = GraphDelta.load(args.delta_file)
        except (OSError, DeltaError) as exc:
            print(f"error: cannot read delta {args.delta_file}: {exc}", file=sys.stderr)
            return 2
    else:
        record = catalog.lineage(catalog.checksum(child_path))
        if record is None:
            print(
                f"error: no lineage record for {args.graph}; pass --delta-file "
                f"(or derive the graph via 'evolve apply')",
                file=sys.stderr,
            )
            return 2
        graph_delta = GraphDelta.from_dict(record["delta"])
    try:
        start = time.perf_counter()
        session, report = update_session(
            args.snapshot,
            graph,
            graph_delta,
            eps=args.eps,
            delta=args.delta,
            threshold=args.threshold,
        )
        elapsed = time.perf_counter() - start
    except (SnapshotError, DeltaError, EvolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report.result
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(
        f"update: {report.samples_invalidated}/{report.parent_samples} parent "
        f"samples invalidated ({report.invalidated_fraction:.1%}, "
        f"threshold {report.threshold:.0%}), {report.num_bfs} BFS"
    )
    _print_session_result(result, session, args.top)
    print(f"wall-clock time: {elapsed:.2f} s")
    if args.checkpoint is not None:
        session.checkpoint(args.checkpoint)
        print(f"updated checkpoint written to {args.checkpoint}")
    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    return 0


def _load_cli_graph(spec: str, *, use_cache: bool) -> Tuple[CSRGraph, Optional[int]]:
    """Load the graph for the estimation command.

    Returns the graph and, when known from catalog metadata, its component
    count (so a connected stored graph skips the largest-component copy and
    stays memory-mapped).
    """
    from repro.store import GraphCatalog, open_rcsr

    path = Path(spec)
    if path.exists() and path.suffix != ".rcsr" and not use_cache:
        return read_edge_list(path), None
    catalog = GraphCatalog()
    rcsr_path = catalog.resolve(spec)
    # Only read an existing, still-valid sidecar: an .rcsr without one must
    # not pay for whole-graph statistics just to maybe skip the LCC pass.
    info = catalog.cached_info(rcsr_path)
    return open_rcsr(rcsr_path), info.num_components if info is not None else None


def main(argv: Optional[Iterable[str]] = None) -> int:
    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw and raw[0] in SUBCOMMANDS:
        dispatch = {
            "convert": _cmd_convert,
            "info": _cmd_info,
            "serve": _cmd_serve,
            "worker": _cmd_worker,
            "query": _cmd_query,
            "cache": _cmd_cache,
            "session": _cmd_session,
            "evolve": _cmd_evolve,
            "obs": _cmd_obs,
            "dist": _cmd_dist,
        }
        return dispatch[raw[0]](raw[1:])

    parser = build_parser()
    args = parser.parse_args(raw)

    if args.list_backends:
        from repro.dist.transports import format_transport_table

        print(format_backend_table())
        print()
        print(format_transport_table())
        return 0
    if args.list_kernels:
        from repro.kernels import format_kernel_table

        print(format_kernel_table())
        return 0
    if args.graph is None:
        print("error: the graph argument is required (or use --list-backends)", file=sys.stderr)
        return 2

    # Validate the resource configuration before paying the graph-load cost.
    try:
        resources = Resources(processes=args.processes, threads=args.threads, kernel=args.kernel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.store import StoreFormatError

    try:
        graph, num_components = _load_cli_graph(args.graph, use_cache=not args.no_cache)
    except (OSError, ValueError, StoreFormatError) as exc:
        print(f"error: cannot read graph {args.graph}: {exc}", file=sys.stderr)
        return 2
    if num_components is None or num_components > 1:
        graph = largest_connected_component(graph)

    start = time.perf_counter()
    result = estimate_betweenness(
        graph,
        algorithm=args.algorithm,
        eps=args.eps,
        delta=args.delta,
        seed=args.seed,
        resources=resources,
        callbacks=_progress_printer if args.progress else None,
    )
    elapsed = time.perf_counter() - start

    mapped = " [memory-mapped]" if graph.is_memory_mapped else ""
    print(
        f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges "
        f"(largest component){mapped}"
    )
    print(f"algorithm: {result.backend}, eps={result.eps}, delta={result.delta}")
    if result.num_samples:
        print(f"{_samples_line(result)}, epochs: {result.num_epochs}")
    print(f"wall-clock time: {elapsed:.2f} s")
    print(f"top-{args.top} vertices:")
    for vertex, score in result.top_k(args.top):
        print(f"  {vertex:10d}  {score:.6f}")

    if args.output:
        save_result(result, args.output)
        print(f"result written to {args.output}")
    if args.csv:
        save_scores_csv(result, args.csv)
        print(f"scores written to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
