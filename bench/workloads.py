"""The two workloads and the operations every run pushes them through.

A workload is one seeded graph.  Every run measures the same four
user-visible operations on it, round after round until ``--seconds`` are used
up, so each metric's samples are spread over the whole run:

* **seq** - ``estimate_betweenness(g, algorithm="sequential")`` in process;
* **dist** - ``repro.dist.launcher.launch_local`` with two real rank
  processes, each mapping the whole graph;
* **cold query** / **cached query** - closed-loop HTTP queries, one client,
  against ``BetweennessService`` on a seeded 300-vertex social graph.

The traced run (``ladder.py``) adds the configurations that only have
per-layer metrics: P=1 and sharded launches, externally dispatched queries, a
two-client burst.

Every end-to-end time is **speed-corrected**: the machine this runs on
changes speed by 10-50% for stretches of seconds to minutes, so a fixed
reference computation is timed before and after every operation
(:class:`SpeedProbe`) and the operation's wall time is divided by how much
slower than nominal the reference ran.  Raw wall times are kept beside the
corrected ones in the result file.

Everything here times calls into public functions of ``repro`` from outside;
no file of the program is touched.
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

DELTA = 0.1
#: Set-up is repeated and the median reported, so one slow fork does not
#: decide ``setup_s``.
SETUP_REPEATS = 5
#: Query slices in one round and queries in a slice; the reference
#: computation is timed around every slice (a round is about six seconds).
SLICES_PER_ROUND = 2
COLD_PER_SLICE = 6
CACHED_PER_SLICE = 80
#: Seconds :meth:`SpeedProbe.sample` takes on the two-core sandbox this was
#: built on while the host is quiet; corrected times are times at that speed.
REFERENCE_NOMINAL_S = 0.024
#: Vertices of the graph behind the service (the size of
#: ``examples/data/example-social.txt``): small enough that a query is mostly
#: service work, not sampling.
SOCIAL_VERTICES = 300
#: ``--quick`` runs every path to this loose target on tiny graphs.
QUICK_EPS = 0.15
#: Target of the small-graph check against exact Brandes scores.
CHECK_EPS = 0.05
SERVICE_QUERY = {"eps": 0.05, "delta": DELTA, "k": 5, "algorithm": "sequential"}
DOMINATED_QUERY = {"eps": 0.1, "delta": 0.2, "k": 5, "algorithm": "sequential", "seed": None}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``generator(size, seed)`` and the three sizes it is called with: the
    #: graph of the seq and dist operations, the graph of the traced run's
    #: sharded launch, and the companion graph small enough for exact Brandes
    #: scores.
    generator: Callable[[int, int], object]
    full_size: int
    shard_size: int
    small_size: int
    #: Diameter bound the nominal eps values refer to; a seed whose graph has
    #: another bound gets its eps rescaled so omega (the sample budget) is the
    #: same for every seed.
    nominal_vertex_diameter: int
    seq_eps: float
    #: Tighter than ``seq_eps`` so the adaptive phase of a two-rank launch, the
    #: only part ``dist_p2_samples_per_s`` covers, lasts over a second.
    dist_eps: float
    samples_per_check: int
    #: Sample cap of the traced run's sharded launch.
    sharded_samples: int
    #: Samples of the traced ladder's sampler rung (about half a second of the
    #: routed kernel).
    rung_samples: int

    def graph(self, size: str, seed: int, quick: bool = False):
        """``size`` is "full", "shard" or "small"; ``--quick`` makes everything small."""
        return self.generator(self.small_size if quick else getattr(self, f"{size}_size"), seed)


def _rmat(scale: int, seed: int):
    from repro.graph.components import largest_connected_component
    from repro.graph.generators import rmat_graph

    return largest_connected_component(rmat_graph(scale, edge_factor=8, seed=seed))


def _road(side: int, seed: int):
    from repro.graph.generators import road_network_graph

    return road_network_graph(side, side, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rmat",
            why="Low-diameter R-MAT graph (~40k vertices, ~476k edges): samples are cheap and "
            "every run stops at omega, so the diameter phase and per-sample fixed cost "
            "(planning, record_batch, stopping checks) have their largest share here.",
            generator=_rmat,
            full_size=16,
            shard_size=12,
            small_size=9,
            nominal_vertex_diameter=9,
            seq_eps=0.035,
            dist_eps=0.028,
            samples_per_check=1000,
            sharded_samples=200,
            rung_samples=1024,
        ),
        Workload(
            name="road",
            why="High-diameter road network (~22k vertices), the paper's hard case: over 85% "
            "of the time is BFS inside the kernels and fixed overheads are negligible; "
            "kernel changes show here first and planning changes do not.",
            generator=_road,
            full_size=150,
            shard_size=45,
            small_size=22,
            nominal_vertex_diameter=161,
            seq_eps=0.09,
            dist_eps=0.08,
            samples_per_check=200,
            sharded_samples=160,
            rung_samples=256,
        ),
    )
}


# --------------------------------------------------------------------------- #
# bookkeeping shared by the end-to-end run and the traced run


class SpeedProbe:
    """A fixed reference computation whose time says how fast the machine is right now.

    A third each of interpreter work, numpy arithmetic on a cache-sized array
    and random gathers from a 32 MB array - the mix the program itself is made
    of.  Measured on the sandbox over 25 minutes, dividing by it took the
    spread of a 55 s window's medians from 14-24% to 4-8% for the four
    operations timed here (``bench/README.md``, "Speed correction").
    """

    def __init__(self) -> None:
        self._values = np.arange(200_000, dtype=np.float64)
        self._table = np.arange(4_000_000, dtype=np.int64)
        self._index = np.random.default_rng(0).integers(0, self._table.size, size=400_000)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the reference computation once; returns (and keeps) its seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        values = self._values
        for _ in range(20):
            values = np.sqrt(values * 1.0001 + 1.0)
        total += int(self._table[self._index].sum()) + values.size
        seconds = time.perf_counter() - start
        self._sink = total  # the results are consumed, so nothing above can be skipped
        self.samples.append(seconds)
        return seconds

    def since(self, before: float) -> float:
        """How much slower than nominal the machine ran since the sample ``before``; takes a second one now."""
        return 0.5 * (before + self.sample()) / REFERENCE_NOMINAL_S

    def slowdown(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), how much slower than nominal the machine ran meanwhile)``."""
        before = self.sample()
        value = fn(*args, **kwargs)
        return value, self.since(before)


@dataclass
class Run:
    """State of one workload subprocess."""

    workload: Workload
    seed: int
    seconds: float
    quick: bool
    work: Path
    tracer: Optional[object] = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    checks: List[dict] = field(default_factory=list)
    harness_s: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def social(self) -> Path:
        """Edge list of the seeded graph the service answers queries about."""
        return self.work / "social.txt"

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)

    @contextmanager
    def harness(self):
        """Time harness-only work (input generation, reference scores)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.harness_s += time.perf_counter() - start

    @contextmanager
    def span(self, name: str, **attrs):
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name, **attrs) as record:
                yield record

    def operation(self, fn, *args, **kwargs):
        """Run one counted operation; an exception makes it a failed one."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.new_operation()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted and reported, never swallowed
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds it took)``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


class Timing(NamedTuple):
    """Wall seconds of one operation and the machine's slowdown while it ran."""

    seconds: float
    slowdown: float

    @property
    def corrected(self) -> float:
        return self.seconds / self.slowdown


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(samples: List[float]) -> dict:
    return {"n": len(samples), "min": min(samples), "median": statistics.median(samples), "max": max(samples)}


def scores_in_range(scores) -> bool:
    scores = np.asarray(scores, dtype=np.float64)
    return bool(np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0)


def eps_for_budget(nominal_eps: float, vertex_diameter: int, nominal_vertex_diameter: int) -> float:
    """The eps at which this graph's omega equals the nominal graph's.

    omega grows with ``floor(log2(VD - 2))``, which jumps between seeds whose
    largest component has a pendant path one hop longer (R-MAT: VD 9 -> 11 is
    +17% samples).  Solving eps from the bound keeps the work per run, and so
    the seed-to-seed spread of every time metric, independent of that jump.
    """
    from repro import compute_omega

    ratio = compute_omega(nominal_eps, DELTA, vertex_diameter) / compute_omega(
        nominal_eps, DELTA, nominal_vertex_diameter
    )
    return nominal_eps * math.sqrt(ratio)


# --------------------------------------------------------------------------- #
# the service path


class ServiceHandle:
    """A ``BetweennessService`` on its own event-loop thread, driven by blocking clients."""

    def __init__(self, **kwargs) -> None:
        from repro.service import BetweennessService, ServiceClient

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, name="bench-service", daemon=True)
        self._thread.start()

        async def start():
            service = BetweennessService(port=0, **kwargs)
            await service.start()
            return service

        self.service = self._call(start())
        self.client = ServiceClient(self.service.host, self.service.port, timeout=120.0)

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=120.0)

    def stop(self) -> None:
        self._call(self.service.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()


@dataclass
class Setup:
    """Everything one set-up pass leaves behind for the measurement."""

    timing: Timing
    steps: Dict[str, float]
    directory: Path
    rcsr: Path
    graph: object
    catalog: object
    pool: ServiceHandle

    def teardown(self) -> None:
        self.pool.stop()


def set_up(run: Run, index: int, graph) -> Setup:
    """What the program does before the first timed operation, timed step by step."""
    from repro.kernels import BatchPathSampler
    from repro.obs.metrics import disable_metrics
    from repro.service import ResultCache
    from repro.store import GraphCatalog, open_rcsr, write_rcsr

    directory = run.work / f"setup-{index}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    # The pool worker resolves graphs through the default catalog.
    os.environ["REPRO_GRAPH_CACHE"] = str(directory / "graphs")
    os.environ["REPRO_RESULT_CACHE"] = str(directory / "results")
    steps: Dict[str, float] = {}

    @contextmanager
    def step(name: str):
        start = time.perf_counter()
        with run.span(name):
            yield
        steps[name] = time.perf_counter() - start

    reference_before = run.probe.sample()
    begin = time.perf_counter()
    rcsr = directory / "graph.rcsr"
    with step("store.catalog_convert"):
        catalog = GraphCatalog(directory / "graphs")
        catalog.convert(run.social, force=True)
    with step("store.write_rcsr"):
        write_rcsr(graph, rcsr)
    with step("store.open_rcsr"):
        mapped = open_rcsr(rcsr)
    with step("kernels.sampler_warmup"):
        BatchPathSampler(mapped).sample_batch(32, np.random.default_rng(run.seed))
    with step("service.start"):
        pool = ServiceHandle(
            worker_mode="process",
            max_workers=1,
            cache=ResultCache(directory / "results"),
            catalog=catalog,
        )
        pool.client.query(graph=str(run.social), **SERVICE_QUERY, seed=run.seed)  # forks the pool worker
    # BetweennessService.start() switches the gated sampling counters on for
    # the whole process; the in-process operations measure the facade as a
    # library user gets it, with them off.  The already-forked pool worker
    # keeps its own.
    disable_metrics()
    seconds = time.perf_counter() - begin
    return Setup(
        timing=Timing(seconds, run.probe.since(reference_before)),
        steps=steps,
        directory=directory,
        rcsr=rcsr,
        graph=mapped,
        catalog=catalog,
        pool=pool,
    )


@dataclass
class Observations:
    """Raw observations of one run; both metric families are derived from them."""

    seq: List[tuple] = field(default_factory=list)  # (result, Timing)
    p2: List[tuple] = field(default_factory=list)  # (launch result, Timing)
    cold: List[Timing] = field(default_factory=list)
    cached: List[tuple] = field(default_factory=list)  # (Timing, was the dominated query)
    service_failed: int = 0


# --------------------------------------------------------------------------- #
# the service operations


def cold_queries(run: Run, handle: ServiceHandle, seeds: range, label: str) -> List[float]:
    """Closed loop, one client: evict everything, then ask a fresh seed; returns the latencies."""
    latencies: List[float] = []

    def one(seed: int) -> None:
        handle.client.cache_evict(all=True)
        with run.span(f"service.{label}_query"):
            response, seconds = timed(handle.client.query, graph=str(run.social), **SERVICE_QUERY, seed=seed)
        if response["status"] != "done" or response["served_from_cache"] is not False:
            raise RuntimeError(f"{label} query was not computed fresh: {response.get('status')}")
        latencies.append(seconds)

    for seed in seeds:
        run.operation(one, seed)
    return latencies


def cached_queries(run: Run, handle: ServiceHandle, count: int, clients: int = 1) -> tuple:
    """``count`` closed-loop queries per client that the cache must answer.

    Returns ``([(seconds, was the dominated query), ...], wall seconds)``.  One
    query in four asks for a looser (eps, delta) that the cached entry
    dominates.  The entry is the one the last cold query left: dominance
    ignores the seed.
    """
    from repro.service import ServiceClient

    primed = {"graph": str(run.social), **SERVICE_QUERY, "seed": run.seed}
    dominated_query = {"graph": str(run.social), **DOMINATED_QUERY}
    lock = threading.Lock()
    latencies: List[tuple] = []

    def client_loop() -> None:
        client = ServiceClient(handle.service.host, handle.service.port, timeout=120.0)
        for i in range(count):
            dominated = i % 4 == 3
            try:
                response, seconds = timed(client.query, **(dominated_query if dominated else primed))
                if response.get("served_from_cache") is not True:
                    raise RuntimeError("cached query was not served from cache")
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                with lock:
                    run.attempted += 1
                    run.failed += 1
                    run.errors.append(f"cached query: {type(exc).__name__}: {exc}")
            else:
                with lock:
                    run.attempted += 1
                    latencies.append((seconds, dominated))

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    with run.span("service.cached_burst", clients=clients):
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# the distributed operation


def launch(run: Run, rcsr: Path, label: str, *, processes: int, parts: Optional[int] = None, **kwargs) -> Optional[tuple]:
    """One counted ``launch_local`` on ``rcsr``; returns ``(result, wall seconds)``, None if it failed."""
    from repro.dist.launcher import launch_local

    def one() -> tuple:
        with run.span(f"dist.launch_{label}", processes=processes, parts=parts) as record:
            result, wall = timed(
                launch_local,
                str(rcsr),
                processes=processes,
                parts=parts,
                delta=DELTA,
                seed=run.seed + 1,
                result_path=str(run.work / "dist-result.json"),
                timeout=150.0,
                **kwargs,
            )
        if result["restarts"] != 0:
            raise RuntimeError(f"launcher restarted {result['restarts']} time(s)")
        if not scores_in_range(result["scores"]):
            raise RuntimeError("scores not finite or outside [0, 1]")
        if run.tracer is not None:
            slowest = max(r["adaptive_seconds"] for r in result["per_rank"])
            run.tracer.add_child(record, "dist.adaptive", record["end"] - slowest, slowest)
        return result, wall

    return run.operation(one)


# --------------------------------------------------------------------------- #
# the in-process operation


def seq_op(run: Run, setup: Setup, eps: float) -> Optional[tuple]:
    """One cold facade call to (eps, delta) on the mapped graph, the same seed every time.

    Returns ``(result, wall seconds)``, None if it failed.
    """
    from repro import estimate_betweenness

    def one() -> tuple:
        with run.span("api.estimate_betweenness") as record:
            result, wall = timed(
                estimate_betweenness, setup.graph, algorithm="sequential", eps=eps, delta=DELTA, seed=run.seed + 1
            )
        if not scores_in_range(result.scores) or result.num_samples > result.omega:
            raise RuntimeError(f"bad result: num_samples {result.num_samples} omega {result.omega}")
        if run.tracer is not None:
            run.tracer.add_phases(record, result.phase_seconds)
        return result, wall

    return run.operation(one)


# --------------------------------------------------------------------------- #
# one workload, end to end


def measure(run: Run, setup: Setup, seq_eps: float, dist_eps: float) -> Observations:
    """The timed part of a run: rounds of all four operations until ``--seconds`` are used up.

    A metric whose samples all come from one stretch of the run inherits that
    stretch's luck, so every round holds every operation and each median is
    taken over samples spread across the whole run.  The traced run and
    ``--quick`` do one round.
    """
    single = run.quick or run.tracer is not None
    cold, cached = (3, 8) if run.quick else (COLD_PER_SLICE, CACHED_PER_SLICE)
    probe, obs = run.probe, Observations()
    rounds: List[float] = []
    start = time.perf_counter()
    # Stop where another round would overshoot ``--seconds`` by more than it undershoots now.
    while not rounds or (not single and time.perf_counter() - start + 0.5 * statistics.median(rounds) < run.seconds):
        round_start = time.perf_counter()
        done, slowdown = probe.slowdown(seq_op, run, setup, seq_eps)
        if done is not None:
            obs.seq.append((done[0], Timing(done[1], slowdown)))
        done, slowdown = probe.slowdown(
            launch, run, setup.rcsr, "p2", processes=2, eps=dist_eps,
            samples_per_check=run.workload.samples_per_check,
        )
        if done is not None:
            obs.p2.append((done[0], Timing(done[1], slowdown)))
        failed_before = run.failed
        for _ in range(SLICES_PER_ROUND):
            first_seed = run.seed * 100_000 + len(obs.cold)
            latencies, slowdown = probe.slowdown(
                cold_queries, run, setup.pool, range(first_seed, first_seed + cold), "cold"
            )
            obs.cold.extend(Timing(seconds, slowdown) for seconds in latencies)
            (latencies, _), slowdown = probe.slowdown(cached_queries, run, setup.pool, cached)
            obs.cached.extend((Timing(seconds, slowdown), dominated) for seconds, dominated in latencies)
        obs.service_failed += run.failed - failed_before
        rounds.append(time.perf_counter() - round_start)
    run.info["rounds"] = len(rounds)
    run.info["measured_s"] = time.perf_counter() - start
    return obs


def verify(run: Run, setup: Setup, obs: Observations, seq_eps: float, dist_eps: float, kernel: str) -> tuple:
    """The checks that need more than one operation's output (harness time).

    Returns the small companion graph and its exact scores.
    """
    from repro import Resources, brandes_betweenness, estimate_betweenness

    if obs.seq:
        first = obs.seq[0][0]
        run.check(
            "seq: timed repeats return identical num_samples and bit-identical scores",
            all(
                r.num_samples == first.num_samples and np.array_equal(r.scores, first.scores)
                for r, _ in obs.seq[1:]
            ),
        )
        for result, _ in obs.p2:
            error = float(np.max(np.abs(np.asarray(result["scores"]) - first.scores)))
            run.check(
                "dist P=2 agrees with the sequential scores within eps_seq + eps_dist",
                error <= seq_eps + dist_eps,
                f"max difference {error:.4f} tolerance {seq_eps + dist_eps:.4f}",
            )
    run.check(
        "service: every cold query computed, every cached query served from cache",
        obs.service_failed == 0 and bool(obs.cold) and bool(obs.cached),
        f"cold {len(obs.cold)} cached {len(obs.cached)} failed {obs.service_failed}",
    )
    # (eps, delta) against exact scores on a small graph of the same generator,
    # with the kernel the workload's graph is routed to.
    with run.harness():
        small = run.workload.graph("small", run.seed)
        exact = brandes_betweenness(small).scores
        estimate = estimate_betweenness(
            small, algorithm="sequential", eps=CHECK_EPS, delta=DELTA, seed=run.seed + 5,
            resources=Resources(kernel=kernel),
        )
    error = float(np.max(np.abs(estimate.scores - exact)))
    run.check(
        f"small graph ({small.num_vertices} vertices, kernel {kernel}): max|b~ - b| <= eps",
        error <= CHECK_EPS,
        f"max error {error:.4f} eps {CHECK_EPS}",
    )
    return small, exact


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def run_workload(run: Run, per_layer: Optional[Callable[[Run, dict], Dict[str, float]]] = None) -> dict:
    """Generate inputs, set up, measure, verify, derive the end-to-end metrics.

    Returns ``{"end_to_end": {...}, "observations": ..., ...}``.  The traced
    run passes ``per_layer`` (``ladder.per_layer_metrics``), which is called
    with that dictionary while the mapped graph and the service are still up.
    """
    from repro.diameter import vertex_diameter_upper_bound
    from repro.graph.generators import barabasi_albert
    from repro.graph.io import write_edge_list
    from repro.kernels import BatchPathSampler

    workload = run.workload
    with run.harness():
        graph = workload.graph("full", run.seed, run.quick)
        write_edge_list(barabasi_albert(SOCIAL_VERTICES, 3, seed=run.seed), run.social)

    setups: List[Setup] = []
    try:
        for index in range(1 if run.quick else SETUP_REPEATS):
            if setups:
                setups[-1].teardown()
            setups.append(set_up(run, index, graph))
        setup = setups[-1]

        with run.harness():
            vertex_diameter = max(vertex_diameter_upper_bound(setup.graph, seed=run.seed + 1), 2)
            kernel = BatchPathSampler(setup.graph).kernel_name
        if run.quick:
            seq_eps = dist_eps = QUICK_EPS
        else:
            seq_eps = eps_for_budget(workload.seq_eps, vertex_diameter, workload.nominal_vertex_diameter)
            dist_eps = eps_for_budget(workload.dist_eps, vertex_diameter, workload.nominal_vertex_diameter)
        run.info["graph"] = {
            "num_vertices": int(setup.graph.num_vertices),
            "num_edges": int(setup.graph.num_edges),
            "vertex_diameter": int(vertex_diameter),
            "kernel": kernel,
            "seq_eps": seq_eps,
            "dist_eps": dist_eps,
        }
        obs = measure(run, setup, seq_eps, dist_eps)
        companion = verify(run, setup, obs, seq_eps, dist_eps, kernel)
        outcome = {
            "end_to_end": end_to_end_metrics(run, setups, obs),
            "observations": obs,
            "setups": setups,
            "seq_eps": seq_eps,
            "dist_eps": dist_eps,
            "kernel": kernel,
            "companion": companion,
        }
        if per_layer is not None:
            outcome["per_layer"] = per_layer(run, outcome)
        return outcome
    finally:
        if setups:
            setups[-1].teardown()


def end_to_end_metrics(run: Run, setups: List[Setup], obs: Observations) -> Dict[str, float]:
    """The user-visible numbers, speed-corrected; raises if an operation class has no survivor."""
    if not obs.seq or not obs.p2:
        raise RuntimeError(f"the facade call or the two-rank launch never completed: {run.errors}")
    if not obs.cold or not obs.cached:
        raise RuntimeError(f"a query class never completed: {run.errors}")

    timings = {
        "setup_s": [s.timing for s in setups],
        "time_to_solution_s": [timing for _, timing in obs.seq],
        "dist_p2_time_to_solution_s": [timing for _, timing in obs.p2],
        "cold_query_p50_s": obs.cold,
        "cached_query_p50_s": [timing for timing, _ in obs.cached],
    }
    metrics = {name: statistics.median(t.corrected for t in samples) for name, samples in timings.items()}
    metrics["samples_per_s"] = obs.seq[0][0].num_samples / metrics["time_to_solution_s"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    # The program reports this rate over its own clock; the same correction applies.
    metrics["dist_p2_samples_per_s"] = statistics.median(
        float(result["aggregate_samples_per_sec"]) * timing.slowdown for result, timing in obs.p2
    )
    run.info["samples"] = {
        name: {
            "n": len(samples),
            "min": min(t.corrected for t in samples),
            "max": max(t.corrected for t in samples),
            "raw_median": statistics.median(t.seconds for t in samples),
        }
        for name, samples in timings.items()
    }
    run.info["reference_s"] = summary(run.probe.samples)
    return metrics
