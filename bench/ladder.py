"""The traced run: per-layer metrics, one rung of the stack at a time.

On the workload's own graph the same kind of work is pushed through each rung
- raw kernel -> ``BatchPathSampler`` + ``plan_batches`` + ``record_batch`` ->
``EstimationSession.run`` -> ``estimate_betweenness`` -> shared-memory T=1/2 ->
threaded ranks P=2 -> ``launch_local`` P=1/2 - so that each layer's cost over
the one beneath it is a number.  Every rung runs under a span of the run's
:class:`~tracing.Tracer`.  The distributed and service rungs reuse the
observations of the workload's one traced round and add the configurations
that have no end-to-end metric: P=1 and sharded launches, externally
dispatched queries, a two-client burst.

Layer metrics have no regression bound.  They say where an end-to-end change
came from; they are never the claim.  They are raw wall-clock numbers, not
speed-corrected like the end-to-end ones; ``bench.reference_s`` is the
reference computation's median time in the same run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from workloads import (
    CHECK_EPS,
    DELTA,
    QUICK_EPS,
    ROOT,
    SERVICE_QUERY,
    Run,
    ServiceHandle,
    cached_queries,
    cold_queries,
    launch,
    percentile,
    timed,
)

#: Samples the routed kernel draws at the raw-kernel rung; fixed, so the edge
#: counts repeat exactly for a seed.
KERNEL_SAMPLES = 1024
#: The other kernels only need a rate; they get fewer samples where they are slow.
OTHER_KERNEL_SAMPLES = {"bidirectional": 512, "wavefront": 512, "unidirectional": 48}
#: The cold service query as a direct facade call (same target, no service).
FACADE_QUERY = {key: SERVICE_QUERY[key] for key in ("algorithm", "eps", "delta")}
#: Queries of the service rung's own phases.
EXTERNAL_QUERIES = 6
BURST_QUERIES_PER_CLIENT = 200


def _sampling_rate(result) -> float:
    """Samples per second over the calibration and adaptive phases of a result."""
    phases = result.phase_seconds
    return result.num_samples / (phases["calibration"] + phases["adaptive_sampling"])


def per_layer_metrics(run: Run, outcome: dict) -> Dict[str, float]:
    """``outcome`` is what ``run_workload`` returned for the traced run."""
    ladder = Ladder(run, outcome)
    for rung in (
        ladder.store, ladder.diameter, ladder.kernels, ladder.core, ladder.session, ladder.api,
        ladder.threaded_backends, ladder.communicators, ladder.dist, ladder.service, ladder.evolve, ladder.observability,
    ):
        rung()
    ladder.metrics["bench.harness_s"] = run.harness_s
    ladder.metrics["bench.reference_s"] = statistics.median(run.probe.samples)
    return {name: float(value) for name, value in ladder.metrics.items()}


class Ladder:
    """One method per layer, bottom up; later rungs read what earlier ones left on ``self``."""

    def __init__(self, run: Run, outcome: dict) -> None:
        self.run = run
        self.tracer = run.tracer
        self.obs = outcome["observations"]
        self.setups = outcome["setups"]
        self.setup = self.setups[-1]
        self.graph = self.setup.graph
        self.social = self.setup.catalog.load(run.social)
        self.routed = outcome["kernel"]
        self.eps = outcome["seq_eps"]
        self.dist_eps = outcome["dist_eps"]
        self.companion, self.exact = outcome["companion"]
        self.seed = run.seed + 1
        self.rung_samples = 32 if run.quick else run.workload.rung_samples
        self.metrics: Dict[str, float] = {}

    def _setup_step(self, name: str) -> float:
        return statistics.median(s.steps[name] for s in self.setups)

    # ------------------------------------------------------------------ #
    def store(self) -> None:
        from repro.store import PartitionedGraphView, ShardedPathSampler, partition_rcsr

        m = self.metrics
        for step in ("write_rcsr", "open_rcsr", "catalog_convert"):
            m[f"store.{step}_s"] = self._setup_step(f"store.{step}")
        m["store.rcsr_bytes"] = self.setup.rcsr.stat().st_size
        with self.tracer.span("store.partition_rcsr"):
            manifest, m["store.partition_rcsr_s"] = timed(partition_rcsr, self.setup.rcsr, 2, force=True)
        count = 4 if self.run.quick else 16
        with self.tracer.span("store.sharded_sampler"):
            view = PartitionedGraphView(manifest, 0)
            _, seconds = timed(ShardedPathSampler(view).sample_batch, count, np.random.default_rng(self.run.seed))
        m["store.sharded_sampler_samples_per_s"] = count / seconds
        m["store.loaded_parts"] = len(view.loaded_parts())

    def diameter(self) -> None:
        from repro.diameter import vertex_diameter_upper_bound

        with self.tracer.span("diameter.bound"):
            self.vertex_diameter, self.metrics["diameter.bound_s"] = timed(
                vertex_diameter_upper_bound, self.graph, seed=self.seed
            )
        self.metrics["diameter.vertex_diameter"] = self.vertex_diameter

    def kernels(self) -> None:
        from repro import StateFrame
        from repro.kernels import BatchPathSampler, plan_batches

        m, graph = self.metrics, self.graph
        for kernel, target in (
            ("bidirectional", graph), ("wavefront", graph), ("unidirectional", graph), ("smallgraph", self.social),
        ):
            primary = kernel == self.routed or target is self.social
            count = 32 if self.run.quick else (KERNEL_SAMPLES if primary else OTHER_KERNEL_SAMPLES[kernel])
            with self.tracer.span(f"kernels.{kernel}", samples=count):
                sampler = BatchPathSampler(target, kernel=kernel)
                sampler.sample_batch(8, np.random.default_rng(0))  # builds scratch, touches the pages
                batch, seconds = timed(sampler.sample_batch, count, np.random.default_rng(self.run.seed))
            m[f"kernels.{kernel}_samples_per_s"] = count / seconds
            if kernel == self.routed:
                m["kernels.us_per_sample"] = 1e6 * seconds / count
                m["kernels.edges_touched_per_sample"] = batch.total_edges_touched / count
                m["kernels.edges_touched_per_s"] = batch.total_edges_touched / seconds

        # The sampler rung: the routed kernel driven the way every driver drives
        # it.  The per-pair kernels draw pairs in stream order, so the ramped and
        # the fixed plan sample the same pairs and differ only in planning.
        budget = 2 * self.rung_samples

        def sampler_rung(batch_size):
            sampler = BatchPathSampler(graph)
            rng = np.random.default_rng(self.run.seed)
            frame = StateFrame.zeros(graph.num_vertices)
            recording = 0.0
            start = time.perf_counter()
            for take in plan_batches(budget, batch_size):
                batch = sampler.sample_batch(take, rng)
                mark = time.perf_counter()
                frame.record_batch(batch)
                recording += time.perf_counter() - mark
            return frame, time.perf_counter() - start, recording

        with self.tracer.span("kernels.sampler_rung", plan="fixed"):
            self.frame, fixed_seconds, recording = sampler_rung(self.rung_samples)
        with self.tracer.span("kernels.sampler_rung", plan="auto"):
            _, ramp_seconds, _ = sampler_rung("auto")
        m["kernels.plan_overhead_frac"] = ramp_seconds / fixed_seconds - 1.0
        m["core.record_batch_us_per_sample"] = 1e6 * recording / budget
        self.rung_rate = budget / ramp_seconds

    def core(self) -> None:
        from repro import StoppingCondition, compute_omega
        from repro.core.calibration import calibrate_deltas

        m = self.metrics
        omega = compute_omega(self.eps, DELTA, self.vertex_diameter)
        m["core.omega"] = omega
        with self.tracer.span("core.calibrate_deltas"):
            calibration, m["core.calibrate_s"] = timed(calibrate_deltas, self.frame, DELTA, eps=self.eps)
        condition = StoppingCondition(
            eps=self.eps, omega=omega, delta_l=calibration.delta_l, delta_u=calibration.delta_u
        )
        with self.tracer.span("core.should_stop"):
            m["core.stopping_check_s"] = statistics.median(
                timed(condition.should_stop, self.frame)[1] for _ in range(20)
            )

    def session(self) -> None:
        from repro import EstimationSession, open_session

        m, graph, tracer = self.metrics, self.graph, self.tracer
        session = open_session(graph, algorithm="sequential", seed=self.seed)
        with tracer.span("session.run") as record:
            result, m["session.run_s"] = timed(session.run, self.eps, DELTA)
        tracer.add_phases(record, result.phase_seconds)
        self.session_result = result
        m["session.diameter_s"] = result.phase_seconds["diameter"]
        m["session.calibration_s"] = result.phase_seconds["calibration"]
        m["session.adaptive_s"] = result.phase_seconds["adaptive_sampling"]
        m["session.num_epochs"] = result.num_epochs
        m["session.num_samples"] = result.num_samples
        m["session.samples_over_omega"] = result.num_samples / result.omega
        m["session.overhead_frac"] = 1.0 - _sampling_rate(result) / self.rung_rate
        # Refinement rung: a session at twice the eps (a quarter of the samples),
        # checkpointed, restored and refined to the workload's eps.
        coarse = open_session(graph, algorithm="sequential", seed=self.seed)
        with tracer.span("session.run", eps="coarse"):
            coarse.run(2.0 * self.eps, DELTA)
        snapshot = self.run.work / "ladder.snap"
        with tracer.span("session.checkpoint"):
            _, m["session.checkpoint_s"] = timed(coarse.checkpoint, snapshot)
        m["session.snapshot_bytes"] = snapshot.stat().st_size
        with tracer.span("session.restore"):
            restored, m["session.restore_s"] = timed(EstimationSession.restore, snapshot, graph=graph)
        with tracer.span("session.refine"):
            refined, m["session.refine_s"] = timed(restored.refine, self.eps, DELTA)
        self.run.check(
            "session: restore + refine(eps) is bit-identical to the cold run at eps",
            refined.num_samples == result.num_samples and np.array_equal(refined.scores, result.scores),
        )

    def api(self) -> None:
        from repro import StateFrame, StoppingCondition, estimate_betweenness
        from repro.kernels import BatchPathSampler

        tracer = self.tracer

        def facade():
            return estimate_betweenness(
                self.graph, algorithm="sequential", eps=self.eps, delta=DELTA, seed=self.seed
            )

        with tracer.span("api.estimate_betweenness", traced_inside=False):
            via_facade, facade_seconds = timed(facade)
        self.metrics["api.facade_overhead_s"] = facade_seconds - self.metrics["session.run_s"]
        self.run.check(
            "api: the facade returns the session's scores bit for bit",
            np.array_equal(via_facade.scores, self.session_result.scores),
        )
        # The same call once more with a span around every call the session makes
        # into kernels and core; the extra time is what tracing costs.
        with tracer.span("api.estimate_betweenness", traced_inside=True), tracer.wrap_method(
            BatchPathSampler, "sample_batch", "kernels.sample_batch"
        ), tracer.wrap_method(StateFrame, "record_batch", "core.record_batch"), tracer.wrap_method(
            StoppingCondition, "should_stop", "core.should_stop"
        ):
            _, traced_seconds = timed(facade)
        self.metrics["bench.trace_overhead_frac"] = traced_seconds / facade_seconds - 1.0

    def threaded_backends(self) -> None:
        """``epoch.*`` and ``parallel.*``, on the companion graph.

        The threaded backends are GIL-bound simulations: on the workload's graph
        one diameter phase alone takes 25-40 s (rank 1 spins on the broadcast
        while rank 0 computes the bound) and sampling runs 6x slower than
        sequentially.  They get the workload's small companion graph - same
        generator, same kernel forced - where a whole (eps, delta) run fits in
        seconds and can be checked against exact scores.
        """
        from repro import Resources, estimate_betweenness
        from repro.diameter import vertex_diameter_upper_bound

        m, run, companion = self.metrics, self.run, self.companion
        with self.tracer.span("diameter.bound", graph="companion"):
            _, sequential_diameter_s = timed(vertex_diameter_upper_bound, companion, seed=self.seed)
        run.info["companion"] = {
            "num_vertices": int(companion.num_vertices),
            "num_edges": int(companion.num_edges),
            "sequential_diameter_s": sequential_diameter_s,
        }
        eps = QUICK_EPS if run.quick else CHECK_EPS

        def backend(algorithm: str, **resources):
            resources = Resources(kernel=self.routed, **resources)
            with self.tracer.span(f"ladder.{algorithm}", **resources.as_dict()):
                result = estimate_betweenness(
                    companion, algorithm=algorithm, eps=eps, delta=DELTA, seed=self.seed, resources=resources
                )
            error = float(np.max(np.abs(result.scores - self.exact)))
            run.check(
                f"{algorithm} {resources.as_dict()} on the companion graph: max|b~ - b| <= eps",
                error <= eps,
                f"max error {error:.4f} eps {eps}",
            )
            return result

        shm1 = backend("shared-memory", threads=1)
        shm2 = backend("shared-memory", threads=2)
        m["epoch.shm_t1_samples_per_s"] = _sampling_rate(shm1)
        m["epoch.shm_t2_samples_per_s"] = _sampling_rate(shm2)
        m["epoch.shm_t2_overshoot_frac"] = (shm2.num_samples - shm2.omega) / shm2.omega
        alg2 = backend("distributed", processes=2)
        alg1 = backend("mpi-only", processes=2)
        m["parallel.alg2_p2_samples_per_s"] = _sampling_rate(alg2)
        m["parallel.alg1_p2_samples_per_s"] = _sampling_rate(alg1)
        m["parallel.diameter_s"] = alg2.phase_seconds["diameter"]
        m["parallel.calibration_s"] = alg2.phase_seconds["calibration"]
        adaptive = alg2.phase_seconds["adaptive_sampling"]
        for share in ("sampling", "ibarrier", "reduce", "check"):
            m[f"parallel.ads_{share}_frac"] = alg2.phase_seconds[f"ads_{share}"] / adaptive

    def communicators(self) -> None:
        from repro import StateFrame
        from repro.dist.socketcomm import run_socket
        from repro.mpi import run_threaded

        rounds = 5

        def collectives(comm, rank):
            payload = StateFrame.zeros(self.graph.num_vertices)
            payload.num_samples = 1
            reduces = []
            comm.barrier()
            before = comm.communication_bytes()
            for _ in range(rounds):
                reduces.append(timed(comm.reduce, payload, op="sum", root=0)[1])
                comm.barrier()
            moved = comm.communication_bytes() - before
            barriers = [timed(comm.barrier)[1] for _ in range(rounds)]
            return statistics.median(reduces), statistics.median(barriers), moved

        with self.tracer.span("mpi.threaded_collectives"):
            threaded = run_threaded(2, collectives, timeout=60.0)
        with self.tracer.span("dist.socket_collectives"):
            socket = run_socket(2, collectives, timeout=60.0)
        m = self.metrics
        m["mpi.threaded_reduce_frame_s"] = threaded[0][0]
        m["dist.socket_reduce_frame_s"], m["dist.socket_barrier_s"], _ = socket[0]
        # Bytes both ranks put on the wire per reduce round (its barrier included).
        m["dist.socket_reduce_frame_bytes"] = sum(moved for _, _, moved in socket) / rounds

    def dist(self) -> None:
        """The traced round's P=2 launch, plus one at P=1 and one with each rank mapping only its shard."""
        from repro.store import write_rcsr

        m, run, workload = self.metrics, self.run, self.run.workload
        p1_launch = launch(
            run, self.setup.rcsr, "p1", processes=1, eps=self.dist_eps,
            samples_per_check=workload.samples_per_check,
        )
        # The sharded sampler draws ~10 samples/s on the full graph, too few in
        # any affordable time for a rate; its launch gets the same generator's
        # mid-size graph and a fixed sample budget.
        with run.harness():
            shard_graph = workload.graph("shard", run.seed, run.quick)
        shard_rcsr = self.setup.directory / "shard-graph.rcsr"
        write_rcsr(shard_graph, shard_rcsr)
        samples = 30 if run.quick else workload.sharded_samples
        sharded_launch = launch(
            run, shard_rcsr, "sharded", processes=2, parts=2, eps=self.dist_eps,
            max_samples=samples, calibration_samples=samples // 10, samples_per_check=samples // 3,
        )
        if p1_launch is None or sharded_launch is None:
            raise RuntimeError(f"a distributed configuration never completed: {run.errors}")
        (p1, _), (sharded, _) = p1_launch, sharded_launch
        p2, p2_timing = self.obs.p2[0]
        placement = [r["eager_parts"] for r in sharded["per_rank"]]
        run.check("dist: each sharded rank eagerly maps only its own shard", placement == [[0], [1]], str(placement))

        def slowest(result) -> float:
            return max(r["adaptive_seconds"] for r in result["per_rank"])

        local = [r["local_samples"] for r in p2["per_rank"]]
        m["dist_p1_samples_per_s"] = p1["aggregate_samples_per_sec"]
        m["dist_sharded_samples_per_s"] = sharded["aggregate_samples_per_sec"]
        m["dist.spawn_overhead_s"] = p2_timing.seconds - slowest(p2)
        m["dist.adaptive_s_p1"] = slowest(p1)
        m["dist.adaptive_s_p2"] = slowest(p2)
        m["dist.num_epochs"] = p2["num_epochs"]
        m["dist.comm_bytes_per_epoch"] = p2["communication_bytes"] / max(p2["num_epochs"], 1)
        m["dist.overshoot_frac"] = (p1["num_samples"] - p1["omega"]) / p1["omega"]
        m["dist.rank_imbalance"] = max(local) / max(min(local), 1)
        m["dist.scaling_efficiency_p2"] = p2["aggregate_samples_per_sec"] / (2.0 * p1["aggregate_samples_per_sec"])
        # The sharded launch runs on a smaller graph; the slowdown of the sharded
        # sampler is taken where both samplers saw the same graph, in process.
        m["dist.sharded_slowdown"] = (
            m[f"kernels.{self.routed}_samples_per_s"] / m["store.sharded_sampler_samples_per_s"]
        )

    def service(self) -> None:
        """The traced round's queries, a two-client burst, external dispatch, cache lookups in process."""
        from repro import estimate_betweenness
        from repro.service import ResultCache

        m, obs, setup, run, quick = self.metrics, self.obs, self.setup, self.run, self.run.quick
        with self.tracer.span("service.facade_reference"):
            reference = statistics.median(
                timed(estimate_betweenness, self.social, seed=run.seed + i, **FACADE_QUERY)[1]
                for i in range(2 if quick else 5)
            )
        failed_before = run.failed
        burst, burst_wall = cached_queries(run, setup.pool, 8 if quick else BURST_QUERIES_PER_CLIENT, clients=2)
        external = self._external_queries(2 if quick else EXTERNAL_QUERIES)
        if not burst or not external:
            raise RuntimeError(f"a query class never completed: {run.errors}")
        cold = [timing.seconds for timing in obs.cold]
        cached = [timing.seconds for timing, _ in obs.cached]
        cold_p50 = statistics.median(cold)
        m["cold_query_p90_s"] = percentile(cold, 0.90)
        m["cold_query_external_p50_s"] = statistics.median(external)
        m["cached_query_p95_s"] = percentile(cached, 0.95)
        m["cached_qps"] = len(burst) / burst_wall
        m["service.start_s"] = self._setup_step("service.start")
        m["service.cold_overhead_s"] = cold_p50 - reference
        m["service.external_claim_overhead_s"] = m["cold_query_external_p50_s"] - cold_p50
        m["service.cached_query_p99_s"] = percentile(cached, 0.99)
        m["service.dominated_query_p50_s"] = statistics.median(
            timing.seconds for timing, dominated in obs.cached if dominated
        )
        m["service.http_errors"] = obs.service_failed + run.failed - failed_before
        checksum = setup.catalog.checksum(setup.catalog.resolve(str(run.social)))
        lookup = {"family": "adaptive-sampling", "eps": SERVICE_QUERY["eps"], "delta": SERVICE_QUERY["delta"]}
        loops = 20 if quick else 200
        result_cache_dir = setup.directory / "results"
        for tier, cache in (
            ("hot", ResultCache(result_cache_dir)),
            ("disk", ResultCache(result_cache_dir, hot_entries=0)),
        ):
            found = cache.find(checksum, **lookup)  # warms the hot tier where there is one
            with self.tracer.span(f"service.{tier}_lookup"):
                _, seconds = timed(lambda: [cache.find(checksum, **lookup) for _ in range(loops)])
            m[f"service.{tier}_lookup_s"] = seconds / loops
        run.check("service: the result cache still holds an entry at the query's target", found is not None)

    def _external_queries(self, count: int) -> List[float]:
        """Cold queries against ``dispatch="external"`` and one ``repro.service.worker`` process."""
        from repro.obs.metrics import disable_metrics
        from repro.service import JobStore, ResultCache

        directory = self.setup.directory
        store_path = directory / "jobs.sqlite3"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        handle = ServiceHandle(
            store=JobStore(store_path),
            dispatch="external",
            cache=ResultCache(directory / "external-results"),
            catalog=self.setup.catalog,
        )
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service.worker",
                "--store", str(store_path), "--cache-dir", str(directory / "external-results"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        try:
            first_seed = self.run.seed * 100_000 + 50_000
            return cold_queries(self.run, handle, range(first_seed, first_seed + count), "external")
        finally:
            worker.terminate()
            try:
                worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait(timeout=10.0)
            handle.stop()
            disable_metrics()  # starting a service switched the sampling counters on

    def evolve(self) -> None:
        from repro import open_session
        from repro.evolve import update_session
        from repro.store import GraphDelta, apply_delta

        social = self.social
        budget = max(2, int(0.01 * social.num_edges))  # a delta of at most 1% of the edges
        deletions = [tuple(int(x) for x in edge) for edge in social.edge_array()[: budget // 2]]
        insertions = []
        for u in range(social.num_vertices):
            v = next((v for v in range(u + 1, social.num_vertices) if not social.has_edge(u, v)), None)
            if v is not None:
                insertions.append((u, v))
            if len(insertions) == budget - len(deletions):
                break
        delta = GraphDelta(insertions=insertions, deletions=deletions)
        child = apply_delta(social, delta)
        parent = open_session(social, algorithm="sequential", seed=self.seed)
        parent.run(SERVICE_QUERY["eps"], DELTA)
        with self.tracer.span("evolve.update_session"):
            (_, report), self.metrics["evolve.update_s"] = timed(update_session, parent, child, delta)
        self.metrics["evolve.reused_frac"] = report.samples_reused / report.parent_samples

    def observability(self) -> None:
        from repro.kernels import BatchPathSampler, plan_batches
        from repro.obs.metrics import disable_metrics, enable_metrics

        def pipeline_rate() -> float:
            sampler = BatchPathSampler(self.graph)
            rng = np.random.default_rng(self.run.seed)
            start = time.perf_counter()
            for take in plan_batches(self.rung_samples, "auto"):
                sampler.sample_batch(take, rng)
            return self.rung_samples / (time.perf_counter() - start)

        with self.tracer.span("obs.metrics_overhead"):
            disable_metrics()
            bare = pipeline_rate()
            enable_metrics()
            try:
                instrumented = pipeline_rate()
            finally:
                disable_metrics()
        self.metrics["obs.metrics_overhead_frac"] = 1.0 - instrumented / bare
