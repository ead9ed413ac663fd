"""Unit tests for the cluster performance model."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    InstanceProfile,
    MachineSpec,
    NetworkSpec,
    PAPER_CLUSTER,
    barrier_time,
    broadcast_time,
    estimate_edges_per_sample,
    local_aggregation_time,
    measure_edges_per_sample,
    reduce_time,
    sample_seconds,
    simulate_epoch_mpi,
    simulate_mpi_only,
    simulate_shared_memory,
)
from repro.cluster.trace import PHASE_ORDER, SimulatedRun
from repro.kernels import BatchPathSampler


@pytest.fixture(scope="module")
def twitter_like_profile() -> InstanceProfile:
    return InstanceProfile.from_statistics(
        "twitter-like", 41_652_230, 1_468_365_480, 23, target_samples=1_126_219
    )


@pytest.fixture(scope="module")
def road_like_profile() -> InstanceProfile:
    return InstanceProfile.from_statistics(
        "road-like", 1_087_562, 1_541_514, 794, target_samples=3_943_308
    )


class TestMachineSpec:
    def test_paper_defaults(self):
        machine = PAPER_CLUSTER.machine
        assert machine.num_nodes == 16
        assert machine.cores_per_node == 24
        assert machine.total_cores == 384
        assert machine.memory_per_socket_bytes == 96 * 1024**3

    def test_memory_fit_check(self):
        machine = MachineSpec()
        assert machine.fits_in_socket_memory(10 * 1024**3)
        assert not machine.fits_in_socket_memory(200 * 1024**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(num_nodes=0)
        with pytest.raises(ValueError):
            MachineSpec(numa_remote_penalty=0.5)
        with pytest.raises(ValueError):
            MachineSpec(edge_traversal_seconds=0.0)


class TestNetworkSpec:
    def test_message_time_monotone_in_size(self):
        network = NetworkSpec()
        assert network.message_time(10**9) > network.message_time(10**3) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth_bytes_per_second=0.0)
        with pytest.raises(ValueError):
            NetworkSpec(latency_seconds=-1.0)
        with pytest.raises(ValueError):
            NetworkSpec().message_time(-1)


class TestCollectiveCosts:
    def test_reduce_scales_with_ranks_and_bytes(self):
        network = NetworkSpec()
        assert reduce_time(network, 16, 10**6) > reduce_time(network, 2, 10**6)
        assert reduce_time(network, 16, 10**8) > reduce_time(network, 16, 10**6)
        assert reduce_time(network, 1, 10**6) == 0.0

    def test_barrier_latency_bound(self):
        network = NetworkSpec()
        assert barrier_time(network, 1) == 0.0
        assert barrier_time(network, 16) > barrier_time(network, 2) > 0.0

    def test_broadcast(self):
        network = NetworkSpec()
        assert broadcast_time(network, 32) > broadcast_time(network, 2)

    def test_local_aggregation(self):
        assert local_aggregation_time(10**6, 12, 8e9) > 0.0
        assert local_aggregation_time(0, 12, 8e9) == 0.0

    def test_validation(self):
        network = NetworkSpec()
        with pytest.raises(ValueError):
            reduce_time(network, 0, 10)
        with pytest.raises(ValueError):
            barrier_time(network, 0)
        with pytest.raises(ValueError):
            local_aggregation_time(-1, 2, 1e9)
        with pytest.raises(ValueError):
            local_aggregation_time(1, 2, 0.0)


class TestSamplingCost:
    def test_complex_networks_sublinear(self):
        small = estimate_edges_per_sample(10**6, 30 * 10**6, 20)
        large = estimate_edges_per_sample(10**8, 30 * 10**8, 20)
        assert large > small
        # Sub-linear growth in the edge count for complex networks.
        assert large / small < 100

    def test_road_networks_cover_whole_graph(self):
        road = estimate_edges_per_sample(10**6, 1.5 * 10**6, 800)
        assert road >= 2.0 * 1.5 * 10**6

    def test_sample_seconds_numa_penalty(self):
        machine = MachineSpec()
        local = sample_seconds(1e6, machine, numa_local=True)
        remote = sample_seconds(1e6, machine, numa_local=False)
        assert remote == pytest.approx(local * machine.numa_remote_penalty)

    def test_measured_cost_positive(self, small_social_graph):
        sampler = BatchPathSampler(small_social_graph)
        measured = measure_edges_per_sample(sampler, num_probes=16, seed=1)
        assert measured > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_edges_per_sample(0, 10, 5)
        with pytest.raises(ValueError):
            sample_seconds(-1.0, MachineSpec())


class TestInstanceProfile:
    def test_from_statistics(self, twitter_like_profile):
        assert twitter_like_profile.frame_bytes == 8 * 41_652_230 + 8
        assert twitter_like_profile.vertex_diameter == 24
        assert twitter_like_profile.omega() > 0
        assert twitter_like_profile.kind == "complex"

    def test_road_kind_detection(self, road_like_profile):
        assert road_like_profile.kind == "road"

    def test_from_graph_measures_cost(self, small_social_graph):
        profile = InstanceProfile.from_graph(
            "proxy", small_social_graph, diameter=4, target_samples=1000, eps=0.05
        )
        assert profile.edges_per_sample > 0
        assert profile.num_vertices == small_social_graph.num_vertices

    def test_scaled(self, twitter_like_profile):
        half = twitter_like_profile.scaled(0.5)
        assert half.num_vertices == pytest.approx(twitter_like_profile.num_vertices / 2, rel=0.01)
        assert half.target_samples == twitter_like_profile.target_samples
        with pytest.raises(ValueError):
            twitter_like_profile.scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceProfile("x", 0, 10, 5, target_samples=10, edges_per_sample=1.0, calibration_samples=1)
        with pytest.raises(ValueError):
            InstanceProfile("x", 10, 10, 5, target_samples=0, edges_per_sample=1.0, calibration_samples=1)
        with pytest.raises(ValueError):
            InstanceProfile("x", 10, 10, 5, target_samples=10, edges_per_sample=0.0, calibration_samples=1)

    def test_phase_costs_positive(self, twitter_like_profile):
        machine = PAPER_CLUSTER.machine
        assert twitter_like_profile.diameter_seconds(machine) > 0
        assert twitter_like_profile.calibration_sequential_seconds(machine) > 0
        assert twitter_like_profile.check_seconds(machine) > 0


class TestSimulations:
    def test_shared_memory_run_structure(self, twitter_like_profile):
        run = simulate_shared_memory(twitter_like_profile)
        assert isinstance(run, SimulatedRun)
        assert run.algorithm == "shared-memory"
        assert run.num_epochs >= 1
        assert run.total_samples >= twitter_like_profile.target_samples
        assert run.total_seconds > 0

    def test_epoch_mpi_speedup_monotone_in_nodes(self, twitter_like_profile):
        times = [
            simulate_epoch_mpi(twitter_like_profile, num_nodes=n).total_seconds
            for n in (1, 2, 4, 8, 16)
        ]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_ads_speedup_near_linear(self, twitter_like_profile):
        base = simulate_shared_memory(twitter_like_profile)
        mpi16 = simulate_epoch_mpi(twitter_like_profile, num_nodes=16)
        ads_speedup = base.adaptive_sampling_seconds / mpi16.adaptive_sampling_seconds
        assert 12.0 <= ads_speedup <= 24.0

    def test_numa_placement_gain(self, twitter_like_profile):
        per_socket = simulate_epoch_mpi(twitter_like_profile, num_nodes=1, processes_per_node=2)
        per_node = simulate_epoch_mpi(twitter_like_profile, num_nodes=1, processes_per_node=1)
        gain = per_node.adaptive_sampling_seconds / per_socket.adaptive_sampling_seconds
        assert 1.1 <= gain <= 1.4

    def test_road_vs_complex_epoch_structure(self, road_like_profile, twitter_like_profile):
        road = simulate_epoch_mpi(road_like_profile, num_nodes=16)
        big = simulate_epoch_mpi(twitter_like_profile, num_nodes=16)
        assert road.num_epochs > big.num_epochs
        assert road.communication_bytes_per_epoch < big.communication_bytes_per_epoch

    def test_communication_volume_formula(self, twitter_like_profile):
        run = simulate_epoch_mpi(twitter_like_profile, num_nodes=16, processes_per_node=2)
        assert run.communication_bytes_per_epoch == pytest.approx(
            32 * twitter_like_profile.frame_bytes
        )

    def test_phase_fractions_sum_to_one(self, twitter_like_profile):
        run = simulate_epoch_mpi(twitter_like_profile, num_nodes=8)
        assert sum(run.phase_fractions().values()) == pytest.approx(1.0)
        stacked = run.stacked_breakdown()
        assert len(stacked) == len(PHASE_ORDER)
        assert sum(stacked) == pytest.approx(1.0, abs=1e-9)

    def test_mpi_only_larger_reduction_cost(self, twitter_like_profile):
        epoch = simulate_epoch_mpi(twitter_like_profile, num_nodes=8)
        mpi_only = simulate_mpi_only(twitter_like_profile, num_nodes=8)
        assert mpi_only.algorithm == "mpi-only"
        per_epoch_reduce_mpi_only = mpi_only.phase_seconds["reduce"] / max(mpi_only.num_epochs, 1)
        per_epoch_reduce_epoch = epoch.phase_seconds["reduce"] / max(epoch.num_epochs, 1)
        assert per_epoch_reduce_mpi_only > per_epoch_reduce_epoch

    def test_samples_per_second_per_node_flat(self, twitter_like_profile):
        values = [
            simulate_epoch_mpi(twitter_like_profile, num_nodes=n).samples_per_second_per_node
            for n in (2, 4, 8, 16)
        ]
        assert max(values) / min(values) < 1.5

    def test_node_count_validation(self, twitter_like_profile):
        with pytest.raises(ValueError):
            simulate_epoch_mpi(twitter_like_profile, num_nodes=0)
        with pytest.raises(ValueError):
            simulate_epoch_mpi(twitter_like_profile, num_nodes=64)
        with pytest.raises(ValueError):
            simulate_shared_memory(twitter_like_profile, num_threads=0)
        with pytest.raises(ValueError):
            simulate_mpi_only(twitter_like_profile, num_nodes=0)
