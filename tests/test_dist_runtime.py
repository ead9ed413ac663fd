"""End-to-end tests for the multi-process distributed runtime (``repro.dist``).

These start *real* OS processes through :func:`repro.dist.launcher.launch_local`
(each worker is forked from the launcher and calls ``run_worker``), talk over loopback TCP
via :class:`~repro.dist.socketcomm.SocketComm`, and map partitioned ``.rcsr``
shards.  The acceptance criteria of the distributed PR live here: a 4-process
run where each rank eagerly maps only its own shard satisfies the
``(eps, delta)`` guarantee against exact Brandes, and a SIGKILLed worker is
resumed from the last epoch-boundary checkpoint with zero lost samples.
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest


from comm_conformance import pick_free_port

import repro.dist.driver as driver
import repro.dist.launcher as launcher
from repro.baselines import brandes_betweenness
from repro.cli import main as cli_main
from repro.core.options import KadabraOptions
from repro.dist.driver import DistWorkerConfig, receive_result, write_result
from repro.dist.launcher import LaunchError, launch_local
from repro.graph import CSRGraph, read_edge_list
from repro.graph.generators import barabasi_albert
from repro.session import EstimationSession, SessionCapabilityError, open_session
from repro.session.snapshot import read_snapshot
from repro.store import GraphCatalog, open_rcsr, write_rcsr

EXAMPLE_EDGE_LIST = Path(__file__).resolve().parents[1] / "examples" / "data" / "example-social.txt"


@pytest.fixture()
def social_rcsr(tmp_path) -> Path:
    """The example social graph converted to ``.rcsr`` inside ``tmp_path``.

    Shards are written next to the container, so everything stays in the
    per-test directory and never touches ``examples/data``.
    """
    return Path(GraphCatalog().resolve(str(EXAMPLE_EDGE_LIST)))


@pytest.fixture(scope="module")
def exact_scores() -> np.ndarray:
    graph = read_edge_list(EXAMPLE_EDGE_LIST)
    return brandes_betweenness(graph).scores


class TestLauncherBasics:
    def test_pick_free_port_is_bindable(self):
        import socket

        port = pick_free_port()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.bind(("127.0.0.1", port))

    def test_worker_config_argv_round_trip(self):
        config = DistWorkerConfig(
            graph="g.rcsr",
            rank=2,
            size=4,
            port=1234,
            parts=4,
            options=KadabraOptions(eps=0.07, seed=5),
            checkpoint="c.snap",
            resume=True,
        )
        argv = config.to_argv()
        assert argv[:2] == ["dist", "worker"]
        assert "--resume" in argv
        assert argv[argv.index("--rank") + 1] == "2"
        assert argv[argv.index("--eps") + 1] == "0.07"

    def test_missing_graph_rejected(self, tmp_path):
        with pytest.raises(LaunchError, match="not found"):
            launch_local(str(tmp_path / "nope.rcsr"), processes=2)

    def test_invalid_process_count_rejected(self, social_rcsr):
        with pytest.raises(LaunchError, match="positive"):
            launch_local(str(social_rcsr), processes=0)


#: A run's parameters: every rank of one run shares them.
RUN_PARAMETERS = (
    "parts", "algorithm", "threads", "max_epochs", "checkpoint", "checkpoint_every",
    "eps", "delta", "seed", "calibration_samples", "samples_per_check", "max_samples",
)


class TestRunParameters:
    """``DistWorkerConfig`` alone names a run's parameters, defaults and checks."""

    @staticmethod
    def parse(argv):
        from repro.cli import build_dist_parser

        return build_dist_parser().parse_args(argv)

    def test_the_launcher_and_the_commands_share_one_field_list(self):
        assert driver.RUN_FIELDS == RUN_PARAMETERS

    @pytest.mark.parametrize(
        "config",
        [
            DistWorkerConfig(graph="g.rcsr", rank=0, size=1, port=0),
            DistWorkerConfig(
                graph="g.rcsr", rank=2, size=3, port=4321, host="10.0.0.2",
                parts=3, algorithm="mpi-only", threads=2, max_epochs=4,
                options=KadabraOptions(
                    eps=0.07, delta=0.2, seed=5, samples_per_check=300, calibration_samples=40,
                    max_samples_override=900,
                ),
                checkpoint="c.snap", checkpoint_every=2, resume=True, result_path="r.json", timeout=9.5,
            ),
        ],
        ids=["defaults", "every-field-set"],
    )
    def test_to_argv_and_from_args_are_inverses(self, config):
        assert DistWorkerConfig.from_flags(vars(self.parse(config.to_argv()[1:]))) == config

    def test_dist_worker_requires_its_rank_and_graph(self, capsys):
        for argv in (["worker", "--rank", "0", "--size", "1"], ["worker", "--graph", "g.rcsr", "--size", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                self.parse(argv)
            assert exit_info.value.code == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["host", "port", "resume", "result_path", "timeout"])
    def test_dist_worker_defaults_are_the_configs(self, field):
        args = self.parse(["worker", "--graph", "g.rcsr", "--rank", "0", "--size", "1"])
        assert getattr(DistWorkerConfig.from_flags(vars(args)), field) == getattr(
            DistWorkerConfig(graph="g.rcsr", rank=0, size=1), field
        )

    def test_a_rank_other_than_zero_dials_host_and_port(self, social_rcsr, monkeypatch):
        dialled = []

        def refuse(cls, host, port, rank, size, *, timeout):
            dialled.append((host, port, rank, size, timeout))
            raise ConnectionRefusedError("no hub")

        monkeypatch.setattr(driver.SocketComm, "connect", classmethod(refuse))
        argv = ["worker", "--graph", str(social_rcsr), "--rank", "1", "--size", "2",
                "--host", "10.0.0.7", "--port", "4321", "--timeout", "2.5"]
        with pytest.raises(ConnectionRefusedError):
            driver.run_worker(DistWorkerConfig.from_flags(vars(self.parse(argv))))
        assert dialled == [("10.0.0.7", 4321, 1, 2, 2.5)]

    @pytest.fixture()
    def no_fork(self, monkeypatch):
        """Fail the test if the launcher binds a port or forks a rank."""
        import repro.dist.launcher as launcher

        def refuse(*args, **kwargs):
            raise AssertionError("a bad run reached the fork")

        monkeypatch.setattr(launcher, "fork_rank", refuse)
        monkeypatch.setattr(launcher, "bind_listener", refuse)

    @pytest.mark.parametrize("bad", [{"eps": -1}, {"threads": 0}, {"checkpoint_every": 0}])
    def test_a_bad_run_is_refused_before_the_fork(self, social_rcsr, no_fork, bad):
        with pytest.raises(ValueError):
            launch_local(str(social_rcsr), processes=2, **bad)

    @pytest.mark.parametrize("field", ["rank", "resume", "size"])
    def test_fields_the_launcher_sets_are_not_run_parameters(self, social_rcsr, no_fork, field):
        with pytest.raises(TypeError):
            launch_local(str(social_rcsr), processes=2, **{field: 1})

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{graph}", "--processes", "2", "--eps", "-1"],
            ["run", "{graph}", "--threads", "0"],
            ["run", "{graph}", "--checkpoint-every", "0"],
            ["worker", "--graph", "{graph}", "--rank", "0", "--size", "1", "--eps", "-1"],
            ["worker", "--graph", "{graph}", "--rank", "0", "--size", "1", "--threads", "0"],
            ["worker", "--graph", "{graph}", "--rank", "2", "--size", "2", "--timeout", "1"],
        ],
    )
    def test_the_commands_refuse_a_bad_run_with_one_error_line(self, social_rcsr, no_fork, capsys, argv):
        code = cli_main(["dist", *(arg.format(graph=social_rcsr) for arg in argv)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err


class TestFourProcessEndToEnd:
    def test_partitioned_run_meets_guarantee(self, social_rcsr, exact_scores):
        result = launch_local(
            str(social_rcsr),
            processes=4,
            parts=4,
            eps=0.12,
            delta=0.1,
            seed=31,
            samples_per_check=200,
            max_samples=6000,
            timeout=300.0,
        )
        assert result["restarts"] == 0
        assert result["num_processes"] == 4
        assert result["parts"] == 4
        assert result["num_samples"] > 0
        assert result["communication_bytes"] > 0
        # Every rank eagerly maps exactly its own shard; siblings only ever
        # arrive lazily (memory-mapped) during path traversal.
        per_rank = result["per_rank"]
        assert [r["rank"] for r in per_rank] == [0, 1, 2, 3]
        for report in per_rank:
            assert report["eager_parts"] == [report["rank"]]
            assert report["local_samples"] > 0
        scores = np.asarray(result["scores"])
        assert scores.shape == exact_scores.shape
        assert float(np.max(np.abs(scores - exact_scores))) <= result["eps"]

    def test_rmat_partitioned_guarantee(self, tmp_path):
        # The acceptance scenario verbatim: Algorithm 2 at 4 processes on a
        # partitioned R-MAT graph, each rank mapping only its shard, within
        # (eps, delta) of exact Brandes.
        from repro.graph.generators import rmat_graph
        from repro.store import write_rcsr

        graph = rmat_graph(7, edge_factor=8, seed=3)
        rcsr = tmp_path / "rmat.rcsr"
        write_rcsr(graph, rcsr)
        result = launch_local(
            str(rcsr),
            processes=4,
            parts=4,
            eps=0.15,
            delta=0.1,
            seed=17,
            samples_per_check=200,
            max_samples=5000,
            timeout=300.0,
        )
        assert result["restarts"] == 0
        assert all(r["eager_parts"] == [r["rank"]] for r in result["per_rank"])
        exact = brandes_betweenness(graph).scores
        scores = np.asarray(result["scores"])
        assert float(np.max(np.abs(scores - exact))) <= result["eps"]

    def test_mpi_only_algorithm_runs(self, social_rcsr, exact_scores):
        result = launch_local(
            str(social_rcsr),
            processes=2,
            parts=2,
            algorithm="mpi-only",
            eps=0.15,
            delta=0.1,
            seed=13,
            samples_per_check=200,
            max_samples=5000,
            timeout=300.0,
        )
        assert result["algorithm"] == "mpi-only"
        assert result["restarts"] == 0
        scores = np.asarray(result["scores"])
        assert float(np.max(np.abs(scores - exact_scores))) <= result["eps"]


class TestFaultToleranceResume:
    # The tighter target of the second case runs enough epochs that the
    # kill still lands mid-run after its later first checkpoint.
    @pytest.mark.parametrize("checkpoint_every, eps", [(1, 0.08), (2, 0.05)])
    def test_sigkilled_worker_resumes_from_checkpoint(
        self, tmp_path, social_rcsr, exact_scores, checkpoint_every, eps
    ):
        checkpoint = tmp_path / "dist.snap"
        result = launch_local(
            str(social_rcsr),
            processes=2,
            parts=2,
            eps=eps,
            delta=0.1,
            seed=11,
            samples_per_check=150,
            max_samples=6000,
            checkpoint=str(checkpoint),
            checkpoint_every=checkpoint_every,
            fault_rank=1,
            timeout=300.0,
        )
        # One worker was SIGKILLed right after the first checkpoint landed;
        # the world restarted exactly once and resumed past that boundary,
        # which with checkpoint_every=2 is a later one than the first.
        assert result["restarts"] == 1
        assert result["resumed_from_epoch"] >= checkpoint_every
        assert result["resumed_from_epoch"] % checkpoint_every == 0
        assert result["resumed_from_samples"] > 0
        # Zero lost samples: the final count includes everything aggregated
        # before the fault.
        assert result["num_samples"] >= result["resumed_from_samples"]
        scores = np.asarray(result["scores"])
        assert float(np.max(np.abs(scores - exact_scores))) <= result["eps"]
        # The checkpoint is a session snapshot of rank 0's state.
        meta, arrays = read_snapshot(checkpoint)
        assert meta["kind"] == "repro-estimation-session"
        assert meta["algorithm"] == "distributed"
        assert meta["achieved"] == {"eps": None, "delta": None}
        assert meta["rng_state"] is None
        assert set(arrays) >= {"counts", "calibration_counts"}
        # It restores through the session code, and refuses to refine: its
        # samples come from the ranks' streams, not a session stream.
        state = EstimationSession.restore(checkpoint, graph=open_rcsr(social_rcsr))
        assert state.algorithm == "distributed" and not state.supports_refinement
        assert state.num_samples == meta["frame"]["num_samples"]
        with pytest.raises(SessionCapabilityError):
            state.refine(0.05, 0.1)

    def test_sigkilled_rank_zero_delivers_after_the_restart(self, tmp_path, social_rcsr, exact_scores):
        # Rank 0 holds the result's pipe end; the second generation's rank 0
        # must deliver through the fresh pipe of its own generation.
        checkpoint = tmp_path / "dist.snap"
        out = tmp_path / "result.json"
        result = launch_local(
            str(social_rcsr),
            processes=2,
            parts=2,
            eps=0.08,
            delta=0.1,
            seed=11,
            samples_per_check=150,
            max_samples=6000,
            checkpoint=str(checkpoint),
            fault_rank=0,
            result_path=str(out),
            timeout=300.0,
        )
        assert result["restarts"] == 1
        assert result["resumed_from_samples"] > 0
        assert json.loads(out.read_text()) == {k: v for k, v in result.items() if k != "restarts"}
        scores = np.asarray(result["scores"])
        assert float(np.max(np.abs(scores - exact_scores))) <= result["eps"]

    def test_restart_budget_exhaustion_raises(self, tmp_path, social_rcsr):
        # With a zero restart budget the launcher must surface the failure
        # instead of resuming.
        with pytest.raises(LaunchError, match="restart budget"):
            launch_local(
                str(social_rcsr),
                processes=2,
                parts=2,
                eps=0.05,
                seed=3,
                samples_per_check=100,
                max_samples=4000,
                checkpoint=str(tmp_path / "budget.snap"),
                max_restarts=0,
                fault_rank=1,
                timeout=300.0,
            )


class TestWorkerCommand:
    """``repro.cli dist worker``: one rank per command."""

    @staticmethod
    def worker(graph, *extra):
        return cli_main(
            ["dist", "worker", "--graph", str(graph), "--rank", "0", "--size", "1",
             "--eps", "0.2", "--seed", "3", "--samples-per-check", "100", "--timeout", "20",
             *extra]
        )

    def test_rank_zero_connects_to_the_port_its_hub_bound(self, social_rcsr, tmp_path):
        out = tmp_path / "result.json"
        assert self.worker(social_rcsr, "--output", str(out)) == 0  # default --port 0
        assert json.loads(out.read_text())["num_processes"] == 1

    def test_a_run_stopped_by_calibration_reports_its_rate(self, social_rcsr, tmp_path):
        """One worker stops at omega: at eps 0.2 omega is below the default
        200 calibration samples, so the adaptive phase draws nothing, and the
        rate is calibration's."""
        out = tmp_path / "result.json"
        assert self.worker(social_rcsr, "--output", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["num_samples"] == result["omega"] < 200
        assert result["per_rank"][0]["local_samples"] == 0
        assert result["aggregate_samples_per_sec"] > 0

    @pytest.fixture()
    def checkpoint(self, social_rcsr, tmp_path):
        path = tmp_path / "rank0.snap"
        assert self.worker(social_rcsr, "--checkpoint", str(path), "--max-epochs", "2") == 0
        return path

    def resume_fails(self, capsys, graph, checkpoint, *extra):
        code = self.worker(graph, "--checkpoint", str(checkpoint), "--resume", *extra)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]

    def test_resume_continues_from_the_checkpoint(self, social_rcsr, checkpoint, tmp_path):
        out = tmp_path / "result.json"
        saved = read_snapshot(checkpoint)[0]
        assert self.worker(social_rcsr, "--checkpoint", str(checkpoint), "--resume", "--output", str(out)) == 0
        result = json.loads(out.read_text())
        assert result["resumed_from_epoch"] == saved["checks"] >= 1
        assert result["resumed_from_samples"] == saved["frame"]["num_samples"]
        assert result["num_samples"] >= result["resumed_from_samples"]

    def test_session_refine_refuses_the_checkpoint(self, capsys, checkpoint):
        # Without --graph the restore re-opens the .rcsr the snapshot records.
        assert cli_main(["session", "refine", str(checkpoint), "--eps", "0.1"]) == 2
        assert "does not support refinement" in capsys.readouterr().err

    def test_resume_on_another_graph(self, capsys, checkpoint, tmp_path):
        other = tmp_path / "other.rcsr"
        write_rcsr(barabasi_albert(120, 2, seed=1), other)
        assert "graph mismatch" in self.resume_fails(capsys, other, checkpoint)

    def test_resume_with_another_target(self, capsys, social_rcsr, checkpoint):
        assert "(eps, delta)" in self.resume_fails(capsys, social_rcsr, checkpoint, "--eps", "0.1")

    def test_resume_from_a_truncated_checkpoint(self, capsys, social_rcsr, checkpoint):
        checkpoint.write_bytes(checkpoint.read_bytes()[:100])
        assert "truncated" in self.resume_fails(capsys, social_rcsr, checkpoint)

    def test_resume_from_a_sequential_session(self, capsys, social_rcsr, tmp_path):
        snap = tmp_path / "seq.snap"
        session = open_session(open_rcsr(social_rcsr), seed=3)
        session.run(0.2, 0.1)
        session.checkpoint(snap)
        assert "sequential session" in self.resume_fails(capsys, social_rcsr, snap)


class TestResultArtifact:
    def test_result_json_written_and_loadable(self, tmp_path, social_rcsr):
        out = tmp_path / "result.json"
        result = launch_local(
            str(social_rcsr),
            processes=2,
            parts=2,
            eps=0.2,
            seed=7,
            samples_per_check=200,
            max_samples=2000,
            result_path=str(out),
            timeout=300.0,
        )
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["num_samples"] == result["num_samples"]
        assert on_disk["scores"] == result["scores"]
        # Equal scores are one float object: a kept result costs a list of
        # pointers, not a float per vertex.
        scores = result["scores"]
        assert len({id(score) for score in scores}) == len(set(scores)) < len(scores)

    def test_the_rate_counts_what_its_clock_timed(self, social_rcsr):
        """``local_samples`` include what thread 0 drew while the pre-loop
        collectives were in flight, before the loop's clock starts, so the
        rate leaves those out."""
        result = launch_local(str(social_rcsr), processes=2, eps=0.1, seed=3, timeout=300.0)
        per_rank = result["per_rank"]
        assert all(0 <= r["opening_samples"] <= r["local_samples"] for r in per_rank)
        loop_samples = sum(r["local_samples"] - r["opening_samples"] for r in per_rank)
        assert result["aggregate_samples_per_sec"] == pytest.approx(
            loop_samples / max(r["adaptive_seconds"] for r in per_rank)
        )

    def test_every_rank_samples_in_a_loop_of_two_epochs(self, social_rcsr):
        """At eps 0.1 the one epoch is the last, and an opening of n0 plus a
        batch can hold a rank's whole share, so the loop may draw nothing
        (its rate is then 0).  At eps 0.04 omega (2,187) less calibration's
        200 is more than epoch 0 can add, so the run has a second epoch, and
        every rank samples in the loop: that epoch draws n0 or tops its frame
        up to the rank's share, and its frame holds only what the loop
        overlapped."""
        result = launch_local(str(social_rcsr), processes=2, eps=0.04, seed=3, timeout=300.0)
        per_rank = result["per_rank"]
        assert result["num_epochs"] >= 2
        assert all(0 <= r["opening_samples"] < r["local_samples"] for r in per_rank)
        loop_samples = sum(r["local_samples"] - r["opening_samples"] for r in per_rank)
        assert result["aggregate_samples_per_sec"] == pytest.approx(
            loop_samples / max(r["adaptive_seconds"] for r in per_rank)
        )

    def test_a_run_with_no_epoch_reports_the_calibration_rate(self, social_rcsr):
        """``max_samples`` 100 caps omega at calibration's count, so no epoch
        runs and the openings are dropped: the rate is the run's samples over
        the calibration phase's clock, not 0."""
        result = launch_local(
            str(social_rcsr), processes=2, eps=0.1, seed=3, max_samples=100, timeout=300.0
        )
        assert result["num_epochs"] == 0 and result["num_samples"] == result["omega"] == 100
        assert all(r["local_samples"] == r["opening_samples"] for r in result["per_rank"])
        assert result["aggregate_samples_per_sec"] == pytest.approx(
            result["num_samples"] / result["phase_seconds"]["calibration"]
        )


class TestTheOpeningFitsTheBudget:
    """Thread 0 samples while the pre-loop collectives are in flight, into
    its epoch-0 frame through epoch 0's counter: at most its rank's share of
    ``R0``, and before the diameter broadcast at most its share of the least
    ``R0`` any diameter gives, less one.  Openings of up to ``n0`` plus a
    batch each ended these runs at up to 1,000 samples of omega 300."""

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_two_ranks_end_at_omega(self, social_rcsr, seed):
        result = launch_local(str(social_rcsr), processes=2, eps=0.1, seed=seed, timeout=300.0)
        omega = result["omega"]  # 300 or 350, with the diameter bound
        assert result["num_samples"] == omega
        share = -(-(omega - 200) // 2)  # ceil(R0 / P), calibration drawing 200
        assert all(r["opening_samples"] <= share for r in result["per_rank"])


class TestResultHandOff:
    """Rank 0's result reaches the file and the caller unchanged."""

    @staticmethod
    def record_rank_zero_dict(monkeypatch, seen: Path):
        """Make rank 0 write ``json.dumps`` of the dict it built (scores as a list) to ``seen``."""
        real = driver._worker_body

        def worker_body(comm, *args):
            result = real(comm, *args)
            if result is not None:
                seen.write_text(json.dumps({**result, "scores": result["scores"].tolist()}))
            return result

        monkeypatch.setattr(driver, "_worker_body", worker_body)

    def test_launch_file_is_json_dumps_of_rank_zero_dict(self, tmp_path, social_rcsr, monkeypatch):
        seen, out = tmp_path / "seen.json", tmp_path / "result.json"
        self.record_rank_zero_dict(monkeypatch, seen)
        result = launch_local(
            str(social_rcsr), processes=2, eps=0.2, seed=7, samples_per_check=200,
            max_samples=2000, result_path=str(out), timeout=300.0,
        )
        assert out.read_text() == seen.read_text()
        assert json.loads(seen.read_text()) == {k: v for k, v in result.items() if k != "restarts"}

    def test_worker_output_is_json_dumps_of_rank_zero_dict(self, tmp_path, social_rcsr, monkeypatch):
        seen, out = tmp_path / "seen.json", tmp_path / "result.json"
        self.record_rank_zero_dict(monkeypatch, seen)
        assert TestWorkerCommand.worker(social_rcsr, "--output", str(out)) == 0
        assert out.read_text() == seen.read_text()

    @pytest.mark.parametrize("num_vertices", [0, 1])
    def test_graph_of_fewer_than_two_vertices(self, tmp_path, num_vertices, capsys):
        rcsr = tmp_path / "tiny.rcsr"
        write_rcsr(CSRGraph.empty(num_vertices), rcsr)
        out = tmp_path / "result.json"
        result = launch_local(str(rcsr), processes=2, max_restarts=0, result_path=str(out), timeout=60.0)
        assert result["scores"] == [0.0] * num_vertices
        assert result["num_samples"] == 0 and result["restarts"] == 0
        assert json.loads(out.read_text())["scores"] == result["scores"]
        assert cli_main(["dist", "run", str(rcsr), "--processes", "2", "--max-restarts", "0"]) == 0
        assert "samples: 0 in 0 epochs" in capsys.readouterr().out


class TestWriteResult:
    @pytest.mark.parametrize(
        "scores",
        [
            np.zeros(5),
            np.full(4, 0.125),
            np.array([0.0, -0.0, 0.5, 0.0]),  # equal, yet not the same text
            np.array([0.25, np.nan, np.inf, -np.inf, 0.25]),  # json spells these its own way
            np.zeros(0),
        ],
        ids=["all-zero", "one-distinct", "signed-zero", "non-finite", "empty"],
    )
    def test_text_is_json_dumps(self, tmp_path, scores):
        result = {"scores": scores, "num_samples": 3, "per_rank": [{"rank": 0, "loaded_parts": None}]}
        out = tmp_path / "sub" / "result.json"
        listed = write_result(out, result)
        expected = {**result, "scores": scores.tolist()}
        assert out.read_text() == json.dumps(expected)
        assert not out.with_name("result.json.tmp").exists()
        assert [repr(x) for x in listed] == [repr(x) for x in scores.tolist()]

    @pytest.mark.parametrize(
        "result",
        [
            {"per_rank": [{"scores": []}], "scores": np.array([0.5, 0.25])},  # an empty nested "scores" first
            {"num_samples": 3, "scores": np.array([0.5]), "extra": {"scores": [], "note": '"scores": []'}},
            {"scores": np.array([0.5]), "num_samples": 3},
            {"scores": np.array([0.5])},
        ],
        ids=["nested-before", "nested-after", "first", "only"],
    )
    def test_scores_land_at_the_top_level(self, tmp_path, result):
        out = tmp_path / "result.json"
        write_result(out, result)
        assert out.read_text() == json.dumps({**result, "scores": result["scores"].tolist()})

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["counts", "signed-zeros", "no-repeats"])
    def test_random_scores_are_json_dumps(self, tmp_path, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        if kind == "counts":  # an estimate: path counts over the sample count
            scores = rng.integers(0, 40, size=n) / float(rng.integers(1, 5000))
        elif kind == "signed-zeros":
            scores = rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300], size=n)
        else:
            scores = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
            assert len(set(scores.view(np.int64).tolist())) == n
        result = {"num_samples": n, "scores": scores, "per_rank": [{"rank": 0}]}
        out = tmp_path / "result.json"
        listed = write_result(out, result)
        assert out.read_text() == json.dumps({**result, "scores": scores.tolist()})
        assert np.array_equal(np.array(listed).view(np.int64), scores.view(np.int64))

    def test_equal_scores_share_one_float(self, tmp_path):
        listed = write_result(tmp_path / "r.json", {"scores": np.array([0.5, 0.0, 0.5, 0.0, 0.5])})
        assert listed == [0.5, 0.0, 0.5, 0.0, 0.5]
        assert len({id(score) for score in listed}) == 2


class TestHandOffPipe:
    """The launcher grows rank 0's hand-off pipe to hold the scores, best effort."""

    @staticmethod
    def pipe_size(rcsr) -> int:
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("pipe sizes are Linux only")
        reader, writer = multiprocessing.Pipe(duplex=False)
        try:
            launcher._grow_pipe(writer, rcsr)
            return fcntl.fcntl(writer.fileno(), fcntl.F_GETPIPE_SZ)
        finally:
            reader.close()
            writer.close()

    def test_grown_to_the_scores(self, tmp_path):
        rcsr = tmp_path / "g.rcsr"
        write_rcsr(CSRGraph.empty(40_000), rcsr)
        cap = int(Path("/proc/sys/fs/pipe-max-size").read_text())
        assert self.pipe_size(rcsr) >= min(8 * 40_000, cap)

    def test_a_refused_resize_keeps_the_default(self, tmp_path, monkeypatch):
        untouched = self.pipe_size(tmp_path / "missing.rcsr")  # no header to size by
        rcsr = tmp_path / "g.rcsr"
        write_rcsr(CSRGraph.empty(40_000), rcsr)
        fcntl = launcher.fcntl.fcntl

        def refusing(fd, command, *args):
            if command == launcher.fcntl.F_SETPIPE_SZ:
                raise PermissionError("over the user's pipe quota")
            return fcntl(fd, command, *args)

        monkeypatch.setattr(launcher.fcntl, "fcntl", refusing)
        assert self.pipe_size(rcsr) == untouched


class TestReceiveResult:
    @staticmethod
    def sent(*messages):
        reader, writer = multiprocessing.Pipe(duplex=False)
        for message in messages:
            writer.send_bytes(message)
        writer.close()
        try:
            return receive_result(reader)
        finally:
            reader.close()

    def test_round_trip(self):
        scores = np.array([0.0, 0.25, 0.5])
        received = self.sent(json.dumps({"scores": 3, "num_samples": 8}).encode(), scores.tobytes())
        assert received["num_samples"] == 8
        assert received["scores"].tolist() == scores.tolist()

    def test_short_buffer_is_no_result(self):
        assert self.sent(json.dumps({"scores": 3}).encode(), np.zeros(2).tobytes()) is None

    def test_missing_buffer_is_no_result(self):
        assert self.sent(json.dumps({"scores": 3}).encode()) is None
        assert self.sent() is None
