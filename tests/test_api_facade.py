"""Tests for the unified ``estimate_betweenness`` facade and backend registry."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

from repro.api import (
    AUTO,
    BackendSpec,
    ProgressEvent,
    Resources,
    backend_names,
    estimate_betweenness,
    format_backend_table,
    get_backend,
    list_backends,
    register_backend,
    select_backend,
    unregister_backend,
)
from repro.core import KadabraOptions
from repro.graph.generators import barabasi_albert

FAST = dict(
    eps=0.2,
    delta=0.2,
    seed=7,
    calibration_samples=40,
    max_samples_override=300,
    samples_per_check=50,
)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(60, 3, seed=2)


class TestUniformSchema:
    @pytest.mark.parametrize("name", backend_names())
    def test_every_backend_returns_uniform_schema(self, graph, name):
        result = estimate_betweenness(
            graph,
            algorithm=name,
            resources=Resources(processes=2, threads=2),
            **FAST,
        )
        assert result.scores.shape == (graph.num_vertices,)
        assert np.all(result.scores >= 0.0)
        # The facade echoes the requested accuracy for every backend,
        # exact baselines included.
        assert result.eps == FAST["eps"]
        assert result.delta == FAST["delta"]
        assert result.backend == name
        assert result.resources["processes"] == 2
        assert result.resources["threads"] == 2
        assert result.phase_seconds
        assert "total" in result.phase_seconds
        # total_time reports the end-to-end time, not a double-counted sum.
        assert result.total_time == result.phase_seconds["total"]
        spec = get_backend(name)
        if not spec.exact:
            assert result.num_samples > 0

    def test_options_object_with_overrides(self, graph):
        options = KadabraOptions(eps=0.5, delta=0.3, seed=1, max_samples_override=200)
        result = estimate_betweenness(
            graph, algorithm="sequential", options=options, eps=0.25
        )
        assert result.eps == 0.25  # explicit kwarg wins over the options object
        assert result.delta == 0.3

    def test_unknown_option_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown option"):
            estimate_betweenness(graph, algorithm="sequential", not_an_option=3)

    def test_unknown_backend_lists_known_names(self, graph):
        with pytest.raises(ValueError, match="sequential"):
            estimate_betweenness(graph, algorithm="no-such-backend")

    def test_non_graph_rejected(self):
        with pytest.raises(TypeError):
            estimate_betweenness([1, 2, 3], algorithm="sequential")

    def test_same_seed_same_scores(self, graph):
        a = estimate_betweenness(graph, algorithm="sequential", **FAST)
        b = estimate_betweenness(graph, algorithm="sequential", **FAST)
        np.testing.assert_allclose(a.scores, b.scores)


class TestAutoSelection:
    def test_small_graph_single_worker_picks_exact(self, graph):
        result = estimate_betweenness(graph, algorithm=AUTO, eps=0.2)
        assert result.backend == "exact"

    def test_large_graph_single_worker_picks_sequential(self):
        assert select_backend(100_000, Resources()).name == "sequential"

    def test_threads_pick_shared_memory(self):
        assert select_backend(100_000, Resources(threads=8)).name == "shared-memory"

    def test_processes_pick_distributed(self):
        assert select_backend(100_000, Resources(processes=4, threads=2)).name == "distributed"

    def test_selection_is_deterministic(self):
        picks = {select_backend(500, Resources(threads=4)).name for _ in range(5)}
        assert len(picks) == 1


class TestProgressCallbacks:
    @pytest.mark.parametrize(
        "name, resources",
        [
            ("sequential", Resources()),
            ("shared-memory", Resources(threads=2)),
            ("distributed", Resources(processes=2, threads=2)),
            ("mpi-only", Resources(processes=2)),
            ("rk", Resources()),
            ("exact", Resources()),
            ("source-sampling", Resources()),
        ],
    )
    def test_events_are_emitted_and_tagged(self, graph, name, resources):
        events = []
        result = estimate_betweenness(
            graph, algorithm=name, resources=resources, callbacks=events.append, **FAST
        )
        assert events, "expected at least the final 'done' event"
        assert all(isinstance(e, ProgressEvent) for e in events)
        assert all(e.backend == name for e in events)
        assert events[-1].phase == "done"
        assert events[-1].num_samples == result.num_samples
        spec = get_backend(name)
        if not spec.exact and spec.cost_hint != "n-sssp":
            phases = {e.phase for e in events}
            assert "calibration" in phases or "diameter" in phases
        if spec.cost_hint == "n-sssp":
            assert any(e.phase == "sssp" for e in events)

    @pytest.mark.parametrize(
        "name, resources, kept",
        [
            ("sequential", Resources(), False),
            ("sequential", Resources(), True),
            ("shared-memory", Resources(threads=2), False),
            ("distributed", Resources(processes=2), False),
        ],
    )
    def test_every_event_carries_a_ts_that_never_decreases(self, graph, tmp_path, name, resources, kept):
        events = []
        estimate_betweenness(
            graph, algorithm=name, resources=resources, callbacks=events.append,
            checkpoint_path=tmp_path / "kept.snap" if kept else None, **FAST,
        )
        stamps = [e.ts for e in events]
        assert len(stamps) > 1 and None not in stamps
        assert stamps == sorted(stamps)
        assert {e.backend for e in events} == {name}

    def test_adaptive_epochs_observable(self, graph):
        events = []
        estimate_betweenness(graph, algorithm="sequential", callbacks=[events.append], **FAST)
        adaptive = [e for e in events if e.phase == "adaptive_sampling"]
        assert adaptive
        assert all(e.omega is not None for e in adaptive)
        samples = [e.num_samples for e in adaptive]
        assert samples == sorted(samples)

    def test_multiple_callbacks_fan_out(self, graph):
        first, second = [], []
        estimate_betweenness(
            graph, algorithm="rk", callbacks=[first.append, second.append], **FAST
        )
        assert [e.phase for e in first] == [e.phase for e in second]


class TestRegistry:
    def test_registry_drives_table(self):
        table = format_backend_table()
        for spec in list_backends():
            assert spec.name in table

    def test_duplicate_registration_rejected(self):
        spec = list_backends()[0]
        with pytest.raises(ValueError, match="already registered"):
            register_backend(spec.name, spec.runner)

    def test_auto_name_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_backend(AUTO, lambda *a: None)

    def test_unknown_capability_rejected(self):
        with pytest.raises(TypeError):
            register_backend("typo-test", lambda *a: None, supports_thread=True)
        assert "typo-test" not in backend_names()

    def test_capabilities_reach_the_spec(self):
        try:
            spec = register_backend(
                "caps-test", lambda *a: None, exact=True, supports_threads=True, auto_rank=7
            )
            default = BackendSpec(name="caps-test", runner=spec.runner)
            assert spec == dataclasses.replace(
                default, exact=True, supports_threads=True, auto_rank=7
            )
            assert get_backend("caps-test") is spec
        finally:
            unregister_backend("caps-test")

    def test_replace_and_runner_checks(self):
        try:
            register_backend("replace-test", lambda *a: None, description="first")
            spec = register_backend(
                "replace-test", lambda *a: None, replace=True, description="second"
            )
            assert get_backend("replace-test") is spec
            assert spec.description == "second"
        finally:
            unregister_backend("replace-test")
        with pytest.raises(TypeError, match="callable"):
            register_backend("not-callable-test", "runner")
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("", lambda *a: None)
        assert "not-callable-test" not in backend_names()

    def test_custom_backend_roundtrip(self, graph):
        def constant_runner(g, options, resources, progress):
            from repro.core import BetweennessResult

            return BetweennessResult(scores=np.zeros(g.num_vertices), num_samples=1)

        try:
            spec = register_backend(
                "constant-test", constant_runner, description="test-only backend"
            )
            assert isinstance(spec, BackendSpec)
            assert "constant-test" in backend_names()
            result = estimate_betweenness(graph, algorithm="constant-test", eps=0.2)
            assert result.backend == "constant-test"
            assert result.eps == 0.2
            assert "total" in result.phase_seconds
        finally:
            unregister_backend("constant-test")
        assert "constant-test" not in backend_names()

    def test_resources_validation(self):
        with pytest.raises(ValueError):
            Resources(processes=0)
        with pytest.raises(ValueError):
            Resources(threads=-1)
        assert Resources(processes=3, threads=2).total_workers == 6


class TestPublicSurface:
    @pytest.mark.parametrize("package", ["cluster", "experiments"])
    def test_simulated_cluster_packages_are_gone(self, package):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{package}")

    @pytest.mark.parametrize("module", ["sampling._reference", "util.logging"])
    def test_test_only_modules_do_not_ship(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{module}")


class TestCliPolish:
    def test_list_backends_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_missing_file_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["/definitely/not/a/file.txt"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_graph_argument(self, capsys):
        from repro.cli import main

        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_algorithm_choices_come_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "algorithm")
        assert set(action.choices) == {AUTO, *backend_names()}

    def test_cli_runs_through_facade(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        graph = barabasi_albert(40, 2, seed=5)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        code = main(
            [str(path), "--algorithm", "auto", "--eps", "0.2", "--seed", "1", "--top", "3", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "algorithm: exact" in captured.out  # auto on a tiny graph
        assert "top-3 vertices" in captured.out
