"""Unit tests for the utility helpers (statistics, validation, logging, tables)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.util import (
    check_non_negative,
    check_positive,
    check_probability,
    check_vertex,
    kendall_tau_top_k,
    max_abs_error,
    mean_abs_error,
    relative_rank_overlap,
)
from repro.util.logging import enable_console_logging, get_logger
from repro.util.progress import ProgressEvent, combine_callbacks, tag_backend
from repro.util.stats import harmonic_number
from repro.util.table import format_table


class TestFormatTable:
    def test_columns_align_and_lines_carry_no_trailing_blanks(self):
        table = format_table(("name", "description"), [("a", "first"), ("longer", "")])
        assert table.splitlines() == [
            "name    description",
            "------  -----------",
            "a       first",
            "longer",
        ]

    def test_no_rows_is_header_and_rule(self):
        assert format_table(("x", "yy"), []) == "x  yy\n-  --"


class TestStats:
    def test_errors(self):
        assert max_abs_error([1, 2], [1, 4]) == 2.0
        assert mean_abs_error([1, 2], [1, 4]) == 1.0
        assert max_abs_error([], []) == 0.0
        with pytest.raises(ValueError):
            max_abs_error([1], [1, 2])
        with pytest.raises(ValueError):
            mean_abs_error([1], [1, 2])

    def test_rank_overlap(self):
        exact = np.array([0.9, 0.5, 0.1, 0.0])
        approx = np.array([0.8, 0.6, 0.05, 0.01])
        assert relative_rank_overlap(approx, exact, 2) == 1.0
        swapped = np.array([0.1, 0.5, 0.9, 0.0])
        assert relative_rank_overlap(swapped, exact, 1) == 0.0
        with pytest.raises(ValueError):
            relative_rank_overlap(approx, exact, 0)

    def test_kendall_tau(self):
        exact = np.array([0.9, 0.5, 0.1, 0.0])
        assert kendall_tau_top_k(exact, exact, 3) == 1.0
        reversed_scores = exact[::-1].copy()
        assert kendall_tau_top_k(reversed_scores, exact, 4) == 0.0
        assert kendall_tau_top_k(exact, exact, 1) == 1.0

    def test_harmonic_number(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(1.0 + 0.5 + 1 / 3)
        with pytest.raises(ValueError):
            harmonic_number(-1)


class TestValidation:
    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                check_probability(bad, "p")

    def test_check_positive(self):
        assert check_positive(1e-9, "x") == 1e-9
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1.0, "x")

    def test_check_vertex(self):
        assert check_vertex(3, 5) == 3
        with pytest.raises(ValueError):
            check_vertex(5, 5)
        with pytest.raises(ValueError):
            check_vertex(-1, 5)


class TestProgressEvent:
    def test_as_dict_ts_none(self):
        payload = ProgressEvent(phase="diameter").as_dict()
        assert payload["ts"] is None

    def test_as_dict_ts_value(self):
        payload = ProgressEvent(phase="sampling", ts=1.25).as_dict()
        assert payload["ts"] == pytest.approx(1.25)
        assert isinstance(payload["ts"], float)


class TestCombineCallbacks:
    def test_none_and_empty(self):
        assert combine_callbacks(None) is None
        assert combine_callbacks([]) is None
        assert combine_callbacks(()) is None

    def test_single_callable_passthrough(self):
        def cb(event):
            pass

        assert combine_callbacks(cb) is cb
        assert combine_callbacks([cb]) is cb

    def test_invalid_entries_rejected(self):
        with pytest.raises(TypeError):
            combine_callbacks([lambda e: None, "not-a-callable"])

    def test_fan_out_order(self):
        seen = []
        combined = combine_callbacks(
            [lambda e: seen.append(("a", e.phase)), lambda e: seen.append(("b", e.phase))]
        )
        combined(ProgressEvent(phase="sampling"))
        assert seen == [("a", "sampling"), ("b", "sampling")]

    def test_nested_combination(self):
        seen = []
        inner = combine_callbacks(
            [lambda e: seen.append("x"), lambda e: seen.append("y")]
        )
        outer = combine_callbacks([inner, lambda e: seen.append("z")])
        outer(ProgressEvent(phase="sampling"))
        assert seen == ["x", "y", "z"]


class TestTagBackend:
    def test_none(self):
        assert tag_backend(None, "sequential") is None
        assert tag_backend([], "sequential") is None

    def test_tags_untagged_events(self):
        seen = []
        tagged = tag_backend(seen.append, "sequential")
        tagged(ProgressEvent(phase="sampling"))
        assert seen[0].backend == "sequential"

    def test_existing_backend_preserved(self):
        seen = []
        tagged = tag_backend(seen.append, "sequential")
        tagged(ProgressEvent(phase="sampling", backend="epoch"))
        assert seen[0].backend == "epoch"

    def test_accepts_iterable_of_callbacks(self):
        first, second = [], []
        tagged = tag_backend([first.append, second.append], "epoch")
        tagged(ProgressEvent(phase="sampling"))
        assert first[0].backend == "epoch"
        assert second[0].backend == "epoch"
        assert first[0] is second[0]


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("graph").name == "repro.graph"
        assert get_logger("repro.core").name == "repro.core"

    def test_enable_console_logging_idempotent(self):
        logger = enable_console_logging(logging.DEBUG)
        handlers_before = len(logger.handlers)
        enable_console_logging(logging.DEBUG)
        assert len(logger.handlers) == handlers_before
