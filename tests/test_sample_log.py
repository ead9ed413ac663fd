"""SampleLog: chunked appends and mask-based replace equal an eager reference log."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.session.sample_log import SampleLog

NUM_VERTICES = 30


def make_batch(samples) -> SimpleNamespace:
    """A SampleBatch stand-in from ``(source, target, length, interior)`` rows."""
    sizes = [len(row[3]) for row in samples]
    return SimpleNamespace(
        num_samples=len(samples),
        sources=np.array([row[0] for row in samples], np.int64),
        targets=np.array([row[1] for row in samples], np.int64),
        connected=np.array([row[2] >= 0 for row in samples], bool),
        # A disconnected sample's kernel length is not -1; the log writes -1.
        lengths=np.array([row[2] if row[2] >= 0 else 0 for row in samples], np.int64),
        contrib_indptr=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        contrib_vertices=np.array([v for row in samples for v in row[3]], np.int64),
    )


def reference_arrays(rows) -> dict:
    """The log of ``rows`` concatenated eagerly, as the snapshot names it."""
    sizes = [len(row[3]) for row in rows]
    return {
        "log_sources": np.array([row[0] for row in rows], np.int64),
        "log_targets": np.array([row[1] for row in rows], np.int64),
        "log_lengths": np.array([row[2] for row in rows], np.int64),
        "log_indptr": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        "log_vertices": np.array([v for row in rows for v in row[3]], np.int64),
    }


def assert_log_equals(log: SampleLog, rows) -> None:
    expected = reference_arrays(rows)
    actual = log.snapshot_arrays()
    assert set(actual) == set(expected)
    for name, array in expected.items():
        assert actual[name].dtype == np.int64
        assert np.array_equal(actual[name], array), name


PATHS = st.lists(st.integers(0, NUM_VERTICES - 1), max_size=4, unique=True)
SAMPLES = st.tuples(
    st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1), st.integers(-1, 6), PATHS
)
OPS = st.one_of(
    st.tuples(st.just("append"), st.lists(SAMPLES, max_size=5)),
    st.tuples(st.just("replace"), st.randoms(use_true_random=False)),
    st.tuples(st.just("contributions_of"), st.integers(0, 10**6)),
    st.tuples(st.just("num_samples"), st.none()),
    st.tuples(st.just("snapshot_arrays"), st.none()),
    st.tuples(st.just("round_trip"), st.none()),
)


class TestChunkedLog:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(OPS, max_size=25), replacements=st.lists(SAMPLES, min_size=40, max_size=40))
    def test_any_interleaving_equals_an_eager_reference(self, ops, replacements):
        log, rows = SampleLog.empty(), []
        for op, arg in ops:
            if op == "append":
                log.append_batch(make_batch(arg))
                rows.extend(arg)
            elif op == "replace" and rows:
                # Distinct indices in any order; same pairs, new lengths and paths.
                idx = arg.sample(range(len(rows)), arg.randint(0, len(rows)))
                fresh = [
                    (rows[i][0], rows[i][1], replacements[j % 40][2], replacements[j % 40][3])
                    for j, i in enumerate(idx)
                ]
                log.replace(np.array(idx, np.int64), make_batch(fresh))
                for i, row in zip(idx, fresh):
                    rows[i] = row
            elif op == "contributions_of" and rows:
                i = arg % len(rows)
                assert log.contributions_of(i).tolist() == list(rows[i][3])
            elif op == "snapshot_arrays":
                assert_log_equals(log, rows)
            elif op == "round_trip":
                floats = {k: v.astype(np.float64) for k, v in log.snapshot_arrays().items()}
                log = SampleLog.from_snapshot_arrays(floats)
            assert log.num_samples == len(rows)
        assert_log_equals(log, rows)
        for name in ("sources", "targets", "lengths", "indptr", "vertices"):
            assert np.array_equal(getattr(log, name), reference_arrays(rows)[f"log_{name}"])

    def test_appends_join_nothing_until_the_first_read(self, monkeypatch):
        rows = [(0, 5, 2, [3]), (1, 2, 1, []), (4, 6, -1, [])]
        batches = [make_batch([row]) for row in rows * 3]
        log = SampleLog.empty()
        calls = []
        concatenate = np.concatenate
        monkeypatch.setattr(np, "concatenate", lambda *a, **k: calls.append(1) or concatenate(*a, **k))
        for batch in batches:
            log.append_batch(batch)
        assert log.num_samples == 9
        assert calls == []
        assert log.sources.tolist() == [0, 1, 4] * 3
        joined = len(calls)
        assert joined > 0
        _ = (log.targets, log.lengths, log.indptr, log.vertices, log.snapshot_arrays())
        assert len(calls) == joined
        monkeypatch.undo()
        assert_log_equals(log, rows * 3)

    def test_replace_rejects_repeated_indices(self):
        rows = [(0, 5, 2, [3]), (1, 2, 1, [])]
        log = SampleLog.empty()
        log.append_batch(make_batch(rows))
        with pytest.raises(ValueError, match="distinct"):
            log.replace(np.array([0, 0]), make_batch([(0, 5, 3, [4]), (0, 5, 3, [4])]))
        assert_log_equals(log, rows)
