"""Random-number-generator management for parallel sampling.

Every sampling thread of every (simulated) MPI rank must draw from an
independent stream; numpy's :class:`~numpy.random.SeedSequence` spawning
provides statistically independent child streams from one master seed.  A
stream is fixed by ``(seed, rank, thread)`` whatever the number of
processes/threads.  A parallel result is not fixed by the seed alone: it also
depends on how many samples each thread drew before the run stopped, which
timing decides and nothing records yet.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_for_rank_thread", "derive_seed", "draw_vertex_pairs", "generator_from_state", "generator_state",
]

#: Rejection rounds before :func:`draw_vertex_pairs` switches to direct
#: enumeration.  With uniform candidates the probability of even one retry
#: round is 1/n per pair, so the fallback fires essentially never — it
#: exists to bound the loop on adversarial or broken generators.
MAX_REJECTION_ROUNDS = 16


def draw_vertex_pairs(
    num_vertices: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` uniform ordered pairs of *distinct* vertices, batched.

    Rejection sampling with one bulk ``rng.integers`` call per round instead
    of two scalar draws per pair: a round draws ``(need, 2)`` candidates and
    keeps the rows with distinct entries, so the expected number of rounds is
    ``1 / (1 - 1/n)`` — about one for any non-trivial graph.  After
    :data:`MAX_REJECTION_ROUNDS` unlucky rounds the remainder falls back to
    direct enumeration (draw ``s`` uniformly, then ``t`` uniformly from the
    ``n - 1`` vertices that are not ``s``), which is exactly uniform over
    distinct ordered pairs and cannot spin — the loop is bounded even for
    near-degenerate graphs or adversarial generators.  Returns an
    ``(count, 2)`` int64 array.

    Note the RNG stream differs from ``count`` scalar
    :func:`~repro.sampling.base.sample_vertex_pair` calls (the distribution
    is identical); only the batch-native wavefront kernel draws this way, and
    every other sampler draws each pair right before its search.
    """
    if num_vertices < 2:
        raise ValueError("need at least two vertices to sample a pair")
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty((count, 2), dtype=np.int64)
    filled = 0
    rounds = 0
    while filled < count and rounds < MAX_REJECTION_ROUNDS:
        rounds += 1
        need = count - filled
        cand = rng.integers(0, num_vertices, size=(need, 2), dtype=np.int64)
        kept = cand[cand[:, 0] != cand[:, 1]]
        out[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    if filled < count:
        need = count - filled
        s = rng.integers(0, num_vertices, size=need, dtype=np.int64)
        t = rng.integers(0, num_vertices - 1, size=need, dtype=np.int64)
        t += t >= s  # skip the diagonal: t is uniform over the n-1 non-s ids
        out[filled:, 0] = s
        out[filled:, 1] = t
    return out


def rng_for_rank_thread(
    seed: int | None, rank: int, thread: int, *, num_threads: int
) -> np.random.Generator:
    """Deterministic per-(rank, thread) generator.

    The stream only depends on ``(seed, rank, thread)`` — not on how many
    ranks exist — so the same thread of the same rank always sees the same
    stream.  That does not make a distributed run reproducible: its result
    also depends on how many samples each thread drew from its stream, and
    no result or snapshot records those counts.
    """
    if rank < 0 or thread < 0:
        raise ValueError("rank and thread must be non-negative")
    if num_threads <= 0:
        raise ValueError("num_threads must be positive")
    if thread >= num_threads:
        raise ValueError("thread index out of range")
    seq = np.random.SeedSequence(seed, spawn_key=(rank, thread))
    return np.random.default_rng(seq)


def derive_seed(seed: int | None, *tags: int) -> int:
    """Derive a 63-bit integer seed from a master seed and integer tags."""
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(t) for t in tags))
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def generator_state(rng: np.random.Generator) -> dict:
    """The generator's state as a JSON-serializable dict (ints stay exact)."""

    def convert(value):
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.ndarray):
            return [int(v) for v in value]
        return value

    return convert(dict(rng.bit_generator.state))


def generator_from_state(state: dict) -> np.random.Generator:
    """Rebuild a :class:`numpy.random.Generator` from :func:`generator_state`."""
    name = state.get("bit_generator") if isinstance(state, dict) else None
    kind = getattr(np.random, str(name), None)
    concrete = isinstance(kind, type) and issubclass(kind, np.random.BitGenerator)
    if not concrete or kind is np.random.BitGenerator:
        raise ValueError(f"unknown bit generator {name!r}")
    bit_generator = kind()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
