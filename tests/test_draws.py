"""The vectorised draw kernel against numpy's own generator.

``bqtsim._draws.uniforms`` replays ``np.random.default_rng(seed)``'s
seeding (``SeedSequence``, then PCG64) and its ``random()`` draws on
arrays of seeds.  Its oracle is numpy itself, one generator per seed; the
two are compared by bytes, so a difference in the last bit fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtsim._draws import _CHUNK, uniforms


def _oracle(seeds, n: int) -> np.ndarray:
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        rows.append([rng.random() for _ in range(n)])
    return np.array(rows, dtype=np.float64).reshape(len(rows), n)


#: Both ends of the seed range, and both sides of the switch from one
#: ``SeedSequence`` entropy word to two at 2**32.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_draw_what_default_rng_draws(seed):
    rng = np.random.default_rng(seed)
    assert [float(u).hex() for u in uniforms([seed], 8)[0]] == [rng.random().hex() for _ in range(8)]


def test_a_batch_that_wraps_past_2_64():
    seeds = np.arange(16, dtype=np.uint64) + 0xFFFFFFFFFFFFFFF8
    assert seeds[8] == 0
    assert uniforms(seeds, 6).tobytes() == _oracle(seeds, 6).tobytes()


def test_a_batch_one_seed_longer_than_a_chunk():
    seeds = np.random.default_rng(19).integers(0, 2**64, _CHUNK + 1, dtype=np.uint64)
    got = uniforms(seeds, 2)
    assert got.shape == (_CHUNK + 1, 2)
    assert got.tobytes() == _oracle(seeds, 2).tobytes()


def test_an_empty_batch():
    assert uniforms([], 6).shape == (0, 6)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(1, 8))
def test_any_seeds_draw_what_default_rng_draws(seeds, n):
    assert uniforms(seeds, n).tobytes() == _oracle(seeds, n).tobytes()
