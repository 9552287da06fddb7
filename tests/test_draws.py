"""The draw replays against numpy's own generator.

``bqtsim._draws.uniforms`` replays ``np.random.default_rng(seed)``'s
seeding (``SeedSequence``, then PCG64) and its ``random()`` draws on
arrays of seeds.  Its oracle is numpy itself, one generator per seed; the
two are compared by bytes, so a difference in the last bit fails.

``bqtsim._draws._bounded`` replays a scalar ``Generator.integers`` on the
bit generator's 32-bit words.  Its oracle is ``integers`` on a twin
generator; the two must return the same values and leave the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqtsim._draws import _CHUNK, _bounded, uniforms


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


# ---------------------------------------------------------------------------
# bounded integers, one at a time
# ---------------------------------------------------------------------------

def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), max_size=40))
def test_bounded_draws_what_integers_draws_between_other_draws(seed, steps):
    ours, theirs = _twins(seed)
    draw = _bounded(ours)
    for span, between in steps:
        low = span - 1  # any low: the replay returns the offset from it
        assert low + draw(span) == theirs.integers(low, low + span)
        if between == 1:
            assert ours.normal(size=(2, span)).tobytes() == theirs.normal(size=(2, span)).tobytes()
        elif between == 2:
            assert ours.random() == theirs.random()
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("span", [2, 3, 4, 5, 6])
def test_a_rejected_word_is_drawn_again_as_integers_draws_it(span):
    # The buffered 32-bit word 0 scales to 0, below 2**32 % span for spans 3, 5
    # and 6, so both sides reject it and draw again; for 2 and 4 nothing is rejected.
    ours, theirs = _twins(17)
    draw = _bounded(ours)
    for rng in (ours, theirs):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    assert draw(span) == theirs.integers(0, span)
    rejected = (1 << 32) % span > 0
    # a redraw takes a fresh 64-bit word and buffers its other half
    assert ours.bit_generator.state["has_uint32"] == int(rejected)
    assert ours.bit_generator.state == theirs.bit_generator.state
