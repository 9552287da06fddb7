"""The multi-pair batch: many input pairs encoded, walked and delivered as rows of one array.

``protocol.enumerate_batch`` walks every leaf of every pair in one
level-batched walk and corrects and scores them in one delivery, one call
of the row kernel per direction; the battery's
``bidirectional-reconstruction`` and ``branch-uniformity`` criteria run
their random pairs through it in chunks of ``verify._CHUNK_PAIRS``.  Each
pair is checked here against the oracles of ``tests/oracles.py``, one pair
at a time: the per-row walk from the public
``encode(prepare_full_state(...))`` register, and delivery through the
public gate path.  Probabilities and fidelities are compared by
``.hex()`` and payload rows by ``tobytes()``, so a pair's results are the
same bits whatever its position in the batch and whatever the batch size.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from bqtsim.corrections import FACTORS, load_table
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    FULL_LABELS,
    MEASUREMENT_PLAN,
    PAYLOAD_LABELS,
    EprInput,
    _correct_rows,
    _encode_rows,
    _input_rows,
    _walk_pairs,
    encode,
    enumerate_batch,
    enumerate_branches,
    prepare_full_state,
)
from bqtsim import verify
from bqtsim.qsim import ATOL
from bqtsim.verify import (
    _CHUNK_PAIRS,
    _random_epr,
    criterion_branch_uniformity,
    criterion_reconstruction,
)

import oracles

PLAN = MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]
ROUND_ONE = len(MEASUREMENT_PLAN[0])
BALANCED = EprInput.normalized(1, 1)
SPECIAL = [(EprInput(1, 0), EprInput(0, 1)), (EprInput(0, 1), BALANCED), (BALANCED, EprInput(1, 0))]


def _random_pairs(seed, n):
    rng = np.random.default_rng(seed)
    return [(_random_epr(rng), _random_epr(rng)) for _ in range(n)]


RANDOM = _random_pairs(21, 100)


@lru_cache(maxsize=None)
def _oracle_walk(alice, bob, plan=PLAN):
    """The pair's leaves from the per-row walk of its public encoded register."""
    return oracles.walk_round(encode(prepare_full_state(alice, bob)), plan)


def _oracle_leaves(alice, bob, table):
    """Each leaf as (probability hex, a->b hex, b->a hex, payload bytes), one pair at a time."""
    targets = (alice.register(BOB_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS))
    leaves = []
    for outcomes, probs, payload in _oracle_walk(alice, bob):
        _, to_bob, to_alice = oracles.deliver(payload, table[outcomes], targets)
        prob = math.prod(probs[:ROUND_ONE]) * math.prod(probs[ROUND_ONE:])
        leaves.append((prob.hex(), to_bob.hex(), to_alice.hex(), payload.amps.tobytes()))
    return leaves


@lru_cache(maxsize=None)
def _packaged_oracle(alice, bob):
    return _oracle_leaves(alice, bob, load_table())


def _batch_leaves(batch, i):
    """Pair ``i`` of an ``enumerate_batch`` result in ``_oracle_leaves``'s form."""
    return [
        (prob.hex(), to_bob.hex(), to_alice.hex(), payload.tobytes())
        for prob, (to_bob, to_alice), payload in zip(
            batch.probabilities[i].tolist(), batch.fidelities[i].tolist(), batch.payloads[i]
        )
    ]


@pytest.mark.parametrize("size", [1, _CHUNK_PAIRS, _CHUNK_PAIRS + 1, 100])
def test_every_pair_of_a_batch_equals_its_own_oracle(size):
    pairs = RANDOM[:size]
    batch = enumerate_batch(pairs)
    assert batch.probabilities.shape == (size, 64) and batch.payloads.shape == (size, 64, 16)
    for i, pair in enumerate(pairs):
        assert _batch_leaves(batch, i) == _packaged_oracle(*pair), i


def test_a_mixed_batch_of_degenerate_and_balanced_inputs():
    pairs = SPECIAL + RANDOM[:4] + SPECIAL[::-1]
    batch = enumerate_batch(pairs)
    for i, pair in enumerate(pairs):
        assert _batch_leaves(batch, i) == _packaged_oracle(*pair), i


def test_a_pairs_results_do_not_depend_on_its_position_or_the_batch_size():
    pair = SPECIAL[2]
    seen = []
    for pairs in ([pair], [pair] + RANDOM[:_CHUNK_PAIRS], RANDOM[:_CHUNK_PAIRS] + [pair],
                  RANDOM[:50] + [pair] + RANDOM[50:]):
        batch = enumerate_batch(pairs)
        seen.append(_batch_leaves(batch, pairs.index(pair)))
    assert seen == [_packaged_oracle(*pair)] * len(seen)


def test_enumerate_branches_is_the_one_pair_batch():
    alice, bob = SPECIAL[1]
    leaves = enumerate_branches(alice, bob)
    assert [(leaf.probability.hex(), leaf.fidelity_alice_to_bob.hex(), leaf.fidelity_bob_to_alice.hex(),
             leaf.post_state.amps.tobytes()) for leaf in leaves] == _packaged_oracle(alice, bob)
    assert all(leaf.post_state.labels == PAYLOAD_LABELS for leaf in leaves)
    table = load_table()
    ops = [table[outcomes] for outcomes, _, _ in _oracle_walk(alice, bob)]
    assert [(leaf.bob_ops, leaf.alice_ops) for leaf in leaves] == ops


def test_the_batch_reads_an_edited_table_and_scores_each_pair_against_its_own_inputs():
    table = dict(load_table())
    keys = list(table)
    for k, key in enumerate(keys[::7]):
        table[key] = (FACTORS[k % 4] + FACTORS[(k + 1) % 4], FACTORS[(k + 2) % 4] + "X")
    pairs = SPECIAL + RANDOM[:_CHUNK_PAIRS]
    batch = enumerate_batch(pairs, table)
    assert batch.ops == [table[key] for key in keys]
    for i, pair in enumerate(pairs):
        assert _batch_leaves(batch, i) == _oracle_leaves(*pair, table), i


def test_a_missing_key_raises_on_the_first_in_leaf_order():
    table = dict(load_table())
    keys = list(table)
    del table[keys[40]], table[keys[9]]
    with pytest.raises(KeyError) as raised:
        enumerate_batch(RANDOM[:3], table)
    assert raised.value.args == (keys[9],)


MALFORMED = [("II",), ("II", "II", "XZ"), (), "IZ", ["II"], ("II", 3), (b"II", "II"), None]


@pytest.mark.parametrize("entry", MALFORMED, ids=repr)
def test_an_entry_that_is_not_two_strings_raises_one_value_error_naming_it(entry):
    # raised as the table is read, before the walk: not an IndexError from the row
    # kernel, nor a TypeError from BranchLeaf; the first in leaf order is named
    table = dict(load_table())
    keys = list(table)
    table[keys[9]], table[keys[40]] = entry, None
    for call in (lambda: enumerate_batch(RANDOM[:3], table), lambda: enumerate_branches(*RANDOM[0], table)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == f"correction table entry {entry!r} for key {keys[9]!r} is not two ops strings"


def test_a_list_of_two_strings_is_an_entry():
    table = dict(load_table())
    edited = {key: list(entry) for key, entry in table.items()}
    want = enumerate_batch(RANDOM[:2], table).fidelities
    assert enumerate_batch(RANDOM[:2], edited).fidelities.tobytes() == want.tobytes()


def test_an_empty_batch_is_refused():
    with pytest.raises(ValueError, match="at least one input pair"):
        enumerate_batch([])


def test_the_batched_encoding_equals_each_pairs_encoded_register():
    pairs = SPECIAL + RANDOM[:_CHUNK_PAIRS]
    inputs = _input_rows(pairs)
    rows = _encode_rows(*inputs)
    for i, (alice, bob) in enumerate(pairs):
        assert inputs[0, i].tobytes() == alice.register(("A1", "A2")).amps.tobytes()
        assert inputs[1, i].tobytes() == bob.register(("B1", "B2")).amps.tobytes()
        encoded = encode(prepare_full_state(alice, bob))
        assert encoded.labels == FULL_LABELS and rows[i].tobytes() == encoded.amps.tobytes(), i


def test_the_batched_first_round_equals_each_pairs_walk():
    pairs = SPECIAL + RANDOM[: _CHUNK_PAIRS + 1]
    inputs, rows, steps = _walk_pairs(pairs, MEASUREMENT_PLAN[0])
    assert rows.shape == (16 * len(pairs), 64) and steps.shape == (16 * len(pairs), ROUND_ONE)
    for i, pair in enumerate(pairs):
        want = _oracle_walk(*pair, plan=MEASUREMENT_PLAN[0])
        for k, (_, probs, register) in enumerate(want):
            assert [p.hex() for p in steps[16 * i + k].tolist()] == [p.hex() for p in probs], (i, k)
            assert rows[16 * i + k].tobytes() == register.amps.tobytes(), (i, k)


def test_the_row_kernel_on_many_pairs_equals_the_per_row_oracle():
    # 704 rows sharing 40 distinct entries, each row's drawn at random
    rng = np.random.default_rng(4)
    rows = _walk_pairs(RANDOM[: _CHUNK_PAIRS + 1])[1]
    factors = np.array(FACTORS)
    distinct = [("".join(rng.choice(factors, 2)), "".join(rng.choice(factors, 2))) for _ in range(40)]
    ops = [distinct[i] for i in rng.integers(0, len(distinct), len(rows))]
    fixed = _correct_rows(rows, BOB_PAYLOAD_LABELS, [entry[0] for entry in ops])
    fixed = _correct_rows(fixed, ALICE_PAYLOAD_LABELS, [entry[1] for entry in ops])
    assert fixed.tobytes() == oracles.correct_rows(rows, (BOB_PAYLOAD_LABELS, ALICE_PAYLOAD_LABELS), ops).tobytes()


def test_the_reconstruction_detail_equals_the_per_pair_oracle_loop():
    table = dict(load_table())
    table[(0, "+", 1, "-", "+", "-")] = ("XX", "ZI")  # legal, but no Pauli frame
    n, seed = 2 * _CHUNK_PAIRS + 3, 5
    worst = 1.0
    for alice, bob in _random_pairs(seed, n):
        targets = (alice.register(BOB_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS))
        for outcomes, probs, payload in _oracle_walk(alice, bob):
            assert abs(math.prod(probs[:ROUND_ONE]) * math.prod(probs[ROUND_ONE:]) - 1 / 64) <= ATOL
            worst = min(worst, *oracles.deliver(payload, table[outcomes], targets)[1:])
    result = criterion_reconstruction(seed, n_inputs=n, table=table)
    assert not result.passed
    assert result.detail == f"{n} random input pairs, worst corrected fidelity {worst:.15f}"


def test_a_probability_failure_names_the_first_failing_pair_and_leaf(monkeypatch):
    # no real input moves a leaf off 1/64, so two are moved after the batch
    def shifted(pairs, table):
        batch = enumerate_batch(pairs, table)
        if pairs[0] == first_chunk[0]:
            batch.probabilities[3, 40] = 0.25
            batch.probabilities[1, 52] = 1 / 64 + 2 * ATOL
        return batch

    first_chunk = _random_pairs(8, _CHUNK_PAIRS)
    monkeypatch.setattr(verify, "enumerate_batch", shifted)
    result = criterion_reconstruction(8, n_inputs=2 * _CHUNK_PAIRS)
    assert not result.passed
    assert result.detail == f"leaf 52 probability {1 / 64 + 2 * ATOL!r}"


def test_the_uniformity_detail_equals_the_per_pair_oracle_loop():
    n, seed = _CHUNK_PAIRS + 1, 6
    worst = 0.0
    for alice, bob in _random_pairs(seed, n):
        for _, probs, _ in _oracle_walk(alice, bob, plan=MEASUREMENT_PLAN[0]):
            worst = max(worst, abs(math.prod(probs) - 1 / 16))
    result = criterion_branch_uniformity(seed, n_inputs=n)
    assert result.passed
    assert result.detail == f"{n} random input pairs, max |p - 1/16| = {worst:.2e}"
