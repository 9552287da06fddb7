"""Protocol-level tests: preparation, encoding, the two measurement rounds
(paper steps 3 and 4) through the leaf walk, branch enumeration,
corrections, and the non-cooperation bound.

The worked-branch literals (remainder amplitudes, factored payloads) are
frozen hand derivations; statistical claims use the exact probabilities of
enumerated leaves rather than sampling.
"""

import math

import numpy as np
import pytest

import bqtsim.protocol as protocol
from bqtsim import generate_correction_table
from bqtsim.corrections import LEAF_KEYS, load_table
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    CHANNEL_LABELS,
    FIDELITY_FLOOR,
    FULL_LABELS,
    MEASUREMENT_PLAN,
    PAYLOAD_LABELS,
    REMAINDER_LABELS,
    EprInput,
    Tree,
    encode,
    enumerate_branches,
    leaf_index,
    noncooperation_fidelity,
    prepare_channel,
    prepare_full_state,
)
from bqtsim.qsim import make_register, measure, permute, tensor
from oracles import (
    STARVES,
    deliver,
    deprived_fidelities,
    equal_up_to_global_phase,
    fast_walk,
    targets,
    tree_leaves,
    walk_round as per_row_walk,
    weighted,
)

ALPHA = EprInput(0.6, 0.8)
BETA = EprInput.normalized(2.0, 1.0j)
X = ("+", "-")


def _random_epr(rng):
    v = rng.normal(size=4)
    return EprInput.normalized(complex(v[0], v[1]), complex(v[2], v[3]))


# ---------------------------------------------------------------------------
# inputs and preparation
# ---------------------------------------------------------------------------

class TestEprInput:
    def test_accepts_unit_pairs(self):
        EprInput(0.6, 0.8)
        EprInput(1, 0)
        EprInput(complex(0.6, 0), 0.8j)

    def test_rejects_non_unit_pairs(self):
        with pytest.raises(ValueError, match="not 1"):
            EprInput(1.0, 1.0)
        with pytest.raises(ValueError, match="not 1"):
            EprInput(0.6, 0.80001)
        for pair in ((float("nan"), 0), (complex(0.6, float("inf")), 0.8)):
            with pytest.raises(ValueError, match="finite"):
                EprInput(*pair)

    def test_normalized_constructor(self):
        epr = EprInput.normalized(3, 4)
        assert epr.c0 == pytest.approx(0.6)
        assert epr.c1 == pytest.approx(0.8)
        for zero in ((0, 0), (0.0, -0.0), (complex(-0.0, 0.0), 0j)):
            with pytest.raises(ValueError, match="cannot normalize the zero pair"):
                EprInput.normalized(*zero)
        for bad in ((float("inf"), 1), (float("nan"), 0), (1, complex(0, float("-inf")))):
            with pytest.raises(ValueError, match="must be finite"):
                EprInput.normalized(*bad)

    @pytest.mark.parametrize(
        "c0, c1, want",
        [
            (1e-200, 1e-200, (math.sqrt(0.5), math.sqrt(0.5))),
            (5e-324, -5e-324j, (math.sqrt(0.5), -math.sqrt(0.5) * 1j)),
            (3e-13, 4e-13, (0.6, 0.8)),
            (3e-250, 4e-250j, (0.6, 0.8j)),
            # abs() of the first part alone would overflow, and so would the norm
            (complex(1.5e308, 1.5e308), -1.5e308, (complex(0.5, 0.5), -0.5)),
        ],
    )
    def test_normalized_rescues_tiny_and_huge_pairs(self, c0, c1, want):
        # a finite, nonzero pair has a direction however small or large it is
        epr = EprInput.normalized(c0, c1)
        want = EprInput.normalized(*want)
        assert epr.c0 == pytest.approx(want.c0, abs=1e-15)
        assert epr.c1 == pytest.approx(want.c1, abs=1e-15)

    def test_normalized_keeps_ordinary_pairs_bit_for_bit(self):
        for c0, c1 in ((0.8, 0.6j), (2.0, 1.0j), (1e-6, 3e-6), (complex(0.3, -0.1), 7.0)):
            norm = np.hypot(abs(c0), abs(c1))
            epr = EprInput.normalized(c0, c1)
            assert (epr.c0, epr.c1) == (complex(c0) / norm, complex(c1) / norm)

    def test_register_layout(self):
        reg = ALPHA.register(("p", "q"))
        assert reg.labels == ("p", "q")
        assert reg.amplitude("00") == pytest.approx(0.6)
        assert reg.amplitude("11") == pytest.approx(0.8)
        assert reg.amplitude("01") == 0


def test_prepare_channel_literal():
    chan = prepare_channel()
    assert chan.labels == CHANNEL_LABELS
    got = dict(chan.nonzero_terms())
    assert set(got) == {"000000", "000111", "111000", "111111"}
    for amp in got.values():
        assert amp == pytest.approx(0.5, abs=1e-12)


def test_prepare_full_state_layout():
    full = prepare_full_state(ALPHA, EprInput(1, 0))
    assert full.labels == FULL_LABELS
    # channel term 000000 times A=|00>*0.6 times B=|00>*1
    assert full.amplitude("0" * 10) == pytest.approx(0.5 * 0.6, abs=1e-12)
    assert full.amplitude("000000" + "11" + "00") == pytest.approx(0.5 * 0.8, abs=1e-12)
    assert full.amplitude("000000" + "00" + "11") == 0


def test_encode_structure():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    assert encoded.labels == FULL_LABELS
    # 4 channel terms x 2 Alice terms x 2 Bob terms, all nonzero for generic
    # inputs, each of magnitude |c d| / 2
    terms = encoded.nonzero_terms(1e-12)
    assert len(terms) == 16
    mags = sorted(round(abs(a), 12) for _, a in terms)
    expected = sorted(
        round(abs(c * d) / 2, 12)
        for c in (ALPHA.c0, ALPHA.c1)
        for d in (BETA.c0, BETA.c1)
        for _ in range(4)
    )
    assert mags == expected


def test_encode_accepts_any_label_order():
    full = prepare_full_state(ALPHA, BETA)
    shuffled = permute(full, tuple(reversed(FULL_LABELS)))
    assert np.allclose(encode(shuffled).amps, encode(full).amps)


def test_encode_rejects_wrong_qubits():
    with pytest.raises(ValueError, match="ten protocol qubits"):
        encode(prepare_channel())


def test_encode_flips_channel_bits_with_inputs():
    # with c1 = 1 the A1 -> a1 CNOT turns channel term 000000|11> into
    # 100000|11>, so the encoded state has support where a1 != 0.
    one = EprInput(0, 1)
    encoded = encode(prepare_full_state(one, EprInput(1, 0)))
    assert encoded.amplitude("100000" + "11" + "00") == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# measurement rounds: step 3 (a1, A2, b3, B2) and step 4 (A1, B1)
# ---------------------------------------------------------------------------

FIRST_ROUND, SECOND_ROUND = MEASUREMENT_PLAN
WORKED = (0, "+", 0, "+")


def _round(state, plan, outcomes):
    """The leaf of ``outcomes`` in the walk of one round."""
    (leaf,) = (leaf for leaf in fast_walk(state, plan) if leaf[0] == tuple(outcomes))
    return leaf


def test_step3_worked_branch_literal():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    _outcomes, probs, remainder = _round(encoded, FIRST_ROUND, WORKED)
    assert math.prod(probs) == pytest.approx(1 / 16, abs=1e-12)
    assert remainder.labels == REMAINDER_LABELS
    expected = make_register(
        [
            ("000000", ALPHA.c0 * BETA.c0),
            ("001101", ALPHA.c0 * BETA.c1),
            ("110010", ALPHA.c1 * BETA.c0),
            ("111111", ALPHA.c1 * BETA.c1),
        ],
        REMAINDER_LABELS,
    )
    assert np.allclose(remainder.amps, expected.amps, atol=1e-12)


def test_step3_all_branches_uniform():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    for a1 in (0, 1):
        for A2 in X:
            for b3 in (0, 1):
                for B2 in X:
                    outcomes, probs, _ = _round(encoded, FIRST_ROUND, (a1, A2, b3, B2))
                    assert math.prod(probs) == pytest.approx(1 / 16, abs=1e-12)
                    assert outcomes == (a1, A2, b3, B2)


def test_step3_sampling_mode():
    # sampled one qsim.measure at a time, as a session's draws are
    state, rng = encode(prepare_full_state(ALPHA, BETA)), np.random.default_rng(5)
    results, probs = [], []
    for qubit, basis in FIRST_ROUND:
        res = measure(state, qubit, basis, rng=rng)
        state = res.register
        results.append(res.outcome)
        probs.append(res.probability)
    a1, A2, b3, B2 = results
    assert a1 in (0, 1) and b3 in (0, 1)
    assert A2 in X and B2 in X
    assert math.prod(probs) == pytest.approx(1 / 16, abs=1e-12)


def test_step3_argument_errors():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match="no qubit labeled 'zz'"):
        fast_walk(encoded, FIRST_ROUND + (("zz", "Z"),))


def test_step4_worked_branch_factored_payloads():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    _, _, remainder = _round(encoded, FIRST_ROUND, WORKED)
    for A1 in X:
        for B1 in X:
            _, probs, payload = _round(remainder, SECOND_ROUND, (A1, B1))
            assert math.prod(probs) == pytest.approx(0.25, abs=1e-12)
            assert payload.labels == PAYLOAD_LABELS
            sa = 1 if A1 == "+" else -1
            sb = 1 if B1 == "+" else -1
            expected = tensor(
                make_register(
                    [("00", ALPHA.c0), ("11", sa * ALPHA.c1)], BOB_PAYLOAD_LABELS
                ),
                make_register(
                    [("00", BETA.c0), ("11", sb * BETA.c1)], ALICE_PAYLOAD_LABELS
                ),
            )
            assert np.allclose(payload.amps, expected.amps, atol=1e-12)


def test_step4_argument_errors():
    # round one's qubits are gone from the remainder: none can be measured again
    encoded = encode(prepare_full_state(ALPHA, BETA))
    _, _, remainder = _round(encoded, FIRST_ROUND, WORKED)
    with pytest.raises(ValueError, match="no qubit labeled 'a1'"):
        fast_walk(remainder, (("a1", "Z"),) + SECOND_ROUND)


def test_leaf_index_packing():
    assert leaf_index(0, "+", 0, "+", "+", "+") == 0
    assert leaf_index(0, "+", 0, "+", "+", "-") == 1
    assert leaf_index(0, "+", 0, "+", "-", "+") == 2
    assert leaf_index(0, "+", 0, "-", "+", "+") == 4
    assert leaf_index(0, "+", 1, "+", "+", "+") == 8
    assert leaf_index(0, "-", 0, "+", "+", "+") == 16
    assert leaf_index(1, "+", 0, "+", "+", "+") == 32
    assert leaf_index(1, "-", 1, "-", "-", "-") == 63


# ---------------------------------------------------------------------------
# correction and enumeration
# ---------------------------------------------------------------------------

def test_correct_worked_branch_sign_case():
    _, payload = tree_leaves(Tree(ALPHA, BETA))[WORKED + ("-", "-")]
    wanted = (ALPHA.register(BOB_PAYLOAD_LABELS), BETA.register(ALICE_PAYLOAD_LABELS))
    fixed, _, _ = deliver(payload, load_table()[(0, "+", 0, "+", "-", "-")], wanted)
    expected = tensor(*wanted)
    assert equal_up_to_global_phase(fixed, expected)


def test_enumerate_branches_invariants():
    leaves = enumerate_branches(ALPHA, BETA)
    assert len(leaves) == 64
    assert [leaf.index for leaf in leaves] == list(range(64))
    for leaf in leaves:
        assert leaf.probability == pytest.approx(1 / 64, abs=1e-12)
        assert leaf.post_state.labels == PAYLOAD_LABELS
        assert leaf.fidelity_alice_to_bob >= 1.0 - 1e-10
        assert leaf.fidelity_bob_to_alice >= 1.0 - 1e-10
    total = sum(leaf.probability for leaf in leaves)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_enumerate_branches_outcomes_view():
    leaf = enumerate_branches(ALPHA, BETA)[63]
    assert leaf.outcomes() == {
        "a1": 1, "A2": "-", "b3": 1, "B2": "-", "A1": "-", "B1": "-"
    }
    assert (leaf.bob_ops, leaf.alice_ops) == ("XX", "XX")


def test_corrected_payload_is_exact_product_state():
    # beyond fidelity: the corrected four-qubit state equals the tensor
    # product of the two intended inputs up to a global phase
    rng = np.random.default_rng(61)
    table = load_table()
    for _ in range(3):
        alice, bob = _random_epr(rng), _random_epr(rng)
        encoded = encode(prepare_full_state(alice, bob))
        wanted = (alice.register(BOB_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS))
        expected = tensor(*wanted)
        for branch in ((1, "-", 0, "+"), (0, "-", 1, "-"), (1, "+", 1, "+")):
            _, _, remainder = _round(encoded, FIRST_ROUND, branch)
            for A1 in X:
                for B1 in X:
                    _, _, payload = _round(remainder, SECOND_ROUND, (A1, B1))
                    fixed, _, _ = deliver(payload, table[(*branch, A1, B1)], wanted)
                    assert equal_up_to_global_phase(fixed, expected)


def test_branch_probabilities_input_independent():
    rng = np.random.default_rng(67)
    for _ in range(5):
        leaves = enumerate_branches(_random_epr(rng), _random_epr(rng))
        worst = max(abs(leaf.probability - 1 / 64) for leaf in leaves)
        assert worst <= 1e-12


def test_editing_a_plain_table_between_calls_on_one_tree_reaches_the_kernel():
    tree = Tree(ALPHA, BETA)
    leaves = tree_leaves(tree)
    table = dict(load_table())
    key = WORKED + ("+", "+")  # what both deprived receivers hear at this leaf
    leaf, everywhere = leaf_index(*key), range(64)
    before = tree.deliver(everywhere, [table[k] for k in LEAF_KEYS])
    deprived = {w: tree.deprived(w, protocol._heard_ops(table, w))[protocol._GROUPS[w][1][leaf]] for w in STARVES}
    # one entry gets a legal, wrong correction in both columns
    bob_ops, alice_ops = table[key]
    table[key] = ("XX" if bob_ops != "XX" else "ZZ", "XI" if alice_ops != "XI" else "ZI")
    after = tree.deliver(everywhere, [table[k] for k in LEAF_KEYS])
    for k, old, new in zip(LEAF_KEYS, before, after):
        assert new == deliver(leaves[k][1], table[k], targets(tree))[1:]
        assert (new == old) == (k != key)
    assert max(after[leaf]) < FIDELITY_FLOOR
    for withheld, (_, slot) in STARVES.items():
        groups = deprived_fidelities(weighted(leaves, round_one=False), withheld, targets(tree)[slot], table)
        column, group = protocol._heard_ops(table, withheld), protocol._GROUPS[withheld][1][leaf]
        assert tree.deprived(withheld, column)[group] == groups[key][1] != deprived[withheld]


def test_deliver_pairs_each_leaf_with_one_table_entry():
    tree = Tree(ALPHA, BETA)
    entry = load_table()[LEAF_KEYS[0]]
    assert tree.deliver([], []) == []
    assert tree.deliver((0, 0), [entry, entry]) == 2 * tree.deliver([0], [entry])
    # a leaf left without an entry would be scored uncorrected
    for leaves, entries in (([0, 1], [entry]), ([0], [entry, entry])):
        with pytest.raises(ValueError, match="leaves but"):
            tree.deliver(leaves, entries)


@pytest.mark.parametrize("entry", [("II",), ("II", "II", "XZ"), "IZ", ("II", None)], ids=repr)
def test_deliver_refuses_an_entry_that_is_not_two_strings(entry):
    tree = Tree(ALPHA, BETA)
    good = load_table()[LEAF_KEYS[0]]
    with pytest.raises(ValueError) as raised:
        tree.deliver([7, 12, 3], [good, entry, entry])
    assert str(raised.value) == f"correction table entry {entry!r} for leaf 12 is not two ops strings"
    assert tree.deliver([7, 12], [good, list(good)]) == tree.deliver([7, 12], [good, good])


@pytest.mark.parametrize("entry", [("II",), ("II", "II", "XZ"), "IZ", ("II", None)], ids=repr)
@pytest.mark.parametrize("withheld", sorted(STARVES))
def test_deprived_refuses_an_entry_that_is_not_two_strings(withheld, entry):
    # every group's entry, the leaf's own and the others, is read through
    # protocol._heard_ops: not an IndexError, nor the first two of three strings
    keys, groups = protocol._GROUPS[withheld]
    leaf = protocol._HEARD[withheld].index(keys[3])
    for bad in (keys[3], keys[20]):
        table = dict(load_table())
        table[bad] = entry
        with pytest.raises(ValueError) as raised:
            Tree(ALPHA, BETA).deprived(withheld, protocol._heard_ops(table, withheld))[groups[leaf]]
        assert str(raised.value) == f"correction table entry {entry!r} for key {bad!r} is not two ops strings"
    listed = {key: list(ops) for key, ops in load_table().items()}
    assert (Tree(ALPHA, BETA).deprived(withheld, protocol._heard_ops(listed, withheld))[groups[leaf]]
            == Tree(ALPHA, BETA).deprived(withheld, protocol._heard_ops(load_table(), withheld))[groups[leaf]])


@pytest.mark.parametrize("withheld", sorted(STARVES))
def test_deprived_refuses_a_column_of_the_wrong_length(withheld):
    tree = Tree(ALPHA, BETA)
    column = protocol._heard_ops(load_table(), withheld)
    for ops in (column[:-1], column + ["II"], []):
        with pytest.raises(ValueError, match=f"^{len(ops)} ops strings for the 32 groups of '{withheld}'$"):
            tree.deprived(withheld, ops)
    assert tree.averages == {}
    assert len(tree.deprived(withheld, column)) == 32 and list(tree.averages) == [(withheld, tuple(column))]


#: The pair on which each refusal below was first seen to slip through.
REFUSING = EprInput(0.6, 0.8), EprInput.normalized(1, 1j)


@pytest.mark.parametrize(
    "leaves, ops, refused",
    [([0, leaf], [("II", "II")] * 2, f"a leaf must be an integer in [0, 64), got {leaf!r}") for leaf in (-1, 64, True, 1.0)]
    + [
        (5, [("II", "II")], "leaves must be a sequence, got 5"),
        ([0], None, "ops must be a sequence, got None"),
        (None, None, "leaves must be a sequence, got None"),
    ],
    ids=["-1", "64", "True", "1.0", "5-[('II', 'II')]", "[0]-None", "None-None"],
)
def test_deliver_refuses_a_leaf_that_is_not_a_leaf_index(leaves, ops, refused):
    # -1 once delivered leaf 63 silently, the other leaves raised numpy IndexErrors,
    # and leaves or ops that are not sequences TypeErrors
    tree = Tree(*REFUSING)
    with pytest.raises(ValueError) as raised:
        tree.deliver(leaves, ops)
    assert str(raised.value) == refused
    assert len(tree.deliver([0, 63], [("II", "II")] * 2)) == 2


@pytest.mark.parametrize("withheld", ["C1", "a1", None, ["A1"]], ids=repr)
def test_deprived_refuses_what_noncooperation_fidelity_refuses(withheld):
    column = protocol._heard_ops(load_table(), "A1")
    with pytest.raises(ValueError) as raised:
        Tree(*REFUSING).deprived(withheld, column)
    assert str(raised.value) == f"withheld must be 'A1' or 'B1', got {withheld!r}"
    with pytest.raises(ValueError) as want:
        noncooperation_fidelity(REFUSING[0], withheld)
    assert str(want.value) == str(raised.value)


@pytest.mark.parametrize("stray", [None, 5, ["I", "I"], b"II"], ids=repr)
@pytest.mark.parametrize("withheld", sorted(STARVES))
def test_deprived_refuses_an_ops_entry_that_is_not_a_string(withheld, stray):
    tree = Tree(*REFUSING)
    column = protocol._heard_ops(load_table(), withheld)
    for ops in ([stray] * 32, column[:5] + [stray] + column[6:]):
        with pytest.raises(ValueError, match=f"^every ops entry for the groups of '{withheld}' must be a string$"):
            tree.deprived(withheld, ops)
    if stray in (None, 5):  # nor is a column that is not a sequence (a TypeError once)
        with pytest.raises(ValueError, match=f"^ops must be a sequence, got {stray!r}$"):
            tree.deprived(withheld, stray)
    assert tree.averages == {}


def test_generate_table_matches_packaged_asset():
    assert generate_correction_table() == dict(load_table())


# ---------------------------------------------------------------------------
# leaf walk
# ---------------------------------------------------------------------------

def test_walk_leaves_matches_sequential_measurement():
    # oracle: measure each leaf of the tree from scratch, one qsim.measure call per step
    bob = EprInput(0.8, complex(0.36, 0.48))
    encoded = encode(prepare_full_state(ALPHA, bob))
    tree = Tree(ALPHA, bob)
    leaves = weighted(tree_leaves(tree))
    assert [leaf_index(*outcomes) for outcomes, _p, _r in leaves] == list(range(64))
    probabilities = protocol._leaf_probabilities(tree.steps).tolist()
    for (outcomes, prob, payload), tree_prob in zip(leaves, probabilities):
        state, forced, round_probs = encoded, iter(outcomes), []
        for round_plan in MEASUREMENT_PLAN:
            round_prob = 1.0
            for qubit, basis in round_plan:
                res = measure(state, qubit, basis, force=next(forced))
                state, round_prob = res.register, round_prob * res.probability
            round_probs.append(round_prob)
        assert prob == tree_prob == round_probs[0] * round_probs[1]
        assert payload.labels == state.labels
        assert np.array_equal(payload.amps, state.amps)


def test_walk_round_yields_each_step_probability():
    # oracle: one direct qsim.measure call per step, probabilities compared exactly
    encoded = encode(prepare_full_state(ALPHA, BETA))
    leaves = fast_walk(encoded, FIRST_ROUND)
    assert len(leaves) == 16
    for outcomes, probs, remainder in leaves:
        state, direct = encoded, []
        for (qubit, basis), outcome in zip(FIRST_ROUND, outcomes):
            res = measure(state, qubit, basis, force=outcome)
            state = res.register
            direct.append(res.probability)
        assert probs == tuple(direct)
        assert np.array_equal(remainder.amps, state.amps)


@pytest.mark.parametrize(
    "plan", [[("a1", "Y")], [("a1", "Z"), ("b3", "Y")]], ids=["open", "below-a-measured-step"]
)
def test_walk_round_rejects_unknown_basis(plan):
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match=r"basis must be 'Z' or 'X', got 'Y'"):
        fast_walk(encoded, plan)


def test_walk_leaves_shares_measured_prefixes(monkeypatch):
    # each level is split once; every open row collapses into both outcomes
    calls = []
    real = protocol._branch_rows
    monkeypatch.setattr(
        protocol, "_branch_rows", lambda rows, *a: calls.append(2 * len(rows)) or real(rows, *a)
    )
    assert Tree(ALPHA, BETA).payloads.shape == (64, 16)
    assert len(calls) == len(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1])
    assert sum(calls) == (2 + 4 + 8 + 16) + 16 * (2 + 4)


@pytest.mark.parametrize(
    "entries, labels, plan, forced",
    [
        ([("0", 1)], ("q",), (("q", "Z"),), (1,)),
        # |0>|0> + |1>|+>: only the second row has an empty branch, its "-"
        ([("00", 1), ("10", 1), ("11", 1)], ("p", "q"), (("p", "Z"), ("q", "X")), (1, "-")),
    ],
    ids=["one-row", "second-row"],
)
def test_walk_round_refuses_an_empty_branch_as_measure_does(entries, labels, plan, forced):
    reg = make_register(entries, labels)
    with pytest.raises(ValueError, match="has probability") as want:
        for (qubit, basis), outcome in zip(plan, forced):
            reg = measure(reg, qubit, basis, force=outcome).register
    with pytest.raises(ValueError) as got:
        fast_walk(make_register(entries, labels), plan)
    assert str(got.value) == str(want.value)


def test_a_trees_leaf_payloads_cannot_be_written():
    # the 64 payloads are one array: a write through any row would reach that leaf for every caller
    tree = Tree(ALPHA, BETA)
    batch = tree.payloads
    assert batch.shape == (64, 16) and batch.base is None  # no writable base behind it
    before = batch.tobytes()
    for leaf in range(0, 64, 21):
        with pytest.raises(ValueError, match="read-only"):
            batch[leaf, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            batch[leaf][:] = 0
    assert batch.tobytes() == before
    # nor can the step probabilities that sessions pick against
    with pytest.raises(ValueError, match="read-only"):
        tree.steps[0, 0] = 0.5
    walked = per_row_walk(encode(prepare_full_state(ALPHA, BETA)), FIRST_ROUND + SECOND_ROUND)
    assert [row.hex() for row in tree.steps.ravel().tolist()] == [p.hex() for _, probs, _ in walked for p in probs]
    assert tree.payloads.tobytes() == b"".join(state.amps.tobytes() for _, _, state in walked)


@pytest.mark.parametrize("name", ["payloads", "steps", "targets"])
def test_writes_to_any_of_a_trees_arrays_raise(name):
    array = getattr(Tree(ALPHA, BETA), name)
    before = array.tobytes()
    assert array.base is None  # a copy: nothing writable stands behind it
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 1
    with pytest.raises(ValueError, match="read-only"):
        array += 0
    assert array.tobytes() == before


def test_the_channel_row_built_once_is_prepare_channel_and_cannot_be_written():
    channel = protocol._CHANNEL
    assert channel.tobytes() == prepare_channel().amps.tobytes()
    assert channel.base is None  # owns its memory: nothing writable stands behind it
    with pytest.raises(ValueError, match="read-only"):
        channel[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        channel[...] = 1
    with pytest.raises(ValueError, match="read-only"):
        channel += 0
    assert protocol._CHANNEL.tobytes() == prepare_channel().amps.tobytes()


def test_the_cached_row_groups_cannot_be_written():
    table = load_table()
    for labels, slot in STARVES.values():
        ops = tuple(table[key][slot] for key in LEAF_KEYS)
        groups = protocol._row_groups(labels, ops)
        assert protocol._row_groups(labels, ops) is groups  # cached per (labels, ops column)
        assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == list(range(64))
        for gates, rows in groups:
            assert rows.base is None and {ops[r] for r in rows.tolist()} == {ops[rows[0]]}
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 63
            with pytest.raises(ValueError, match="read-only"):
                rows += 0
        assert sorted(np.concatenate([rows for _, rows in groups]).tolist()) == list(range(64))


def test_a_trees_targets_are_each_input_written_on_its_receivers_payload_labels():
    rng = np.random.default_rng(83)
    for alice, bob in [(ALPHA, BETA)] + [(_random_epr(rng), _random_epr(rng)) for _ in range(20)]:
        tree = Tree(alice, bob)
        assert tree.targets.shape == (2, 4)
        for slot, (want, labels) in enumerate(((alice, BOB_PAYLOAD_LABELS), (bob, ALICE_PAYLOAD_LABELS))):
            assert tree.targets[slot].tobytes() == want.register(labels).amps.tobytes()
        assert [t.amps.tobytes() for t in targets(tree)] == [row.tobytes() for row in tree.targets]


# ---------------------------------------------------------------------------
# non-cooperation
# ---------------------------------------------------------------------------

def test_noncooperation_frozen_values():
    balanced = EprInput.normalized(1, 1)
    assert noncooperation_fidelity(balanced, "A1") == pytest.approx(0.5, abs=1e-12)
    assert noncooperation_fidelity(balanced, "B1") == pytest.approx(0.5, abs=1e-12)
    assert noncooperation_fidelity(ALPHA, "A1") == pytest.approx(0.5392, abs=1e-12)
    assert noncooperation_fidelity(EprInput(1, 0), "A1") == pytest.approx(1.0, abs=1e-12)


def test_noncooperation_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(3):
        epr = _random_epr(rng)
        expected = abs(epr.c0) ** 4 + abs(epr.c1) ** 4
        assert noncooperation_fidelity(epr, "A1") == pytest.approx(expected, abs=1e-12)
        assert noncooperation_fidelity(epr, "B1") == pytest.approx(expected, abs=1e-12)


def test_noncooperation_bound_range():
    # the bound lives in [1/2, 1]: worst for balanced, best for basis states
    rng = np.random.default_rng(73)
    for _ in range(5):
        value = noncooperation_fidelity(_random_epr(rng), "A1")
        assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12


def test_noncooperation_validates_argument():
    with pytest.raises(ValueError, match="withheld"):
        noncooperation_fidelity(ALPHA, "B2")
    with pytest.raises(ValueError, match="withheld"):  # every case is checked before the walk
        protocol._noncooperation_fidelities([(ALPHA, "A1"), (ALPHA, "B2")])


def test_the_noncooperation_batch_equals_one_case_calls():
    # the battery's six cases, then random Gaussian inputs in both directions, in one batch each
    rng = np.random.default_rng(79)
    criterion = [EprInput.normalized(1, 1), EprInput(0.6, 0.8), EprInput(1, 0)]
    for eprs in (criterion, [_random_epr(rng) for _ in range(7)]):
        cases = [(epr, withheld) for epr in eprs for withheld in ("A1", "B1")]
        got = [f.hex() for f in protocol._noncooperation_fidelities(cases)]
        assert got == [noncooperation_fidelity(*case).hex() for case in cases]


def test_global_phase_on_inputs_does_not_matter():
    # rephasing an input rephases the delivered payload globally and nothing
    # else: every leaf's corrected state matches the base run up to phase
    phase = complex(math.cos(1.1), math.sin(1.1))
    rotated_alpha = EprInput(ALPHA.c0 * phase, ALPHA.c1 * phase)
    for branch in ((0, "+", 0, "+"), (1, "-", 1, "+")):
        for A1, B1 in (("+", "+"), ("-", "-")):
            payloads = []
            for alice in (ALPHA, rotated_alpha):
                tree = Tree(alice, BETA)
                _, payload = tree_leaves(tree)[branch + (A1, B1)]
                payloads.append(deliver(payload, load_table()[(*branch, A1, B1)], targets(tree))[0])
            assert equal_up_to_global_phase(payloads[0], payloads[1])
