"""Protocol-level tests: preparation, encoding, the two measurement rounds
(paper steps 3 and 4) through the leaf walk, branch enumeration,
corrections, and the non-cooperation bound.

The worked-branch literals (remainder amplitudes, factored payloads) are
frozen hand derivations; statistical claims use exact forced probabilities
rather than sampling.
"""

import math

import numpy as np
import pytest

import bqtsim.protocol as protocol
from bqtsim.corrections import load_table
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    CHANNEL_LABELS,
    FULL_LABELS,
    MEASUREMENT_PLAN,
    PAYLOAD_LABELS,
    REMAINDER_LABELS,
    EprInput,
    deliver,
    encode,
    enumerate_branches,
    generate_correction_table,
    leaf_index,
    noncooperation_fidelity,
    prepare_channel,
    prepare_full_state,
    walk_leaves,
    walk_round,
)
from bqtsim.qsim import equal_up_to_global_phase, make_register, measure, permute, tensor

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
        with pytest.raises(ValueError, match="zero pair"):
            EprInput.normalized(0, 0)

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


def _round(state, plan, force=None, rng=None):
    """The single leaf of a fully forced or sampled round."""
    (leaf,) = walk_round(state, plan, force, rng)
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
    encoded = encode(prepare_full_state(ALPHA, BETA))
    (a1, A2, b3, B2), probs, _ = _round(encoded, FIRST_ROUND, rng=np.random.default_rng(5))
    assert a1 in (0, 1) and b3 in (0, 1)
    assert A2 in X and B2 in X
    assert math.prod(probs) == pytest.approx(1 / 16, abs=1e-12)


def test_step3_argument_errors():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match="force must give"):
        walk_round(encoded, FIRST_ROUND, (0, "+"))


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
    encoded = encode(prepare_full_state(ALPHA, BETA))
    _, _, remainder = _round(encoded, FIRST_ROUND, WORKED)
    with pytest.raises(ValueError, match="force must give"):
        walk_round(remainder, SECOND_ROUND, ("+",))


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
    encoded = encode(prepare_full_state(ALPHA, BETA))
    ((_, _, payload),) = walk_leaves(encoded, WORKED + ("-", "-"))
    fixed, _, _ = deliver(payload, load_table()[(0, "+", 0, "+", "-", "-")])
    expected = tensor(
        ALPHA.register(BOB_PAYLOAD_LABELS), BETA.register(ALICE_PAYLOAD_LABELS)
    )
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
        expected = tensor(
            alice.register(BOB_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS)
        )
        for branch in ((1, "-", 0, "+"), (0, "-", 1, "-"), (1, "+", 1, "+")):
            _, _, remainder = _round(encoded, FIRST_ROUND, branch)
            for A1 in X:
                for B1 in X:
                    _, _, payload = _round(remainder, SECOND_ROUND, (A1, B1))
                    fixed, _, _ = deliver(payload, table[(*branch, A1, B1)])
                    assert equal_up_to_global_phase(fixed, expected)


def test_branch_probabilities_input_independent():
    rng = np.random.default_rng(67)
    for _ in range(5):
        leaves = enumerate_branches(_random_epr(rng), _random_epr(rng))
        worst = max(abs(leaf.probability - 1 / 64) for leaf in leaves)
        assert worst <= 1e-12


def test_generate_table_matches_packaged_asset():
    assert generate_correction_table() == load_table()


# ---------------------------------------------------------------------------
# leaf walk
# ---------------------------------------------------------------------------

def test_walk_leaves_matches_sequential_measurement():
    # oracle: measure each leaf from scratch, one qsim.measure call per step
    encoded = encode(prepare_full_state(ALPHA, EprInput(0.8, complex(0.36, 0.48))))
    leaves = list(walk_leaves(encoded))
    assert [leaf_index(*outcomes) for outcomes, _p, _r in leaves] == list(range(64))
    for outcomes, prob, payload in leaves:
        state, forced, round_probs = encoded, iter(outcomes), []
        for round_plan in MEASUREMENT_PLAN:
            round_prob = 1.0
            for qubit, basis in round_plan:
                res = measure(state, qubit, basis, force=next(forced))
                state, round_prob = res.register, round_prob * res.probability
            round_probs.append(round_prob)
        assert prob == round_probs[0] * round_probs[1]
        assert payload.labels == state.labels
        assert np.array_equal(payload.amps, state.amps)


def test_walk_round_yields_each_step_probability():
    # oracle: one direct qsim.measure call per step, probabilities compared exactly
    encoded = encode(prepare_full_state(ALPHA, BETA))
    leaves = list(walk_round(encoded, FIRST_ROUND))
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
    "force", [WORKED + ("+",), WORKED[:3], ()], ids=["too-long", "too-short", "empty"]
)
def test_walk_round_checks_force_length(force):
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match=r"force must give \(a1, A2, b3, B2\)"):
        list(walk_round(encoded, FIRST_ROUND, force))


@pytest.mark.parametrize(
    "force", [WORKED + ("+", "+", "+"), WORKED + ("+",), ()], ids=["too-long", "too-short", "empty"]
)
def test_walk_leaves_checks_force_length(force):
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match=r"force must give \(a1, A2, b3, B2, A1, B1\)"):
        list(walk_leaves(encoded, force))


def test_walk_round_checks_force_alphabet():
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match=r"outcome '\+' not in \(0, 1\) for basis Z"):
        walk_round(encoded, FIRST_ROUND, ("+", "+", 0, "+"))
    with pytest.raises(ValueError, match=r"outcome 0 not in \('\+', '-'\) for basis X"):
        walk_round(encoded, FIRST_ROUND, (0, 0, 0, "+"))


@pytest.mark.parametrize("a1", [True, 1.0], ids=["bool", "float"])
def test_walk_round_rejects_forced_outcomes_of_the_wrong_type(a1):
    # True == 1 and 1.0 == 1, but neither is a Z outcome
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match="not in"):
        walk_round(encoded, FIRST_ROUND, (a1, "+", 0, "+"))


@pytest.mark.parametrize("force", [None, (0,)], ids=["open", "forced"])
def test_walk_round_rejects_unknown_basis(force):
    encoded = encode(prepare_full_state(ALPHA, BETA))
    with pytest.raises(ValueError, match=r"basis must be 'Z' or 'X', got 'Y'"):
        walk_round(encoded, [("a1", "Y")], force)


def test_walk_leaves_shares_measured_prefixes(monkeypatch):
    # each level is split once; every open row collapses into both outcomes
    calls = []
    real = protocol._branch_rows
    monkeypatch.setattr(
        protocol, "_branch_rows", lambda rows, *a: calls.append(2 * len(rows)) or real(rows, *a)
    )
    encoded = encode(prepare_full_state(ALPHA, BETA))
    assert len(list(walk_leaves(encoded))) == 64
    assert len(calls) == len(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1])
    assert sum(calls) == (2 + 4 + 8 + 16) + 16 * (2 + 4)


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


def test_global_phase_on_inputs_does_not_matter():
    # rephasing an input rephases the delivered payload globally and nothing
    # else: every leaf's corrected state matches the base run up to phase
    phase = complex(math.cos(1.1), math.sin(1.1))
    rotated_alpha = EprInput(ALPHA.c0 * phase, ALPHA.c1 * phase)
    for branch in ((0, "+", 0, "+"), (1, "-", 1, "+")):
        for A1, B1 in (("+", "+"), ("-", "-")):
            payloads = []
            for alice in (ALPHA, rotated_alpha):
                encoded = encode(prepare_full_state(alice, BETA))
                ((_, _, payload),) = walk_leaves(encoded, branch + (A1, B1))
                payloads.append(deliver(payload, load_table()[(*branch, A1, B1)])[0])
            assert equal_up_to_global_phase(payloads[0], payloads[1])
