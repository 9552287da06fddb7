"""GHZ basis states, GHZ-basis measurement, and entanglement swapping."""

import math

import numpy as np
import pytest

from bqtsim.ghz import GHZ_TERMS, entanglement_swap, ghz_basis_measure, ghz_state
from bqtsim.qsim import Register, make_register, tensor
from oracles import equal_up_to_global_phase

SQH = 1.0 / math.sqrt(2.0)

# Frozen literal expansion of all eight basis states.
EXPECTED_TERMS = {
    0: {"000": SQH, "111": SQH},
    1: {"000": SQH, "111": -SQH},
    2: {"100": SQH, "011": SQH},
    3: {"100": SQH, "011": -SQH},
    4: {"010": SQH, "101": SQH},
    5: {"010": SQH, "101": -SQH},
    6: {"110": SQH, "001": SQH},
    7: {"110": SQH, "001": -SQH},
}


def test_ghz_state_literals():
    for index, terms in EXPECTED_TERMS.items():
        reg = ghz_state(index, ("x", "y", "z"))
        got = dict(reg.nonzero_terms())
        assert set(got) == set(terms), index
        for bits, amp in terms.items():
            assert got[bits] == pytest.approx(amp, abs=1e-12)


def test_ghz_terms_pairing():
    # every ket pair is complementary and each pair appears with both signs
    for first, second, sign in GHZ_TERMS:
        assert all(a != b for a, b in zip(first, second))
        assert sign in (+1, -1)
    assert [t[2] for t in GHZ_TERMS] == [1, -1, 1, -1, 1, -1, 1, -1]


def test_ghz_basis_is_orthonormal():
    vectors = [ghz_state(i, ("x", "y", "z")).amps for i in range(8)]
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    assert np.allclose(gram, np.eye(8), atol=1e-12)


def test_ghz_state_argument_errors():
    with pytest.raises(ValueError, match="0..7"):
        ghz_state(8, ("x", "y", "z"))
    with pytest.raises(ValueError, match="0..7"):
        ghz_state(-1, ("x", "y", "z"))
    with pytest.raises(ValueError, match="3 labels"):
        ghz_state(0, ("x", "y"))


@pytest.mark.parametrize("index", [False, True])
def test_ghz_state_rejects_bool_index(index):
    with pytest.raises(ValueError, match=rf"an int in 0\.\.7, got {index}"):
        ghz_state(index, ("x", "y", "z"))


@pytest.mark.parametrize("force", [False, True])
def test_ghz_measure_rejects_bool_force(force):
    reg = ghz_state(int(force), ("x", "y", "z"))
    with pytest.raises(ValueError, match=rf"an int in 0\.\.7, got {force}"):
        ghz_basis_measure(reg, ("x", "y", "z"), force=force)


def test_ghz_measure_projects_basis_state_onto_itself():
    for index in range(8):
        reg = ghz_state(index, ("x", "y", "z"))
        res = ghz_basis_measure(reg, ("x", "y", "z"), force=index)
        assert res.outcome == index
        assert res.probability == pytest.approx(1.0, abs=1e-12)
        assert res.register.labels == ()


def test_ghz_measure_orthogonal_outcome_is_impossible():
    reg = ghz_state(3, ("x", "y", "z"))
    with pytest.raises(ValueError, match="probability"):
        ghz_basis_measure(reg, ("x", "y", "z"), force=0)


def test_ghz_measure_mode_exclusivity_and_validation():
    reg = ghz_state(0, ("x", "y", "z"))
    with pytest.raises(ValueError, match="exactly one"):
        ghz_basis_measure(reg, ("x", "y", "z"))
    with pytest.raises(ValueError, match="0..7"):
        ghz_basis_measure(reg, ("x", "y", "z"), force=9)
    with pytest.raises(ValueError, match="distinct"):
        ghz_basis_measure(reg, ("x", "x", "y"), force=0)


def test_ghz_measure_product_state_probabilities():
    # |000> overlaps only the two sign variants over the (000, 111) pair.
    reg = make_register([("000", 1.0)], ("x", "y", "z"))
    for index, expected in ((0, 0.5), (1, 0.5)):
        res = ghz_basis_measure(reg, ("x", "y", "z"), force=index)
        assert res.probability == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        ghz_basis_measure(reg, ("x", "y", "z"), force=2)


def test_ghz_measure_sampling_consumes_one_draw():
    reg = tensor(ghz_state(0, ("1", "2", "3")), ghz_state(0, ("4", "5", "6")))
    rng = np.random.default_rng(7)
    clone = np.random.default_rng(7)
    res = ghz_basis_measure(reg, ("1", "3", "5"), rng=rng)
    clone.random()
    assert rng.random() == clone.random()
    assert res.outcome in (0, 1, 6, 7)
    assert res.register.labels == ("2", "4", "6")


def test_ghz_measure_keeps_remaining_label_order():
    reg = tensor(ghz_state(0, ("1", "2", "3")), ghz_state(0, ("4", "5", "6")))
    res = ghz_basis_measure(reg, ("5", "1", "3"), force=0)
    # remaining qubits keep their original order regardless of triple order
    assert res.register.labels == ("2", "4", "6")


def test_swap_reference_pairing():
    outcomes = entanglement_swap(0, 0)
    assert {o.outcome: o.matched for o in outcomes} == {0: 0, 1: 1, 6: 2, 7: 3}
    for o in outcomes:
        assert o.probability == pytest.approx(0.25, abs=1e-12)
        assert o.remainder.labels == ("2", "4", "6")


def test_swap_forced_remainder_content():
    # outcome 6 of the reference swap leaves the third GHZ pair variant
    reg = tensor(ghz_state(0, ("1", "2", "3")), ghz_state(0, ("4", "5", "6")))
    res = ghz_basis_measure(reg, ("1", "3", "5"), force=6)
    assert equal_up_to_global_phase(res.register, ghz_state(2, ("2", "4", "6")))


def test_swap_all_channel_pairs():
    for i in range(8):
        for j in range(8):
            outcomes = entanglement_swap(i, j)
            assert len(outcomes) == 4, (i, j)
            total = sum(o.probability for o in outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(o.matched is not None for o in outcomes), (i, j)


def test_swap_outcome_sets_depend_on_inputs():
    # shifting one input index moves the surviving outcome set
    assert {o.outcome for o in entanglement_swap(0, 0)} == {0, 1, 6, 7}
    assert {o.outcome for o in entanglement_swap(2, 0)} != {0, 1, 6, 7}


def test_swap_remainders_are_ghz_states():
    for i in range(8):
        for o in entanglement_swap(i, 5):
            rebuilt = ghz_state(o.matched, ("2", "4", "6"))
            assert equal_up_to_global_phase(o.remainder, rebuilt)


def _ghz_projector_oracle(reg, triple, index):
    """Born probability and collapsed remainder of GHZ outcome ``index``.

    Built from the explicit projector ``|g><g| x I`` on the flat vector, with
    every basis index decoded bit by bit rather than through axis moves.
    """
    n = reg.n_qubits
    g = ghz_state(index, triple).amps
    pos = [reg.labels.index(q) for q in triple]
    rest = [p for p in range(n) if p not in pos]

    def split(x):
        bits = [(x >> (n - 1 - p)) & 1 for p in range(n)]
        t = sum(bits[p] << (2 - k) for k, p in enumerate(pos))
        r = sum(bits[p] << (len(rest) - 1 - k) for k, p in enumerate(rest))
        return t, r

    proj = np.zeros((1 << n, 1 << n), dtype=complex)
    for x in range(1 << n):
        tx, rx = split(x)
        for y in range(1 << n):
            ty, ry = split(y)
            if rx == ry:
                proj[x, y] = g[tx] * np.conj(g[ty])
    prob = float(np.real(np.vdot(reg.amps, proj @ reg.amps)))
    collapsed = (proj @ reg.amps) / math.sqrt(prob) if prob >= 1e-12 else None
    kept = np.zeros(1 << len(rest), dtype=complex)
    if collapsed is not None:
        for x in range(1 << n):
            t, r = split(x)
            kept[r] += np.conj(g[t]) * collapsed[x]
    return prob, kept


def _rand_register(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Register(tuple(f"q{k}" for k in range(n)), vec)


def test_ghz_measure_against_projector_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        reg = _rand_register(rng, n)
        triple = tuple(str(q) for q in rng.permutation(reg.labels)[:3])
        remaining = tuple(q for q in reg.labels if q not in triple)
        for index in range(8):
            expected_p, kept = _ghz_projector_oracle(reg, triple, index)
            if expected_p < 1e-12:
                continue
            outcome, prob, collapsed = ghz_basis_measure(reg, triple, force=index)
            assert outcome == index
            assert prob == pytest.approx(expected_p, abs=1e-12)
            assert collapsed.labels == remaining
            assert np.allclose(collapsed.amps, kept, atol=1e-10)


def test_ghz_sampled_and_forced_collapse_agree():
    rng = np.random.default_rng(37)
    for _ in range(50):
        reg = _rand_register(rng, int(rng.integers(3, 6)))
        triple = tuple(str(q) for q in rng.permutation(reg.labels)[:3])
        outcome, prob, collapsed = ghz_basis_measure(reg, triple, rng=rng)
        f_outcome, f_prob, f_collapsed = ghz_basis_measure(reg, triple, force=outcome)
        assert f_outcome == outcome
        assert f_prob == prob
        assert f_collapsed.labels == collapsed.labels
        assert np.array_equal(f_collapsed.amps, collapsed.amps)
