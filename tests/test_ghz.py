"""GHZ basis states, GHZ-basis measurement, and entanglement swapping."""

import math

import numpy as np
import pytest

import oracles
from bqtsim import ghz, qsim, verify
from bqtsim.ghz import GHZ_TERMS, _swap_rows, entanglement_swap, ghz_basis_measure, ghz_state
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


# ---------------------------------------------------------------------------
# the swap kernel against the one-register oracle
# ---------------------------------------------------------------------------

ALL_PAIRS = [(i, j) for i in range(8) for j in range(8)]


def _fields(outcome):
    """Every bit of a swap outcome, its types included."""
    reg = outcome.remainder
    return (outcome.outcome, type(outcome.outcome), outcome.probability.hex(), type(outcome.probability),
            reg.labels, reg.amps.dtype, reg.amps.tobytes(), outcome.matched, type(outcome.matched))


@pytest.mark.parametrize("i,j", ALL_PAIRS)
def test_entanglement_swap_equals_the_oracle_bit_for_bit(i, j):
    got, want = entanglement_swap(i, j), oracles.entanglement_swap(i, j)
    assert len(got) == len(want) == 4
    assert [_fields(o) for o in got] == [_fields(o) for o in want]
    assert all(not o.remainder.amps.flags.writeable for o in got)


def test_the_kernel_on_many_pairs_equals_the_oracle_pair_by_pair():
    # repeated pairs in random order: each row is computed as if it were alone
    pairs = np.random.default_rng(29).integers(0, 8, size=(200, 2))
    probs, cells, live, matched = _swap_rows(pairs)
    assert probs.shape == (200, 8) and cells.shape == (800, 2) and live.shape == (800, 8)
    assert cells.tolist() == sorted(cells.tolist())  # row-major: pair, then outcome
    for r, (i, j) in enumerate(pairs.tolist()):
        want = oracles.entanglement_swap(i, j)
        mine = cells[:, 0] == r
        assert cells[mine, 1].tolist() == [o.outcome for o in want]
        assert [probs[r, k].item().hex() for k in cells[mine, 1]] == [o.probability.hex() for o in want]
        assert [row.tobytes() for row in live[mine]] == [o.remainder.amps.tobytes() for o in want]
        assert matched[mine].tolist() == [o.matched for o in want]


def _inexact_basis(seed, real):
    """A seeded random unitary's 8 rows, real orthogonal if ``real``: unit rows whose products,
    norms and Born sums round, unlike the GHZ rows'.  Each row is renormalised by Register until
    Register leaves it unchanged, so it is a register's amplitudes, as the GHZ rows are."""
    rng = np.random.default_rng(seed)
    unitary = np.linalg.qr(rng.normal(size=(8, 8)) + (0 if real else 1j * rng.normal(size=(8, 8))))[0]
    rows = unitary.T.astype(complex)
    for k in range(8):
        for _ in range(10):
            fixed = Register(("x", "y", "z"), rows[k]).amps
            if fixed.tobytes() == rows[k].tobytes():
                break
            rows[k] = fixed
        assert fixed.tobytes() == rows[k].tobytes(), k
    rows.flags.writeable = False
    return rows


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("real", [False, True], ids=["unitary", "orthogonal"])
def test_the_swap_kernel_equals_the_oracle_on_inexact_basis_rows(monkeypatch, seed, real):
    # every GHZ product, norm and Born sum is exact in binary, so only inexact rows show the
    # kernel's arithmetic: each reduction, normalisation and reciprocal.  The orthogonal rows'
    # products hold signed zeros, but the basis matrix product returns no -0.0 part, so the
    # sign of the reciprocals' zero reaches no output here; tests/test_qsim.py checks it
    monkeypatch.setattr(ghz, "_BASIS", _inexact_basis(seed, real))
    probs, cells, live, matched = _swap_rows(np.array(ALL_PAIRS))
    assert len(cells) > 64 * 4  # more than the GHZ rows' four live outcomes per pair
    for r, (i, j) in enumerate(ALL_PAIRS):
        got, want = entanglement_swap(i, j), oracles.entanglement_swap(i, j)
        assert [_fields(o) for o in got] == [_fields(o) for o in want], (i, j)
        mine = cells[:, 0] == r
        assert cells[mine, 1].tolist() == [o.outcome for o in want], (i, j)
        assert [probs[r, k].item().hex() for k in cells[mine, 1]] == [o.probability.hex() for o in want], (i, j)
        assert [row.tobytes() for row in live[mine]] == [o.remainder.amps.tobytes() for o in want], (i, j)
        assert [None if m < 0 else m for m in matched[mine].tolist()] == [o.matched for o in want], (i, j)


@pytest.mark.parametrize("i,j,bad", [(8, 0, 8), (0, 8, 8), (-1, 0, -1), (0, -1, -1), (True, 0, True), (0, False, False),
                                     (1.0, 0, 1.0), ("0", 0, "0"), (np.int64(1), 0, np.int64(1)), (None, 9, None)])
def test_entanglement_swap_index_errors_are_ghz_states(i, j, bad):
    # the first bad index raises ghz_state's error, so -1 never reaches a negative row of the basis
    with pytest.raises(ValueError) as raised:
        entanglement_swap(i, j)
    with pytest.raises(ValueError) as expected:
        ghz_state(bad, ("x", "y", "z"))
    assert str(raised.value) == str(expected.value) == f"GHZ index must be an int in 0..7, got {bad!r}"


def test_a_patched_floor_above_a_quarter_leaves_no_live_outcome(monkeypatch):
    # the floor is read at call time; every swap outcome has probability 1/4, so at
    # 0.3 none is live (before the kernel, the forced collapse raised here instead)
    monkeypatch.setattr(qsim, "MIN_FORCE_PROB", 0.3)
    assert entanglement_swap(0, 0) == oracles.entanglement_swap(0, 0) == []
    result = verify.criterion_swap_exhaustive()
    assert (result.passed, result.detail) == oracles.swap_exhaustive() == (False, "channel (0,0) produced 0 outcomes")
    monkeypatch.setattr(qsim, "MIN_FORCE_PROB", 0.25 - 1e-9)
    assert len(entanglement_swap(0, 0)) == 4


def _faulty(drop=(), off=(), unmatched=()):
    """The kernel and the oracle swap with the same faults at (pair, outcome) cells: an outcome
    dropped, its probability moved by 1e-9, or its remainder left unclassified."""
    def kernel(pairs):
        probs, cells, live, matched = _swap_rows(pairs)
        probs, matched, at = probs.copy(), matched.copy(), [tuple(c) for c in cells.tolist()]
        for r, k in off:
            probs[r, k] += 1e-9
        matched[[at.index(c) for c in unmatched]] = -1
        keep = [n for n, c in enumerate(at) if c not in drop]
        return probs, cells[keep], live[keep], matched[keep]

    def swap(i, j):
        outcomes = [o for o in oracles.entanglement_swap(i, j) if (8 * i + j, o.outcome) not in drop]
        return [o._replace(probability=o.probability + 1e-9 if (8 * i + j, o.outcome) in off else o.probability,
                           matched=None if (8 * i + j, o.outcome) in unmatched else o.matched)
                for o in outcomes]

    return kernel, swap


def _cases():
    live = [(8 * i + j, o.outcome) for i, j in ALL_PAIRS for o in oracles.entanglement_swap(i, j)]
    yield {}
    yield {"drop": [live[-1]]}
    yield {"off": [live[-1]]}
    yield {"unmatched": [live[0]]}
    yield {"drop": [live[41]], "off": [live[42]]}  # the same pair: its count fails first
    yield {"drop": [live[45]], "unmatched": [live[43]]}  # an earlier pair fails on an outcome
    rng = np.random.default_rng(43)
    for _ in range(40):
        yield {kind: [live[n] for n in rng.choice(len(live), size=rng.integers(0, 4), replace=False)]
               for kind in ("drop", "off", "unmatched")}


@pytest.mark.parametrize("faults", list(_cases()))
def test_the_swap_exhaustive_detail_equals_the_oracle_loop(monkeypatch, faults):
    kernel, swap = _faulty(**faults)
    monkeypatch.setattr(verify, "_swap_rows", kernel)
    result = verify.criterion_swap_exhaustive()
    assert (result.passed, result.detail) == oracles.swap_exhaustive(swap)
