"""Engine tests: registers, gates, measurement, reduced states.

Oracle values are either hand-derived literals or recomputed here through
an independent dense implementation (explicit projectors, double-loop
partial trace) rather than through the code under test.
"""

import math

import numpy as np
import pytest

from bqtsim.qsim import (
    ATOL,
    GATES,
    MAX_QUBITS,
    DensityMatrix,
    Register,
    _normalized,
    _pick,
    _picks,
    _reciprocals,
    apply_cnot,
    apply_gate1,
    fidelity_pure,
    make_register,
    measure,
    outcome_probabilities,
    permute,
    reduced_density,
    tensor,
)
from oracles import equal_up_to_global_phase

SQH = 1.0 / math.sqrt(2.0)


def _rand_register(rng, n, prefix="q"):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Register(tuple(f"{prefix}{k}" for k in range(n)), vec)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestRegister:
    def test_msb_convention(self):
        # labels[0] is the most significant index bit: |q0 q1> = |10> sits at
        # flat index 2.
        reg = Register(("q0", "q1"), [0, 0, 1, 0])
        assert reg.amplitude("10") == 1.0 + 0j

    def test_normalizes_on_entry(self):
        reg = Register(("q",), [3.0, 4.0])
        assert reg.amps[0] == pytest.approx(0.6)
        assert reg.amps[1] == pytest.approx(0.8)

    def test_amps_read_only(self):
        reg = Register(("q",), [1.0, 0.0])
        with pytest.raises(ValueError):
            reg.amps[0] = 0.5

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            Register(("a", "a"), [1, 0, 0, 0])

    def test_qubit_cap(self):
        labels = tuple(f"q{i}" for i in range(MAX_QUBITS + 1))
        with pytest.raises(ValueError, match="cap"):
            Register(labels, np.zeros(1 << len(labels)))

    def test_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            Register(("a", "b"), [1, 0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="below the 1e-12 floor"):
            Register(("a",), [0, 0])
        # the floor guards the norm from underflow: a tiny nonzero vector is refused too
        with pytest.raises(ValueError, match="below the 1e-12 floor"):
            Register(("a",), [1e-200, 0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Register(("a",), [np.inf, 0])
        for amps in ([np.nan, 0], [complex(0, np.inf), 1], [np.inf, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                Register(("a",), amps)

    def test_overflowing_norm(self):
        # every entry is finite but the norm is not; dividing by it would
        # leave the zero vector
        with pytest.raises(ValueError, match="norm must be finite"):
            Register(("a",), [1e200, 1e200])
        with pytest.raises(ValueError, match="norm must be finite"):
            make_register([("0", 1e200), ("1", 1e200)], ("a",))

    def test_scalar_register(self):
        reg = Register((), [1.0])
        assert reg.n_qubits == 0
        assert reg.amplitude("") == 1.0 + 0j
        assert reg.nonzero_terms() == [("", 1.0 + 0j)]

    def test_axis_lookup(self):
        reg = Register(("x", "y", "z"), np.eye(8)[0])
        assert reg.axis("y") == 1
        with pytest.raises(ValueError, match="no qubit labeled"):
            reg.axis("w")

    def test_amplitude_validates_bitstring(self):
        reg = Register(("x", "y"), [1, 0, 0, 0])
        with pytest.raises(ValueError):
            reg.amplitude("0")
        with pytest.raises(ValueError):
            reg.amplitude("02")


def test_make_register_accumulates_duplicates():
    reg = make_register([("0", 1.0), ("1", 1.0), ("0", 1.0)], ("q",))
    # amplitudes 2 and 1 before normalization
    assert reg.amps[0] == pytest.approx(2 / math.sqrt(5))
    assert reg.amps[1] == pytest.approx(1 / math.sqrt(5))


def test_make_register_rejects_bad_strings():
    with pytest.raises(ValueError):
        make_register([("00", 1.0)], ("q",))


def test_tensor_order_and_collision():
    left = Register(("a",), [0.6, 0.8])
    right = Register(("b",), [0.0, 1.0])
    joint = tensor(left, right)
    assert joint.labels == ("a", "b")
    assert joint.amplitude("01") == pytest.approx(0.6)
    assert joint.amplitude("11") == pytest.approx(0.8)
    with pytest.raises(ValueError, match="collision"):
        tensor(left, Register(("a",), [1, 0]))


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_single_qubit_gate_literals():
    zero = Register(("q",), [1, 0])
    assert np.allclose(apply_gate1(zero, "q", "X").amps, [0, 1])
    assert np.allclose(apply_gate1(zero, "q", "H").amps, [SQH, SQH])
    minus = apply_gate1(apply_gate1(zero, "q", "X"), "q", "Z")
    assert np.allclose(minus.amps, [0, -1])


def test_unknown_gate():
    with pytest.raises(ValueError, match="unknown gate"):
        apply_gate1(Register(("q",), [1, 0]), "q", "Y")


def test_gate_targets_named_qubit_not_position():
    reg = make_register([("00", 0.6), ("11", 0.8)], ("u", "v"))
    flipped = apply_gate1(reg, "v", "X")
    assert flipped.amplitude("01") == pytest.approx(0.6)
    assert flipped.amplitude("10") == pytest.approx(0.8)


def test_cnot_truth_table():
    for a in (0, 1):
        for b in (0, 1):
            reg = make_register([(f"{a}{b}", 1.0)], ("c", "t"))
            out = apply_cnot(reg, "c", "t")
            assert out.amplitude(f"{a}{b ^ a}") == pytest.approx(1.0)


def test_cnot_reversed_roles():
    reg = make_register([("01", 1.0)], ("c", "t"))
    out = apply_cnot(reg, "t", "c")  # control is the second label here
    assert out.amplitude("11") == pytest.approx(1.0)
    with pytest.raises(ValueError, match="differ"):
        apply_cnot(reg, "c", "c")


def test_gate_words_norm_and_involution():
    rng = np.random.default_rng(11)
    for _ in range(200):
        reg = _rand_register(rng, int(rng.integers(1, 6)))
        q = reg.labels[rng.integers(0, reg.n_qubits)]
        g = ("X", "Z", "H")[rng.integers(0, 3)]
        once = apply_gate1(reg, q, g)
        assert abs(np.linalg.norm(once.amps) - 1.0) <= ATOL
        assert np.allclose(apply_gate1(once, q, g).amps, reg.amps, atol=ATOL)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_mode_exclusivity():
    reg = Register(("q",), [1, 0])
    with pytest.raises(ValueError, match="exactly one"):
        measure(reg, "q")
    with pytest.raises(ValueError, match="exactly one"):
        measure(reg, "q", force=0, rng=np.random.default_rng(0))


def test_measure_forced_literal():
    plus = Register(("q",), [SQH, SQH])
    res = measure(plus, "q", "Z", force=1)
    assert res.outcome == 1
    assert res.probability == pytest.approx(0.5, abs=ATOL)
    assert res.register.labels == ()

    res = measure(Register(("q",), [1, 0]), "q", "X", force="-")
    assert res.probability == pytest.approx(0.5, abs=ATOL)


def test_measure_forcing_impossible_outcome():
    zero = Register(("q",), [1, 0])
    with pytest.raises(ValueError, match="probability"):
        measure(zero, "q", "Z", force=1)


def test_measure_rejects_foreign_alphabet():
    reg = Register(("q",), [1, 0])
    with pytest.raises(ValueError, match="not in"):
        measure(reg, "q", "Z", force="+")
    with pytest.raises(ValueError, match="not in"):
        measure(reg, "q", "X", force=0)


@pytest.mark.parametrize("force", [True, False, 1.0, 0.0], ids=["true", "false", "float1", "float0"])
def test_measure_rejects_forced_outcomes_of_the_wrong_type(force):
    # each compares equal to a Z outcome, but only the ints 0 and 1 are outcomes
    reg = Register(("q", "p"), [0, 0, 1, 0])
    with pytest.raises(ValueError, match="not in"):
        measure(reg, "q", "Z", force=force)


def test_measure_rejects_unknown_basis_before_outcome():
    reg = Register(("q",), [1, 0])
    for kwargs in ({"force": 0}, {"rng": np.random.default_rng(0)}):
        with pytest.raises(ValueError, match=r"basis must be 'Z' or 'X', got 'Y'"):
            measure(reg, "q", "Y", **kwargs)


def test_measure_removes_qubit_and_collapses():
    bell = make_register([("00", 1.0), ("11", 1.0)], ("a", "b"))
    res = measure(bell, "a", "Z", force=1)
    assert res.register.labels == ("b",)
    assert np.allclose(res.register.amps, [0, 1])
    assert res.probability == pytest.approx(0.5, abs=ATOL)


def test_measure_consumes_exactly_one_draw():
    # After a sampled measurement the generator must sit exactly one draw
    # ahead of a fresh clone.
    reg = make_register([("00", 1.0), ("11", 1.0)], ("a", "b"))
    rng = np.random.default_rng(123)
    clone = np.random.default_rng(123)
    measure(reg, "a", rng=rng)
    clone.random()
    assert rng.random() == clone.random()


def test_batched_two_outcome_pick_is_pick():
    # draws at the first outcome's probability p0, one ulp either side of it, and at or above
    # p0 + p1, where _pick falls through to its last outcome; random draws never tie
    cases = [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.3, 0.7000000000000001), (1 / 3, 2 / 3), (0.25, 0.5)]
    probs, draws = [], []
    for p0, p1 in cases:
        for u in (np.nextafter(p0, -1.0), p0, np.nextafter(p0, 2.0), p0 + p1, np.nextafter(p0 + p1, 2.0), 1.0):
            probs.append((p0, p1))
            draws.append(float(u))
    got = _picks(np.array([p0 for p0, _ in probs]), np.array(draws))
    assert got.dtype == np.intp
    assert got.tolist() == [_pick(p, u) for p, u in zip(probs, draws)]


def test_measure_against_projector_oracle():
    # Independent oracle: explicit rank-2^{n-1} projectors on the flat vector.
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        reg = _rand_register(rng, n)
        q = reg.labels[rng.integers(0, n)]
        basis = "ZX"[rng.integers(0, 2)]
        axis = reg.axis(q)
        if basis == "Z":
            vecs = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
        else:
            vecs = (np.array([SQH, SQH], dtype=complex), np.array([SQH, -SQH], dtype=complex))
        for pick, v in enumerate(vecs):
            ops = [np.eye(2, dtype=complex)] * n
            ops[axis] = np.outer(v, v.conj())
            proj = ops[0]
            for op in ops[1:]:
                proj = np.kron(proj, op)
            expected_p = float(np.real(np.vdot(reg.amps, proj @ reg.amps)))
            got0, got1 = outcome_probabilities(reg, q, basis)
            assert (got0, got1)[pick] == pytest.approx(expected_p, abs=ATOL)
            alphabet = (0, 1) if basis == "Z" else ("+", "-")
            res = measure(reg, q, basis, force=alphabet[pick])
            assert res.probability == pytest.approx(expected_p, abs=ATOL)
            # collapsed amplitudes: project, renormalize, then drop the axis
            collapsed = (proj @ reg.amps) / math.sqrt(expected_p)
            kept = np.tensordot(
                v.conj(), np.moveaxis(collapsed.reshape((2,) * n), axis, 0), axes=(0, 0)
            ).reshape(-1)
            assert np.allclose(res.register.amps, kept, atol=1e-10)


def test_sampled_and_forced_collapse_agree():
    rng = np.random.default_rng(29)
    for _ in range(100):
        reg = _rand_register(rng, int(rng.integers(1, 5)))
        q = reg.labels[rng.integers(0, reg.n_qubits)]
        basis = "ZX"[rng.integers(0, 2)]
        sampled = measure(reg, q, basis, rng=rng)
        forced = measure(reg, q, basis, force=sampled.outcome)
        assert sampled.probability == forced.probability
        assert np.array_equal(sampled.register.amps, forced.register.amps)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(("q",), np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="unit trace"):
        DensityMatrix(("q",), np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix(("q",), np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="2x2"):
        DensityMatrix(("q",), np.eye(4) / 4)


def test_reduced_density_against_double_loop_oracle():
    # Independent partial trace: rho[i,j] = sum_k psi[i,k] conj(psi[j,k])
    # after regrouping axes by hand.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        reg = _rand_register(rng, n)
        k = int(rng.integers(1, n))
        keep = list(rng.permutation(reg.labels)[:k])
        rho = reduced_density(reg, keep)
        axes = [reg.axis(q) for q in keep]
        rest = [a for a in range(n) if a not in axes]
        psi = reg.amps.reshape((2,) * n).transpose(axes + rest).reshape(1 << k, -1)
        expected = np.zeros((1 << k, 1 << k), dtype=complex)
        for i in range(1 << k):
            for j in range(1 << k):
                expected[i, j] = np.sum(psi[i] * psi[j].conj())
        assert np.allclose(rho.mat, expected, atol=ATOL)
        assert rho.labels == tuple(keep)


def test_reduced_density_of_entangled_half_is_mixed():
    bell = make_register([("00", 1.0), ("11", 1.0)], ("a", "b"))
    rho = reduced_density(bell, ("a",))
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=ATOL)
    assert rho.purity() == pytest.approx(0.5, abs=ATOL)


def test_reduced_density_argument_errors():
    bell = make_register([("00", 1.0), ("11", 1.0)], ("a", "b"))
    with pytest.raises(ValueError, match="at least one"):
        reduced_density(bell, ())
    with pytest.raises(ValueError, match="duplicate"):
        reduced_density(bell, ("a", "a"))


def test_fidelity_pure_literals():
    epr = make_register([("00", 0.6), ("11", 0.8)], ("a", "b"))
    rho = reduced_density(tensor(epr, Register(("c",), [1, 0])), ("a", "b"))
    assert fidelity_pure(rho, epr) == pytest.approx(1.0, abs=ATOL)
    # dephased EPR against the pure EPR: 0.36^2 + 0.64^2 = 0.5392
    dephased = DensityMatrix(("a", "b"), np.diag([0.36, 0, 0, 0.64]).astype(complex))
    assert fidelity_pure(dephased, epr) == pytest.approx(0.5392, abs=ATOL)


def test_fidelity_pure_aligns_label_order():
    asym = make_register([("01", 1.0)], ("a", "b"))
    rho = reduced_density(asym, ("b", "a"))
    target = make_register([("01", 1.0)], ("a", "b"))
    assert fidelity_pure(rho, target) == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(ValueError, match="label mismatch"):
        fidelity_pure(rho, Register(("a", "c"), [1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# phase comparison and permutation
# ---------------------------------------------------------------------------

def test_equal_up_to_global_phase():
    rng = np.random.default_rng(53)
    reg = _rand_register(rng, 3)
    phased = Register(reg.labels, reg.amps * np.exp(1.7j))
    assert equal_up_to_global_phase(reg, phased)
    assert equal_up_to_global_phase(reg, permute(phased, reg.labels[::-1]))
    other = _rand_register(rng, 3)
    assert not equal_up_to_global_phase(reg, other)
    with pytest.raises(ValueError, match="label mismatch"):
        equal_up_to_global_phase(reg, _rand_register(rng, 2))


def test_global_phase_not_fooled_by_relative_phase():
    plus = Register(("q",), [SQH, SQH])
    minus = Register(("q",), [SQH, -SQH])
    assert not equal_up_to_global_phase(plus, minus)


def test_permute_moves_amplitudes():
    reg = make_register([("01", 0.6), ("10", 0.8)], ("a", "b"))
    swapped = permute(reg, ("b", "a"))
    assert swapped.amplitude("10") == pytest.approx(0.6)
    assert swapped.amplitude("01") == pytest.approx(0.8)
    assert permute(swapped, ("a", "b")).amplitude("01") == pytest.approx(0.6)
    with pytest.raises(ValueError, match="not a permutation"):
        permute(reg, ("a", "c"))


def test_permute_identity_returns_same_object():
    reg = make_register([("01", 1.0)], ("a", "b"))
    assert permute(reg, ("a", "b")) is reg


def test_gates_table_is_unitary():
    for name, g in GATES.items():
        assert np.allclose(g @ g.conj().T, np.eye(2), atol=ATOL), name


# ---------------------------------------------------------------------------
# operation results
# ---------------------------------------------------------------------------

def test_operation_results_are_read_only_finite_normalized_and_give_valid_densities():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        reg = _rand_register(rng, int(rng.integers(2, 7)))
        q0, q1 = (str(q) for q in rng.choice(reg.labels, size=2, replace=False))
        results = [apply_gate1(reg, q0, gate) for gate in GATES]
        results += [
            apply_cnot(reg, q0, q1),
            tensor(reg, _rand_register(rng, int(rng.integers(1, 4)), prefix="r")),
            permute(reg, tuple(rng.permutation(reg.labels))),
            measure(reg, q0, "Z", rng=rng).register,
            measure(reg, q1, "X", rng=rng).register,
        ]
        for result in results:
            assert not result.amps.flags.writeable
            assert np.all(np.isfinite(result.amps))
            assert abs(np.linalg.norm(result.amps) - 1.0) <= ATOL
            shuffled = [str(q) for q in rng.permutation(result.labels)]
            rho = reduced_density(result, shuffled[: 1 + rng.integers(min(3, result.n_qubits))])
            DensityMatrix(rho.labels, rho.mat)  # the public validator accepts it


def test_tensor_keeps_the_qubit_cap():
    half = MAX_QUBITS // 2 + 1
    with pytest.raises(ValueError, match="cap"):
        tensor(
            Register(tuple(f"a{k}" for k in range(half)), np.ones(1 << half)),
            Register(tuple(f"b{k}" for k in range(half)), np.ones(1 << half)),
        )


# ---------------------------------------------------------------------------
# the row kernels' exact reciprocals
# ---------------------------------------------------------------------------

def _parts_rows(rng, shape, low, high, zeros=0.3):
    """Complex rows whose parts have random signs and magnitudes ``e**low`` to ``e**high``, a
    share ``zeros`` of them +0.0 or -0.0; written part by part, so every zero keeps its sign."""
    parts = rng.normal(size=(2, *shape)) * np.exp(rng.uniform(low, high, size=(2, *shape)))
    hit = rng.random(parts.shape) < zeros
    parts[hit] = np.copysign(0.0, rng.normal(size=hit.sum()))
    rows = np.empty(shape, dtype=complex)
    rows.real, rows.imag = parts
    return rows


def _layouts(rows):
    """``rows`` (n, m) as C-contiguous, transposed, reversed-stride and strided-column arrays."""
    wide = np.repeat(rows, 2, axis=1)
    return {"C": rows, "T": rows.T.copy().T, "reversed": rows[::-1, ::-1].copy()[::-1, ::-1], "strided": wide[:, ::2]}


@pytest.mark.parametrize("length", [*range(1, 18), 31, 64, 1000])
@pytest.mark.parametrize(
    "low, high, divisors",
    [
        (-30, 30, (0.25, 1.99)),  # signed zeros among ordinary parts: the kernels' own divisors
        (-300, 300, (1e-8, 1e8)),  # magnitudes e**-300 to e**300, every quotient a normal number
        (-745, -700, (0.25, 1.99)),  # subnormal parts over divisors below 2: no nonzero quotient rounds to 0
    ],
    ids=["signed-zeros", "e300", "subnormal"],
)
def test_multiplying_by_reciprocals_is_numpys_division_bit_for_bit(length, low, high, divisors):
    # the row kernels multiply by _reciprocals where the oracle divides by a positive real;
    # every byte must agree, the sign of every zero included, in every layout and with order="C".
    # A nonzero part whose quotient rounds to 0 (a divisor of 2 or more over a subnormal part)
    # would read -0.0 divided and +0.0 multiplied; no kernel divides by so large a norm there
    rng = np.random.default_rng(length)
    d = rng.uniform(*divisors, size=40)
    for name, rows in _layouts(_parts_rows(rng, (40, length), low, high)).items():
        assert rows.shape == (40, length), name
        want = rows / d[:, None]
        assert (rows * _reciprocals(d)[:, None]).tobytes() == want.tobytes(), name
        got = np.multiply(rows, _reciprocals(d)[:, None], order="C")
        assert got.flags.c_contiguous and got.tobytes() == np.divide(rows, d[:, None], order="C").tobytes(), name
        batch, by = rows.reshape(8, 5, length), d.reshape(8, 5)  # a leading batch axis, as _collapse_rows has
        assert (batch * _reciprocals(by)[..., None]).tobytes() == (batch / by[..., None]).tobytes(), name


def test_normalized_rows_are_registers_bit_for_bit():
    # _normalized is the row kernels' one rule for "each row over its own norm": Register's bytes
    rng = np.random.default_rng(30)
    for n in range(11):
        rows = _parts_rows(rng, (6, 1 << n), -3, 3, zeros=0.1)
        labels = tuple(f"q{k}" for k in range(n))
        for row, normalized in zip(rows, _normalized(rows), strict=True):
            assert normalized.tobytes() == Register(labels, row).amps.tobytes(), n
        assert _normalized(rows.reshape(3, 2, -1)).tobytes() == _normalized(rows).tobytes(), n
