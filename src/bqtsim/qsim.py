"""Dense complex state-vector engine over registers of named qubits.

A :class:`Register` couples an ordered tuple of qubit labels with a
unit-norm amplitude vector; ``labels[0]`` is the most significant bit of
the basis-state index.  Every operation is a pure function that returns a
fresh register, so values can be shared between threads without locking.

Every register and density matrix is built by its validating constructor,
except :meth:`Register._rows`: read-only views of rows the row kernels have normalized.
A measurement of one register collapses in :func:`_collapse`, the walk's rows all at once in
:func:`_collapse_rows`, with the same bits: :func:`measure` is the oracle tests check them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ATOL",
    "GATES",
    "MAX_QUBITS",
    "DensityMatrix",
    "MeasureResult",
    "Register",
    "apply_cnot",
    "apply_gate1",
    "fidelity_pure",
    "make_register",
    "measure",
    "outcome_probabilities",
    "permute",
    "reduced_density",
    "tensor",
]

#: Hard cap on register width; the protocol itself needs ten qubits.
MAX_QUBITS = 12

#: Tolerance for equality checks on norms, probabilities and amplitudes.
ATOL = 1e-12

#: Eigenvalue floor below which a density matrix is rejected as non-PSD.
PSD_FLOOR = -1e-10

#: Forcing an outcome whose Born probability is below this is an error.
MIN_FORCE_PROB = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF,
}

_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

#: Outcome alphabet of each measurement basis, computational (Z) and
#: conjugate (X); the first outcome is the zero bit.
OUTCOMES = {"Z": (0, 1), "X": ("+", "-")}


def _check_width(n_qubits: int) -> None:
    """Refuse a register of more than ``MAX_QUBITS`` qubits."""
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap")


class Register:
    """Pure state over named qubits; treat instances as immutable.

    Args:
        labels: distinct qubit names, most significant index bit first.
        amps: ``2**len(labels)`` complex amplitudes; normalized on entry.

    Raises:
        ValueError: duplicate labels, too many qubits, wrong amplitude
            count, a non-finite entry or norm, or an all-zero vector.
    """

    __slots__ = ("labels", "amps")

    def __init__(self, labels: Sequence[str], amps: Iterable[complex]) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels!r}")
        _check_width(len(labels))
        vec = np.asarray(amps, dtype=complex).reshape(-1)
        if vec.size != 1 << len(labels):
            raise ValueError(
                f"expected {1 << len(labels)} amplitudes for {len(labels)} qubits, got {vec.size}"
            )
        # A non-finite entry makes the norm non-finite, and so do finite
        # entries whose squares overflow; either way there is no state.
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm):
            raise ValueError("amplitudes and their norm must be finite")
        if norm < 1e-12:
            raise ValueError(f"amplitude norm {norm:.3e} is below the 1e-12 floor")
        vec = vec / norm
        vec.flags.writeable = False
        self.labels = labels
        self.amps = vec

    @classmethod
    def _rows(cls, labels: tuple[str, ...], rows: np.ndarray) -> list["Register"]:
        """A register viewing each row of a read-only copy of ``rows``, whose rows are normalized."""
        batch = rows.copy()  # owns its memory, so no writable base is left behind the views
        batch.flags.writeable = False
        regs = [object.__new__(cls) for _ in batch]
        for reg, row in zip(regs, batch):
            reg.labels, reg.amps = labels, row
        return regs

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        """Position of ``label`` in the index bit order (0 = most significant)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no qubit labeled {label!r} in {self.labels!r}") from None

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the basis state written as a bitstring in label order."""
        if len(bits) != self.n_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a {self.n_qubits}-bit string, got {bits!r}")
        return complex(self.amps[int(bits, 2) if bits else 0])

    def nonzero_terms(self, tol: float = 1e-9) -> list[tuple[str, complex]]:
        """(bitstring, amplitude) pairs with magnitude above ``tol``."""
        n = self.n_qubits
        return [
            (format(i, f"0{n}b") if n else "", complex(a))
            for i, a in enumerate(self.amps)
            if abs(a) > tol
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"({a:.4g})|{bits}>" for bits, a in self.nonzero_terms())
        return f"Register({','.join(self.labels)}: {terms})"


class MeasureResult(NamedTuple):
    outcome: int | str
    probability: float
    register: Register


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state over named qubits; validated Hermitian, unit-trace, PSD."""

    labels: tuple[str, ...]
    mat: np.ndarray

    def __post_init__(self) -> None:
        dim = 1 << len(self.labels)
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix for {self.labels!r}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density matrix must be Hermitian")
        trace = np.trace(mat)
        if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
            raise ValueError("density matrix must have unit trace")
        if float(np.linalg.eigvalsh(mat)[0]) < PSD_FLOOR:
            raise ValueError("density matrix must be positive semidefinite")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def make_register(
    entries: Iterable[tuple[str, complex]], labels: Sequence[str]
) -> Register:
    """Build a register from (bitstring, amplitude) pairs.

    Bitstrings are written in label order; repeated bitstrings accumulate.
    The result is normalized, so only amplitude ratios matter.
    """
    labels = tuple(labels)
    vec = np.zeros(1 << len(labels), dtype=complex)
    for bits, amp in entries:
        if len(bits) != len(labels) or set(bits) - {"0", "1"}:
            raise ValueError(f"basis string {bits!r} does not index {labels!r}")
        vec[int(bits, 2) if bits else 0] += amp
    return Register(labels, vec)


def tensor(first: Register, second: Register) -> Register:
    """Tensor product; ``first`` supplies the more significant index bits."""
    if set(first.labels) & set(second.labels):
        raise ValueError(
            f"label collision: {sorted(set(first.labels) & set(second.labels))}"
        )
    _check_width(len(first.labels) + len(second.labels))  # before np.kron allocates the product
    return Register(first.labels + second.labels, np.kron(first.amps, second.amps))


@lru_cache(maxsize=256)  # bounded: labels come from callers' registers
def _axis_order(labels: tuple[str, ...], qubits: tuple[str, ...]) -> tuple[int, ...]:
    """Axes of a batch of rows over ``labels``: the batch (axis 0), ``qubits`` in the order given, the rest."""
    for q in qubits:
        if q not in labels:
            raise ValueError(f"no qubit labeled {q!r} in {labels!r}")
    axes = [labels.index(q) + 1 for q in qubits]
    return (0, *axes, *(k for k in range(1, len(labels) + 1) if k not in axes))


def _front(reg: Register, qubits: Sequence[str]) -> np.ndarray:
    """Amplitudes as a ``(2**k, rest)`` matrix: rows index ``qubits``, columns the rest."""
    psi = reg.amps.reshape((1,) + (2,) * reg.n_qubits).transpose(_axis_order(reg.labels, tuple(qubits)))
    return psi.reshape(1 << len(qubits), -1)


def _apply_rows(
    rows: np.ndarray, labels: tuple[str, ...], qubits: Sequence[str], matrix: np.ndarray
) -> np.ndarray:
    """Apply ``matrix`` to the listed qubits of every row; returns the new ``(n, 2**len(labels))`` rows.

    Each row is one ``matrix @`` call on its own :func:`_front` matrix, so
    every row is bit-identical to applying the gate to its register alone.
    """
    order = _axis_order(labels, tuple(qubits))
    shape = (len(rows),) + (2,) * len(labels)
    psi = matrix @ rows.reshape(shape).transpose(order).reshape(len(rows), len(matrix), -1)
    back = sorted(range(len(order)), key=order.__getitem__)
    return psi.reshape(shape).transpose(back).reshape(len(rows), -1)


def apply_gate1(reg: Register, qubit: str, gate: str) -> Register:
    """Apply a named single-qubit gate (one of I, X, Z, H)."""
    if gate not in GATES:
        raise ValueError(f"unknown gate {gate!r}; expected one of {sorted(GATES)}")
    return Register(reg.labels, _apply_rows(reg.amps[None], reg.labels, (qubit,), GATES[gate])[0])


def apply_cnot(reg: Register, control: str, target: str) -> Register:
    """Apply a controlled-NOT from ``control`` onto ``target``."""
    if control == target:
        raise ValueError("control and target must differ")
    return Register(reg.labels, _apply_rows(reg.amps[None], reg.labels, (control, target), _CNOT)[0])


def _alphabet(basis: str, force: object = None) -> tuple:
    """Outcome alphabet of ``basis``; checks the basis, then a forced outcome's value and type."""
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    alphabet = OUTCOMES[basis]
    if force is not None and (type(force) is not type(alphabet[0]) or force not in alphabet):
        raise ValueError(f"outcome {force!r} not in {alphabet!r} for basis {basis}")
    return alphabet


def _split(psi: np.ndarray, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized post-measurement vectors of both outcomes; ``psi[..., b, :]`` has bit ``b``."""
    _alphabet(basis)
    zero, one = psi[..., 0, :], psi[..., 1, :]
    if basis == "Z":
        return zero, one
    return (zero + one) * _SQRT_HALF, (zero - one) * _SQRT_HALF


def _branch_rows(rows: np.ndarray, labels: tuple[str, ...], qubit: str, basis: str) -> np.ndarray:
    """:func:`_split` on ``qubit`` for a batch, as one ``(n, 2, rest)`` array: ``[r, k]`` is outcome
    ``k``'s branch of ``rows[r]``.

    A Z split is the transposed rows and an X split stacks its fresh branches once, so each branch is
    laid out, and summed by BLAS, as :func:`measure` has it: a strided sum can differ from a contiguous
    one.  The split is elementwise: each row is bit-identical to splitting its register on its own.
    """
    psi = rows.reshape((len(rows),) + (2,) * len(labels)).transpose(_axis_order(labels, (qubit,)))
    psi = psi.reshape(len(rows), 2, -1)
    branches = _split(psi, basis)
    return psi if basis == "Z" else np.stack(branches, axis=1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a C-contiguous complex array, by its BLAS calls."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def _reciprocals(d: np.ndarray) -> np.ndarray:
    """``1/d - 0j`` for positive reals ``d``: an array times it is bit for bit the array over ``d``
    (numpy's Smith division by ``d + 0j``), zero signs included, unless a negative part's quotient
    rounds to 0, which needs ``d >= 2``.  numpy's complex multiply runs about 3x faster."""
    return np.conj((1.0 / d).astype(complex))


def _normalized(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) over its own norm, bit for bit as the :class:`Register` constructor divides."""
    return rows * _reciprocals(_row_norms(rows))[..., None]


def _collapse_rows(branches: np.ndarray, measured: tuple, alphabet: Sequence) -> tuple:
    """:func:`_born` and :func:`_collapse` forced to each outcome, on :func:`_branch_rows`'s array:
    Born probabilities ``(n, 2)`` and collapsed rows ``(n, 2, rest)``, each :func:`measure`'s bits:
    it multiplies by reciprocals where :func:`_collapse` divides."""
    probs = np.vecdot(branches, branches).real
    if (probs < MIN_FORCE_PROB).any():  # the floor is read at call time, as tests move it
        r, k = np.argwhere(probs < MIN_FORCE_PROB)[0]
        raise ValueError(f"outcome {alphabet[k]!r} on {measured!r} has probability {probs[r, k]:.3e}")
    rows = np.multiply(branches, _reciprocals(np.sqrt(probs))[..., None], order="C")  # measure's layout, for later sums
    return probs, _normalized(rows)


def _born(branches: Iterable[np.ndarray]) -> list[float]:
    """Born probability of each unnormalized branch vector."""
    return [float(np.real(np.vdot(b, b))) for b in branches]


def _pick(probs: Iterable[float], u: float) -> int:
    """The sampled outcome for uniform draw ``u``: the index of the first
    outcome whose running probability sum exceeds ``u``, or the last one."""
    for pick, total in enumerate(accumulate(probs)):
        if u < total:
            break
    return pick


def _picks(first: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """:func:`_pick` between two outcomes, for many draws: 1 where a draw is at least ``first``."""
    return (draws >= first).astype(np.intp)


def _collapse(
    labels: tuple[str, ...],
    measured: Sequence[str],
    branches: Sequence[np.ndarray],
    probs: Sequence[float],
    alphabet: Sequence,
    force: object = None,
    rng: np.random.Generator | None = None,
) -> MeasureResult:
    """Pick outcome ``alphabet[k]`` and renormalize ``branches[k]`` (Born probability ``probs[k]``).

    ``branches`` split a register over ``labels`` on its ``measured`` qubits.
    ``force`` (already checked against ``alphabet``) picks directly; sampling
    draws one uniform from ``rng`` and picks with :func:`_pick`.
    """
    if (force is None) == (rng is None):
        raise ValueError("provide exactly one of force= or rng=")
    pick = _pick(probs, rng.random()) if force is None else alphabet.index(force)
    prob = probs[pick]
    if prob < MIN_FORCE_PROB:
        raise ValueError(f"outcome {alphabet[pick]!r} on {measured!r} has probability {prob:.3e}")
    remaining = tuple(l for l in labels if l not in measured)
    collapsed = Register(remaining, branches[pick] / math.sqrt(prob))
    return MeasureResult(alphabet[pick], prob, collapsed)


def outcome_probabilities(reg: Register, qubit: str, basis: str = "Z") -> tuple[float, float]:
    """Born probabilities of the two outcomes, in alphabet order (0/1 or +/-)."""
    return tuple(_born(_split(_front(reg, (qubit,)), basis)))


def measure(
    reg: Register,
    qubit: str,
    basis: str = "Z",
    *,
    force: int | str | None = None,
    rng: np.random.Generator | None = None,
) -> MeasureResult:
    """Projectively measure one qubit and remove it from the register.

    Exactly one of ``force`` (a required outcome: 0/1 for Z, "+"/"-" for X)
    or ``rng`` (sampling mode; consumes one uniform draw) must be given.
    The returned probability is the exact Born probability of the reported
    outcome, and the collapsed register does not depend on which mode chose
    it.  Measuring the last qubit leaves an empty (scalar) register.
    """
    alphabet = _alphabet(basis, force)
    branches = _split(_front(reg, (qubit,)), basis)
    return _collapse(reg.labels, (qubit,), branches, _born(branches), alphabet, force, rng)


def reduced_density(reg: Register, keep: Sequence[str]) -> DensityMatrix:
    """Partial trace onto ``keep`` (result labels follow the order given)."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate labels in keep list {keep!r}")
    psi = _front(reg, keep)
    return DensityMatrix(keep, psi @ psi.conj().T)


def fidelity_pure(rho: DensityMatrix, target: Register) -> float:
    """Overlap ``<target|rho|target>`` after aligning qubit order."""
    if sorted(rho.labels) != sorted(target.labels):
        raise ValueError(
            f"label mismatch: {sorted(rho.labels)} vs {sorted(target.labels)}"
        )
    vec = permute(target, rho.labels).amps
    return float(np.real(np.vdot(vec, rho.mat @ vec)))


def permute(reg: Register, new_order: Sequence[str]) -> Register:
    """Reorder the label tuple (and amplitudes to match); contents unchanged."""
    new_order = tuple(new_order)
    if sorted(new_order) != sorted(reg.labels):
        raise ValueError(f"{new_order!r} is not a permutation of {reg.labels!r}")
    if new_order == reg.labels:
        return reg
    return Register(new_order, _front(reg, new_order).reshape(-1))
