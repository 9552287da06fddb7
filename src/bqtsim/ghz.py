"""The eight-state GHZ basis; GHZ-basis measurement, which collapses through
:mod:`bqtsim.qsim`, and entanglement swapping, one row kernel over channel pairs.

Basis convention: index ``2k`` is ``(|s> + |s~>)/sqrt(2)`` and ``2k+1`` is
``(|s> - |s~>)/sqrt(2)`` where ``s`` runs over 000, 100, 010, 110 and
``s~`` is its bitwise complement.  A GHZ-basis measurement reports the
basis index as its outcome.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import qsim
from .qsim import (MeasureResult, Register, _axis_order, _born, _collapse, _front, _normalized, _reciprocals,
                   _row_norms, make_register)

__all__ = [
    "GHZ_TERMS",
    "SwapOutcome",
    "entanglement_swap",
    "ghz_basis_measure",
    "ghz_state",
]

#: (first ket, complementary ket, relative sign) for each of the 8 basis states.
GHZ_TERMS: tuple[tuple[str, str, int], ...] = (
    ("000", "111", +1),
    ("000", "111", -1),
    ("100", "011", +1),
    ("100", "011", -1),
    ("010", "101", +1),
    ("010", "101", -1),
    ("110", "001", +1),
    ("110", "001", -1),
)

#: Outcome alphabet of a GHZ-basis measurement: the basis indices.
GHZ_OUTCOMES = tuple(range(8))


def _checked(value: object, what: str) -> int:
    """``value`` if it is an int in 0..7 (not a bool), else ValueError naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= 7:
        raise ValueError(f"GHZ {what} must be an int in 0..7, got {value!r}")
    return value


def ghz_state(index: int, labels: Sequence[str]) -> Register:
    """GHZ basis state ``index`` (0..7) on three named qubits."""
    _checked(index, "index")
    if len(tuple(labels)) != 3:
        raise ValueError(f"a GHZ state needs exactly 3 labels, got {labels!r}")
    first, second, sign = GHZ_TERMS[index]
    return make_register([(first, 1.0), (second, float(sign))], labels)


#: Row ``k`` holds the amplitudes of basis state ``k``.
_BASIS = np.array([ghz_state(k, ("x", "y", "z")).amps for k in GHZ_OUTCOMES])
_BASIS.flags.writeable = False


class SwapOutcome(NamedTuple):
    outcome: int
    probability: float
    remainder: Register
    matched: int | None


def ghz_basis_measure(
    reg: Register,
    triple: Sequence[str],
    *,
    force: int | None = None,
    rng: np.random.Generator | None = None,
) -> MeasureResult:
    """Project three qubits onto the GHZ basis and remove them.

    Sampling mode consumes one uniform draw; forcing a (near-)zero
    probability outcome raises.  The remaining qubits keep their original
    relative order.
    """
    if force is not None:
        _checked(force, "outcome")
    triple = tuple(triple)
    if len(set(triple)) != 3:
        raise ValueError(f"need three distinct labels, got {triple!r}")
    branches = _BASIS.conj() @ _front(reg, triple)  # outcome k's unnormalized remainder in row k
    return _collapse(reg.labels, triple, branches, _born(branches), GHZ_OUTCOMES, force, rng)


def _swap_rows(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`entanglement_swap` of each row ``(i, j)`` of an ``(n, 2)`` int array: the Born
    probabilities ``(n, 8)``; the live ``(row, outcome)`` cells ``(m, 2)``, those at or above
    ``qsim.MIN_FORCE_PROB`` (read at call time) in row-major order; their remainders ``(m, 8)``
    over (2,4,6); and each one's first basis index equal to it up to phase, or -1.  Each row is
    ``tensor``, :func:`ghz_basis_measure`'s branches, :func:`_born` and :func:`_collapse` of one
    register, bit for bit, with exact reciprocals (:func:`qsim._reciprocals`) where those divide.
    """
    rows = (_BASIS[pairs[:, 0], :, None] * _BASIS[pairs[:, 1], None, :]).reshape(len(pairs), -1)
    rows = _normalized(rows)
    psi = rows.reshape((len(rows),) + (2,) * 6).transpose(_axis_order(tuple("123456"), tuple("135")))
    branches = _BASIS.conj() @ psi.reshape(len(rows), 8, 8)
    probs = np.vecdot(branches, branches).real
    cells = np.argwhere(probs >= qsim.MIN_FORCE_PROB)
    live = _normalized(branches[tuple(cells.T)] * _reciprocals(np.sqrt(probs[tuple(cells.T)]))[:, None])
    # the phase is read at each remainder's first largest amplitude; a basis row below 1e-12 there never matches
    peak = np.argmax(np.abs(live), axis=1)
    ref = _BASIS[:, peak].T  # (m, 8): every basis row at each remainder's peak
    held = np.abs(ref) >= 1e-12
    phase = np.take_along_axis(live, peak[:, None], 1) * np.conj(np.where(held, ref, 1.0))
    phase *= _reciprocals(np.abs(phase))
    match = held & (_row_norms(live[:, None] - phase[..., None] * _BASIS) <= 1e-10)
    return probs, cells, live, np.where(match.any(axis=1), match.argmax(axis=1), -1)


def entanglement_swap(i: int, j: int) -> list[SwapOutcome]:
    """Swap entanglement between GHZ triples (1,2,3) and (4,5,6).

    Prepares ``ghz(i) x ghz(j)``, projects qubits (1,3,5) onto the GHZ
    basis, and classifies each nonzero remainder on (2,4,6) against the
    rows of the GHZ basis up to global phase (``matched`` is None if
    unclassifiable, which does not occur for GHZ inputs).  It is
    :func:`_swap_rows` of one row; each remainder is a read-only view of one array.
    """
    probs, cells, live, matched = _swap_rows(np.array([[_checked(i, "index"), _checked(j, "index")]]))
    return [SwapOutcome(k, probs[0, k].item(), reg, None if m < 0 else m)
            for k, reg, m in zip(cells[:, 1].tolist(), Register._rows(tuple("246"), live), matched.tolist())]
