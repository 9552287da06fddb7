"""The eight-state GHZ basis; GHZ-basis measurement and entanglement
swapping between two GHZ triples collapse through :mod:`bqtsim.qsim`.

Basis convention: index ``2k`` is ``(|s> + |s~>)/sqrt(2)`` and ``2k+1`` is
``(|s> - |s~>)/sqrt(2)`` where ``s`` runs over 000, 100, 010, 110 and
``s~`` is its bitwise complement.  A GHZ-basis measurement reports the
basis index as its outcome.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .qsim import (
    MIN_FORCE_PROB,
    MeasureResult,
    Register,
    _born,
    _collapse,
    _equal_up_to_phase,
    _front,
    make_register,
    tensor,
)

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


def ghz_state(index: int, labels: Sequence[str]) -> Register:
    """GHZ basis state ``index`` (0..7) on three named qubits."""
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index <= 7:
        raise ValueError(f"GHZ index must be an int in 0..7, got {index!r}")
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


def _ghz_branches(reg: Register, triple: tuple[str, ...]) -> np.ndarray:
    """Unnormalized remainders for all 8 GHZ outcomes on ``triple``, one per row."""
    if len(set(triple)) != 3:
        raise ValueError(f"need three distinct labels, got {triple!r}")
    return _BASIS.conj() @ _front(reg, triple)


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
    if force is not None and (
        not isinstance(force, int) or isinstance(force, bool) or not 0 <= force <= 7
    ):
        raise ValueError(f"GHZ outcome must be an int in 0..7, got {force!r}")
    triple = tuple(triple)
    branches = _ghz_branches(reg, triple)
    return _collapse(reg.labels, triple, branches, _born(branches), GHZ_OUTCOMES, force, rng)


def entanglement_swap(i: int, j: int) -> list[SwapOutcome]:
    """Swap entanglement between GHZ triples (1,2,3) and (4,5,6).

    Prepares ``ghz(i) x ghz(j)``, projects qubits (1,3,5) onto the GHZ
    basis, and classifies each nonzero remainder on (2,4,6) against the
    rows of the GHZ basis up to global phase (``matched`` is None if
    unclassifiable, which does not occur for GHZ inputs).
    """
    reg = tensor(ghz_state(i, ("1", "2", "3")), ghz_state(j, ("4", "5", "6")))
    triple = ("1", "3", "5")
    branches = _ghz_branches(reg, triple)
    probs = _born(branches)
    outcomes = []
    for k in GHZ_OUTCOMES:
        if probs[k] < MIN_FORCE_PROB:
            continue
        _, prob, remainder = _collapse(reg.labels, triple, branches, probs, GHZ_OUTCOMES, force=k)
        matched = next(
            (m for m in GHZ_OUTCOMES
             if _equal_up_to_phase(remainder.amps, _BASIS[m], tol=1e-10)),
            None,
        )
        outcomes.append(SwapOutcome(k, prob, remainder, matched))
    return outcomes
