"""Bidirectional teleportation of two EPR-type payloads over a pair of
shared GHZ triples.

Alice holds channel qubits (a1, a2, a3) plus her input pair (A1, A2) in
the state ``c0|00> + c1|11>``; Bob holds (b1, b2, b3) and (B1, B2).  After
two local CNOTs and six local measurements -- computational basis on a1
and b3, conjugate basis on A2, B2, A1 and B1 -- Alice's payload lands on
Bob's (b1, b2) and Bob's on Alice's (a2, a3), each up to an outcome-keyed
Pauli correction.  All 64 measurement leaves occur with probability 1/64
regardless of the inputs.

The conventions used throughout:

* full register label order: (a1, b1, b2, a2, a3, b3, A1, A2, B1, B2);
* measurement order and bases: ``MEASUREMENT_PLAN`` (defined in
  :mod:`bqtsim.corrections`, which owns the table-key format);
* ``leaf_index`` packs outcomes into six bits in plan order, with 0 / "+"
  as the zero bit;
* :func:`deliver`, the one applier of a table entry, corrects and scores both
  directions through :func:`bqtsim.corrections.apply_ops`; ``DIRECTIONS``
  names the one each withheld announcement starves, ``FIDELITY_FLOOR`` gates them.

This module performs every step of the protocol: :func:`encode` applies
the CNOTs of ``ENCODING``, and every measurement -- enumerated or forced --
goes through :func:`walk_round` (both rounds at once: :func:`walk_leaves`).
The walk is level-batched: each open branch is one row of an array that is
split for all rows at once, while each row's probability and collapse are
computed exactly as :func:`bqtsim.qsim.measure` computes them, so its leaves
are bit-identical to that sequential oracle.  Sessions
(:mod:`bqtsim.parties`) sample their outcomes against the Born
probabilities of these same walks and only record who did what and who
knows what.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corrections import (
    MEASUREMENT_PLAN,
    PLAN_QUBITS,
    Table,
    apply_ops,
    correction_key,
    leaf_index,
    load_table,
    minimal_correction,
)
from .ghz import ghz_state
from .qsim import (
    DensityMatrix,
    Register,
    _alphabet,
    _born,
    _branch_rows,
    _collapse,
    apply_cnot,
    fidelity_pure,
    make_register,
    permute,
    reduced_density,
    tensor,
)

__all__ = [
    "ALICE_INPUT_LABELS",
    "ALICE_PAYLOAD_LABELS",
    "BOB_INPUT_LABELS",
    "BOB_PAYLOAD_LABELS",
    "CHANNEL_LABELS",
    "DIRECTIONS",
    "ENCODING",
    "FIDELITY_FLOOR",
    "FULL_LABELS",
    "MEASUREMENT_PLAN",
    "PAYLOAD_LABELS",
    "REMAINDER_LABELS",
    "BranchLeaf",
    "Direction",
    "EprInput",
    "deliver",
    "delivery_targets",
    "deprived_fidelities",
    "encode",
    "enumerate_branches",
    "generate_correction_table",
    "leaf_index",
    "noncooperation_fidelity",
    "prepare_channel",
    "prepare_full_state",
    "walk_leaves",
    "walk_round",
]

CHANNEL_LABELS = ("a1", "b1", "b2", "a2", "a3", "b3")
ALICE_INPUT_LABELS = ("A1", "A2")
BOB_INPUT_LABELS = ("B1", "B2")
FULL_LABELS = CHANNEL_LABELS + ALICE_INPUT_LABELS + BOB_INPUT_LABELS

#: The two local CNOTs (control, target) that couple the inputs to the
#: channel: Alice's A1 -> a1, then Bob's B1 -> b3.
ENCODING = (("A1", "a1"), ("B1", "b3"))

#: Unmeasured qubits after the first measurement round, in register order.
REMAINDER_LABELS = ("b1", "b2", "a2", "a3", "A1", "B1")

#: Unmeasured qubits after the second round.
PAYLOAD_LABELS = ("b1", "b2", "a2", "a3")
BOB_PAYLOAD_LABELS = ("b1", "b2")
ALICE_PAYLOAD_LABELS = ("a2", "a3")

#: A delivered payload counts as reconstructed at or above this fidelity.
FIDELITY_FLOOR = 1.0 - 1e-10


class Direction(NamedTuple):
    """One teleportation direction: where its payload lands and how it is scored."""

    labels: tuple[str, str]  # the receiver's payload qubits
    slot: int  # its column in a table entry, and its sender in (alice, bob)
    field: str  # its fidelity's name on BranchLeaf, SessionResult and report rows


#: Each withholdable second-round announcement and the direction it starves:
#: without A1, Bob cannot finish Alice's payload; without B1, Alice cannot
#: finish Bob's.  Iteration order is the fixed correction order, Bob first.
DIRECTIONS = {
    "A1": Direction(BOB_PAYLOAD_LABELS, 0, "fidelity_alice_to_bob"),
    "B1": Direction(ALICE_PAYLOAD_LABELS, 1, "fidelity_bob_to_alice"),
}


@dataclass(frozen=True)
class EprInput:
    """Two-qubit payload ``c0|00> + c1|11>`` with unit norm."""

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        if not (cmath.isfinite(self.c0) and cmath.isfinite(self.c1)):
            raise ValueError(f"amplitudes must be finite, got ({self.c0!r}, {self.c1!r})")
        norm_sq = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"|c0|^2 + |c1|^2 = {norm_sq!r} is not 1")

    @classmethod
    def normalized(cls, c0: complex, c1: complex) -> "EprInput":
        """Rescale an arbitrary finite, nonzero pair onto the unit sphere.

        A pair whose largest part lies outside [2**-500, 2**500] is first
        divided by that part's power of two, which is exact, so that the
        norm neither underflows nor overflows; any other pair is divided by
        its norm directly.
        """
        c0, c1 = complex(c0), complex(c1)
        if not (cmath.isfinite(c0) and cmath.isfinite(c1)):
            raise ValueError(f"amplitudes must be finite, got ({c0!r}, {c1!r})")
        largest = max(abs(c0.real), abs(c0.imag), abs(c1.real), abs(c1.imag))
        if largest == 0:
            raise ValueError("cannot normalize the zero pair")
        if not 2.0**-500 <= largest <= 2.0**500:
            exponent = math.frexp(largest)[1]
            c0, c1 = (complex(math.ldexp(c.real, -exponent), math.ldexp(c.imag, -exponent))
                      for c in (c0, c1))
        norm = np.hypot(abs(c0), abs(c1))
        return cls(c0 / norm, c1 / norm)

    def register(self, labels: Sequence[str]) -> Register:
        return make_register([("00", self.c0), ("11", self.c1)], labels)


def prepare_channel() -> Register:
    """Shared six-qubit channel: one GHZ triple per teleportation direction."""
    return tensor(
        ghz_state(0, ("a1", "b1", "b2")),
        ghz_state(0, ("a2", "a3", "b3")),
    )


def prepare_full_state(alice: EprInput, bob: EprInput) -> Register:
    """Channel joined with both parties' input pairs (ten qubits)."""
    state = tensor(prepare_channel(), alice.register(ALICE_INPUT_LABELS))
    return tensor(state, bob.register(BOB_INPUT_LABELS))


def encode(full: Register) -> Register:
    """Couple the inputs to the channel: the CNOTs of ``ENCODING``, in order."""
    if sorted(full.labels) != sorted(FULL_LABELS):
        raise ValueError(f"expected the ten protocol qubits, got {full.labels!r}")
    state = permute(full, FULL_LABELS)
    for control, target in ENCODING:
        state = apply_cnot(state, control, target)
    return state


Leaf = tuple[tuple, float, Register]  # (outcomes, probability, register)


def _pinned(force: Sequence[int | str | None] | None, plan: Sequence[tuple[str, str]]) -> tuple:
    """``force`` as one entry per step of ``plan``; None means every step open."""
    if force is None:
        return (None,) * len(plan)
    pinned = tuple(force)
    if len(pinned) != len(plan):
        names = ", ".join(q for q, _ in plan)
        raise ValueError(f"force must give ({names}), got {force!r}")
    for (_, basis), want in zip(plan, pinned):
        _alphabet(basis, want)
    return pinned


def walk_round(
    state: Register,
    plan: Sequence[tuple[str, str]],
    force: Sequence[int | str | None] | None = None,
) -> Iterator[tuple[tuple, tuple[float, ...], Register]]:
    """Measure ``plan`` in order and yield every resulting leaf.

    Each leaf is (outcomes, step probabilities, register): the Born
    probability of every step given the ones before it, in plan order, so
    ``math.prod`` of them is the leaf's probability.  ``force`` pins one
    outcome per step (None leaves the step open); an open step branches
    over both outcomes, 0/"+" first.  This is the only place the protocol's
    measurements are performed.

    The walk is level-batched: every open branch at a step is one row of
    a single array, split for all rows at once (:func:`qsim._branch_rows`).
    Reductions stay per row -- each row's Born probabilities and collapse
    go through :func:`qsim._collapse`, exactly as :func:`qsim.measure` on
    that row's register -- so every leaf is bit-identical to measuring it
    step by step.  A measured prefix is shared by every leaf below it.
    """
    force = _pinned(force, plan)
    level = [((), (), state)]  # (outcomes, step probabilities, register) per open branch
    for (qubit, basis), want in zip(plan, force):
        labels, alphabet = level[0][2].labels, _alphabet(basis)
        rows = np.stack([reg.amps for _, _, reg in level])
        splits = zip(*_branch_rows(rows, labels, qubit, basis))
        children = []
        for (outcomes, probs, _), branches in zip(level, splits):
            born = _born(branches)
            for pick in alphabet if want is None else (want,):
                res = _collapse(labels, (qubit,), branches, born, alphabet, pick)
                children.append((outcomes + (res.outcome,), probs + (res.probability,), res.register))
        level = children
    return iter(level)


def walk_leaves(
    encoded: Register, force: Sequence[int | str | None] | None = None
) -> Iterator[Leaf]:
    """Every measurement leaf of ``encoded``: (outcomes, probability, payload).

    Both rounds are walked at once by :func:`walk_round`; ``force`` pins
    outcomes in plan order.  Leaves come in :func:`leaf_index` order, and a
    leaf's probability is its round-one probability times its round-two one.
    """
    first_plan, second_plan = MEASUREMENT_PLAN
    split = len(first_plan)
    return (
        (outcomes, math.prod(probs[:split]) * math.prod(probs[split:]), payload)
        for outcomes, probs, payload in walk_round(encoded, first_plan + second_plan, force)
    )


def delivery_targets(alice: EprInput, bob: EprInput) -> tuple[Register, Register]:
    """Each input written on its receiver's labels, in :data:`DIRECTIONS` order."""
    inputs = (alice, bob)
    return tuple(inputs[d.slot].register(d.labels) for d in DIRECTIONS.values())


def deliver(
    payload: Register,
    ops: tuple[str, str],
    targets: tuple[Register, Register] | None = None,
) -> tuple[Register, float | None, float | None]:
    """Finish both teleportations: (corrected payload, a->b and b->a fidelity).

    ``ops`` is a table entry (bob_ops, alice_ops); Bob's act on (b1, b2)
    first, then Alice's on (a2, a3).  Each corrected half is scored against
    its entry of ``targets`` (see :func:`delivery_targets`); without targets
    both fidelities are None.
    """
    for d in DIRECTIONS.values():
        payload = apply_ops(payload, d.labels, ops[d.slot])
    if targets is None:
        return payload, None, None
    to_bob, to_alice = (
        fidelity_pure(reduced_density(payload, d.labels), target)
        for d, target in zip(DIRECTIONS.values(), targets)
    )
    return payload, to_bob, to_alice


@dataclass(frozen=True)
class BranchLeaf:
    """One fully resolved measurement leaf of the protocol."""

    a1: int
    A2: str
    b3: int
    B2: str
    A1: str
    B1: str
    probability: float
    post_state: Register  # payload over (b1, b2, a2, a3) before correction
    bob_ops: str
    alice_ops: str
    fidelity_alice_to_bob: float  # Bob's corrected (b1, b2) against Alice's input
    fidelity_bob_to_alice: float  # Alice's corrected (a2, a3) against Bob's input

    @property
    def index(self) -> int:
        return leaf_index(*self.outcomes().values())

    def outcomes(self) -> dict[str, int | str]:
        return {q: getattr(self, q) for q in PLAN_QUBITS}


def enumerate_branches(
    alice: EprInput, bob: EprInput, table: Table | None = None
) -> list[BranchLeaf]:
    """Force every outcome combination and collect all 64 corrected leaves.

    Leaves are ordered by :func:`leaf_index`.  Each leaf's fidelities are
    those of the corrected payload halves against the intended inputs.
    """
    if table is None:
        table = load_table()
    encoded = encode(prepare_full_state(alice, bob))
    targets = delivery_targets(alice, bob)
    leaves = []
    for key, prob, payload in walk_leaves(encoded):
        _, to_bob, to_alice = deliver(payload, table[key], targets)
        leaves.append(BranchLeaf(*key, prob, payload, *table[key], to_bob, to_alice))
    return leaves


def _payload_factors(payload: Register) -> tuple[Register, Register]:
    """Split the four-qubit payload into its (b1,b2) and (a2,a3) factors.

    The protocol guarantees a product state across this cut; a second
    singular value above 1e-10 raises.
    """
    mat = permute(payload, PAYLOAD_LABELS).amps.reshape(4, 4)
    u, s, vh = np.linalg.svd(mat)
    if s.shape[0] > 1 and s[1] > 1e-10:
        raise ValueError(f"payload is not a product across the party cut: {s!r}")
    return (
        Register(BOB_PAYLOAD_LABELS, u[:, 0]),
        Register(ALICE_PAYLOAD_LABELS, vh[0, :]),
    )


# Generic complex inputs used when deriving the correction table; any pair
# with four distinct, nonzero products would do, since the searched factors
# depend only on the leaf, not on the amplitudes.
_GENERIC_ALICE = EprInput(0.6, 0.8j)
_GENERIC_BOB = EprInput(0.8, complex(0.36, 0.48))


def generate_correction_table() -> dict[tuple, tuple[str, str]]:
    """Derive the minimal correction pair for every measurement leaf.

    For each leaf the payload factorizes into a (b1, b2) part carrying
    Alice's amplitudes and an (a2, a3) part carrying Bob's; each factor is
    searched independently for the smallest {I,Z,X,XZ} pair that restores
    the intended input up to global phase.
    """
    alice, bob = _GENERIC_ALICE, _GENERIC_BOB
    encoded = encode(prepare_full_state(alice, bob))
    target_bob, target_alice = delivery_targets(alice, bob)
    table: dict[tuple, tuple[str, str]] = {}
    for key, _prob, payload in walk_leaves(encoded):
        bob_part, alice_part = _payload_factors(payload)
        table[key] = (
            "".join(minimal_correction(bob_part, target_bob)),
            "".join(minimal_correction(alice_part, target_alice)),
        )
    return table


def deprived_fidelities(
    leaves: Iterable[Leaf], withheld: str, sent: EprInput, table: Table
) -> list[tuple[float, float]]:
    """Fidelity at the receiver ``DIRECTIONS[withheld]`` starved of one announcement.

    ``leaves`` gives (outcomes in plan order, weight, payload).  Leaves that
    differ only in the withheld result look alike to the receiver: it
    applies the correction its own key selects (the withheld result
    defaulted to "+") and holds their weighted mixture.  Returns, per such
    group in first-seen order, its total weight and the mixture's fidelity
    against ``sent``.
    """
    labels, slot, _ = DIRECTIONS[withheld]
    groups: dict[tuple, list] = {}
    for outcomes, weight, payload in leaves:
        key = correction_key({q: o for q, o in zip(PLAN_QUBITS, outcomes) if q != withheld})
        fixed = apply_ops(payload, labels, table[key][slot])
        group = groups.setdefault(key, [0.0, np.zeros((4, 4), dtype=complex)])
        group[1] += weight * reduced_density(fixed, labels).mat
        group[0] += weight
    target = sent.register(labels)
    return [
        (total, fidelity_pure(DensityMatrix._trusted(labels, mixed / total), target))
        for total, mixed in groups.values()
    ]


def noncooperation_fidelity(epr: EprInput, withheld: str = "A1") -> float:
    """Expected fidelity at the deprived receiver when one announcement is withheld.

    ``withheld="A1"`` starves Bob of Alice's second-round result (so
    ``epr`` is Alice's input); ``"B1"`` starves Alice.  The receiver still
    applies every correction derivable from the announcements it did get,
    with the withheld result defaulted to "+".  The returned value averages
    the receiver's corrected reduced state over the two equally likely
    withheld outcomes and equals ``|c0|**4 + |c1|**4``.
    """
    if withheld not in DIRECTIONS:
        raise ValueError(f"withheld must be 'A1' or 'B1', got {withheld!r}")
    table = load_table()
    # The cooperative direction's input never influences the deprived side.
    inputs = [EprInput(np.sqrt(0.5), np.sqrt(0.5))] * 2
    inputs[DIRECTIONS[withheld].slot] = epr
    encoded = encode(prepare_full_state(*inputs))
    expected = 0.0
    for weight, fidelity in deprived_fidelities(walk_leaves(encoded), withheld, epr, table):
        expected += weight * fidelity
    return expected
