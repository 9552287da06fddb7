"""Bidirectional teleportation of two EPR-type payloads over a pair of
shared GHZ triples.

Alice holds channel qubits (a1, a2, a3) plus her input pair (A1, A2) in
the state ``c0|00> + c1|11>``; Bob holds (b1, b2, b3) and (B1, B2).  After
two local CNOTs and six local measurements -- computational basis on a1
and b3, conjugate basis on A2, B2, A1 and B1 -- Alice's payload lands on
Bob's (b1, b2) and Bob's on Alice's (a2, a3), each up to an outcome-keyed
Pauli correction.  All 64 measurement leaves occur with probability 1/64
regardless of the inputs.  :class:`Tree` holds them for one input pair and
owns their delivery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
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
)
from .ghz import ghz_state
from .qsim import (
    ATOL,
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
    "Tree",
    "deliver",
    "deprived_fidelities",
    "encode",
    "enumerate_branches",
    "leaf_index",
    "noncooperation_fidelity",
    "prepare_channel",
    "prepare_full_state",
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
        if abs(norm_sq - 1.0) > ATOL:
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


def walk_round(
    state: Register, plan: Sequence[tuple[str, str]]
) -> Iterator[tuple[tuple, tuple[float, ...], Register]]:
    """Measure ``plan`` in order and yield every resulting leaf.

    Each leaf is (outcomes, step probabilities, register): the Born
    probability of every step given the ones before it, in plan order, so
    ``math.prod`` of them is the leaf's probability.  Every step branches
    over both outcomes, 0/"+" first.  This is the only place the protocol's
    measurements are performed.

    The walk is level-batched: every open branch at a step is one row of
    a single array, split for all rows at once (:func:`qsim._branch_rows`).
    Reductions stay per row -- each row's Born probabilities and collapse
    go through :func:`qsim._collapse`, exactly as :func:`qsim.measure` on
    that row's register -- so every leaf is bit-identical to measuring it
    step by step.  A measured prefix is shared by every leaf below it.
    """
    level = [((), (), state)]  # (outcomes, step probabilities, register) per open branch
    for qubit, basis in plan:
        labels, alphabet = level[0][2].labels, _alphabet(basis)
        rows = np.stack([reg.amps for _, _, reg in level])
        splits = zip(*_branch_rows(rows, labels, qubit, basis))
        children = []
        for (outcomes, probs, _), branches in zip(level, splits):
            born = _born(branches)
            for pick in alphabet:
                res = _collapse(labels, (qubit,), branches, born, alphabet, pick)
                children.append((outcomes + (res.outcome,), probs + (res.probability,), res.register))
        level = children
    return iter(level)


def deliver(
    payload: Register,
    ops: tuple[str, str],
    targets: tuple[Register, Register],
) -> tuple[Register, float, float]:
    """Finish both teleportations: (corrected payload, a->b and b->a fidelity).

    ``ops`` is a table entry (bob_ops, alice_ops); Bob's act on (b1, b2)
    first, then Alice's on (a2, a3).  Each corrected half is scored against
    its entry of ``targets`` (:attr:`Tree.targets`).
    """
    for d in DIRECTIONS.values():
        payload = apply_ops(payload, d.labels, ops[d.slot])
    to_bob, to_alice = (
        fidelity_pure(reduced_density(payload, d.labels), target)
        for d, target in zip(DIRECTIONS.values(), targets)
    )
    return payload, to_bob, to_alice


#: Steps of round one: a leaf's step probabilities split here into its two rounds.
_ROUND_ONE = len(MEASUREMENT_PLAN[0])


class Tree:
    """The exact measurement tree of one input pair: all 64 leaves, walked once.

    ``leaves`` maps each leaf's outcomes, in :func:`leaf_index` order, to its
    (step probabilities, payload) from one :func:`walk_round` over both
    rounds.  The tree is the one owner of delivery: ``targets`` holds each
    input written on its receiver's payload labels, indexed by direction
    slot, and fidelities are memoised by the ops that produced them, never
    by the table, so a table that changes between calls still takes effect.
    ``born`` (built on first use) and ``sessions`` (their records) serve only sessions.
    """

    def __init__(self, alice: EprInput, bob: EprInput) -> None:
        self.inputs = (alice, bob)
        self.targets = tuple(self.inputs[d.slot].register(d.labels) for d in DIRECTIONS.values())
        encoded = encode(prepare_full_state(alice, bob))
        self.leaves = {
            outcomes: (probs, payload)
            for outcomes, probs, payload in walk_round(encoded, MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1])
        }
        self.fidelities: dict[tuple, tuple[float, float]] = {}
        self.averages: dict[tuple, float] = {}
        self.sessions: dict[tuple, tuple] = {}

    @cached_property
    def born(self) -> dict[tuple, list[float]]:
        """Outcomes so far -> Born probability of each next outcome, in alphabet order."""
        born: dict[tuple, dict] = {}
        for outcomes, (probs, _) in self.leaves.items():
            for k, prob in enumerate(probs):
                born.setdefault(outcomes[:k], {})[outcomes[k]] = prob
        return {prefix: list(b.values()) for prefix, b in born.items()}

    def rows(self) -> Iterator[Leaf]:
        """Every leaf as (outcomes, probability, payload): round one's probability times round two's."""
        return (
            (outcomes, math.prod(probs[:_ROUND_ONE]) * math.prod(probs[_ROUND_ONE:]), payload)
            for outcomes, (probs, payload) in self.leaves.items()
        )

    def delivered(self, key: tuple, ops: tuple[str, str]) -> tuple[float, float]:
        """Both directions' fidelities at leaf ``key`` corrected with ``ops`` (:func:`deliver`)."""
        if (key, ops) not in self.fidelities:
            self.fidelities[key, ops] = deliver(self.leaves[key][1], ops, self.targets)[1:]
        return self.fidelities[key, ops]

    def deprived(self, key: tuple, withheld: str, table: Table) -> float:
        """Fidelity at the receiver starved of ``withheld`` when the tree lands on leaf ``key``.

        It is that receiver's group in :func:`deprived_fidelities`, with
        leaves weighted by their round-two probabilities alone; one miss fills
        every group of ``withheld``.  The memo key is (withheld, heard key,
        ops), since both receivers can hear the same key with the same ops:
        ``(0, "+", 0, "+", "+", "+")`` with ``"II"`` in the packaged table.
        """
        slot = DIRECTIONS[withheld].slot
        heard = _heard(key, withheld)
        memo = (withheld, heard, table[heard][slot])
        if memo not in self.averages:
            leaves = (
                (outcomes, math.prod(probs[_ROUND_ONE:]), payload)
                for outcomes, (probs, payload) in self.leaves.items()
            )
            groups = deprived_fidelities(leaves, withheld, self.targets[slot], table)
            for group, (_, fidelity) in groups.items():
                self.averages[withheld, group, table[group][slot]] = fidelity
        return self.averages[memo]


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
    """Every outcome combination's corrected leaf, all 64 read from one :class:`Tree`.

    Leaves are ordered by :func:`leaf_index`.  Each leaf's fidelities are
    those of the corrected payload halves against the intended inputs.
    """
    if table is None:
        table = load_table()
    tree = Tree(alice, bob)
    return [
        BranchLeaf(*key, prob, payload, *table[key], *tree.delivered(key, table[key]))
        for key, prob, payload in tree.rows()
    ]


def _heard(outcomes: Sequence, withheld: str) -> tuple:
    """The table key of the receiver that never hears ``withheld``: that result read as "+"."""
    return correction_key({q: o for q, o in zip(PLAN_QUBITS, outcomes) if q != withheld})


def deprived_fidelities(
    leaves: Iterable[Leaf], withheld: str, target: Register, table: Table
) -> dict[tuple, tuple[float, float]]:
    """Fidelity at the receiver ``DIRECTIONS[withheld]`` starved of one announcement.

    ``leaves`` gives (outcomes in plan order, weight, payload).  Leaves that
    differ only in the withheld result look alike to the receiver: it
    applies the correction of the key it heard (:func:`_heard`) and holds
    their weighted mixture.  Returns {heard key: (total weight, the
    mixture's fidelity against ``target``)}, in first-seen order.
    """
    labels, slot, _ = DIRECTIONS[withheld]
    groups: dict[tuple, list] = {}
    for outcomes, weight, payload in leaves:
        key = _heard(outcomes, withheld)
        fixed = apply_ops(payload, labels, table[key][slot])
        group = groups.setdefault(key, [0.0, np.zeros((4, 4), dtype=complex)])
        group[1] += weight * reduced_density(fixed, labels).mat
        group[0] += weight
    return {
        key: (total, fidelity_pure(DensityMatrix._trusted(labels, mixed / total), target))
        for key, (total, mixed) in groups.items()
    }


def noncooperation_fidelity(epr: EprInput, withheld: str = "A1") -> float:
    """Expected fidelity at the deprived receiver when one announcement is withheld.

    ``withheld="A1"`` starves Bob of Alice's second-round result (so
    ``epr`` is Alice's input); ``"B1"`` starves Alice.  The returned value
    weights every leaf by its full probability, averages the receiver's
    corrected reduced state over the two equally likely withheld outcomes
    (:func:`deprived_fidelities`) and equals ``|c0|**4 + |c1|**4``.
    """
    if withheld not in DIRECTIONS:
        raise ValueError(f"withheld must be 'A1' or 'B1', got {withheld!r}")
    slot = DIRECTIONS[withheld].slot
    # The cooperative direction's input never influences the deprived side.
    inputs = [EprInput(np.sqrt(0.5), np.sqrt(0.5))] * 2
    inputs[slot] = epr
    tree = Tree(*inputs)
    groups = deprived_fidelities(tree.rows(), withheld, tree.targets[slot], load_table())
    expected = 0.0
    for weight, fidelity in groups.values():
        expected += weight * fidelity
    return expected
