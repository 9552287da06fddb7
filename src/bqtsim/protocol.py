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
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corrections import (
    MEASUREMENT_PLAN,
    PLAN_QUBITS,
    Table,
    correction_key,
    leaf_index,
    load_table,
    parse_ops,
)
from .ghz import ghz_state
from .qsim import (
    ATOL,
    Register,
    _alphabet,
    _branch_rows,
    _collapse_rows,
    _row_norms,
    apply_cnot,
    make_register,
    permute,
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
    a single array, split (:func:`qsim._branch_rows`) and collapsed
    (:func:`qsim._collapse_rows`) at once, so a measured prefix is shared by
    every leaf below it.  Each leaf is bit-identical to measuring it step by
    step with :func:`qsim.measure`, and a read-only view of one array.
    """
    labels, rows, level = state.labels, state.amps[None], [((), ())]  # level: (outcomes, step probs) per row
    for qubit, basis in plan:
        alphabet = _alphabet(basis)
        born, rows = _collapse_rows(_branch_rows(rows, labels, qubit, basis), (qubit,), alphabet)
        level = [(o + (a,), p + (q,)) for (o, p), row in zip(level, born.tolist()) for a, q in zip(alphabet, row)]
        labels, rows = tuple(l for l in labels if l != qubit), rows.reshape(len(level), -1)
    return ((*branch, reg) for branch, reg in zip(level, Register._rows(labels, rows)))


#: Each correction gate as an exact map of a payload row, its 16 amplitudes in
#: PAYLOAD_LABELS order: X on a qubit reorders the row (index xor the qubit's
#: bit) and Z negates the entries whose index has the bit set.
_ROW_GATES = {
    (q, gate): np.arange(16) ^ bit if gate == "X" else np.where(np.arange(16) & bit, -1.0, 1.0)
    for q, bit in zip(PAYLOAD_LABELS, (8, 4, 2, 1))
    for gate in "XZ"
}


Pairs = tuple[tuple[str, str], ...]  # qubit pairs, each corrected by one ops string


@lru_cache(maxsize=None)  # bounded: parse_ops admits 16 ops strings per qubit pair
def _row_gates(labels: Pairs, ops: tuple[str, ...]) -> tuple[tuple[str, np.ndarray], ...]:
    """Each gate of ``ops[k]`` on the qubits ``labels[k]``, for k in order, as (gate, its row map).

    Within a factor the gates run reversed ("XZ" is Z, then X) and "I" is
    none: the order of :func:`corrections.apply_ops`, the gate-level oracle.
    """
    return tuple(
        (gate, _ROW_GATES[q, gate])
        for qubits, pair in zip(labels, ops, strict=True)
        for q, factor in zip(qubits, parse_ops(pair), strict=True)
        for gate in reversed(factor)
        if gate != "I"
    )


def _correct_rows(rows: np.ndarray, labels: Pairs, ops: Iterable[tuple[str, ...]]) -> np.ndarray:
    """The row kernel: payload row ``r`` corrected with the ``r``-th ops, as ``(n, 4, 4)``.

    ``rows`` holds one payload's amplitudes per row; the ``r``-th entry of
    ``ops`` gives one ops string per qubit pair of ``labels``.  At each gate
    position, every row with a gate there is reordered (X) or negated (Z)
    and divided by its own norm, as :meth:`qsim.Register._trusted` does
    after every gate: each row equals :func:`corrections.apply_ops` on its
    register bit for bit.  The result's axes are (b1, b2) and (a2, a3).
    """
    gates = [_row_gates(labels, row_ops) for row_ops in ops]
    fixed = rows.copy()
    for step in range(max(map(len, gates), default=0)):
        touched = [r for r, row_gates in enumerate(gates) if step < len(row_gates)]
        for gate in "XZ":
            rs = [r for r in touched if gates[r][step][0] == gate]
            if rs:
                maps = np.stack([gates[r][step][1] for r in rs])
                fixed[rs] = np.take_along_axis(fixed[rs], maps, 1) if gate == "X" else fixed[rs] * maps
        fixed[touched] /= _row_norms(fixed[touched])[:, None]
    return fixed.reshape(-1, 4, 4)


def _densities(fixed: np.ndarray, labels: tuple[str, str]) -> np.ndarray:
    """Each corrected row's reduced density on ``labels``: :func:`qsim.reduced_density`'s product."""
    psi = fixed if labels == BOB_PAYLOAD_LABELS else fixed.swapaxes(-1, -2)
    return psi @ psi.conj().swapaxes(-1, -2)


def _scores(rhos: np.ndarray, target: np.ndarray) -> list[float]:
    """Each ``<target|rho|target>``, by :func:`qsim.fidelity_pure`'s product and BLAS call per rho."""
    return np.vecdot(target, rhos @ target).real.tolist()


#: The qubit pairs a table entry (bob_ops, alice_ops) corrects, in its order.
_PAIRS = tuple(d.labels for d in DIRECTIONS.values())

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

    def deliver(self, entries: Iterable[tuple[tuple, tuple[str, str]]]) -> list[tuple[float, float]]:
        """Both directions' fidelities at each (leaf key, ops) of ``entries``, in order.

        ``ops`` is a table entry (bob_ops, alice_ops): Bob's act on (b1, b2)
        first, then Alice's on (a2, a3), and each corrected half is scored
        against its entry of ``targets``.  Entries not yet memoised go
        through the row kernel (:func:`_correct_rows`) in one call.
        """
        entries = list(entries)
        missing = [entry for entry in entries if entry not in self.fidelities]
        if missing:
            rows = np.stack([self.leaves[key][1].amps for key, _ in missing])
            fixed = _correct_rows(rows, _PAIRS, (ops for _, ops in missing))
            scores = [_scores(_densities(fixed, labels), t.amps) for labels, t in zip(_PAIRS, self.targets)]
            self.fidelities.update(zip(missing, zip(*scores)))
        return [self.fidelities[entry] for entry in entries]

    def delivered(self, key: tuple, ops: tuple[str, str]) -> tuple[float, float]:
        """Both directions' fidelities at leaf ``key`` corrected with ``ops``: :meth:`deliver` of one row."""
        return self.deliver([(key, ops)])[0]

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
    fidelities = tree.deliver((key, table[key]) for key in tree.leaves)
    return [
        BranchLeaf(*key, prob, payload, *table[key], *fidelity)
        for (key, prob, payload), fidelity in zip(tree.rows(), fidelities)
    ]


@lru_cache(maxsize=128)  # bounded: 64 outcome tuples per withheld announcement
def _heard(outcomes: tuple, withheld: str) -> tuple:
    """The table key of the receiver that never hears ``withheld``: that result read as "+"."""
    return correction_key({q: o for q, o in zip(PLAN_QUBITS, outcomes) if q != withheld})


def deprived_fidelities(
    leaves: Iterable[Leaf], withheld: str, target: Register, table: Table
) -> dict[tuple, tuple[float, float]]:
    """Fidelity at the receiver ``DIRECTIONS[withheld]`` starved of one announcement.

    ``leaves`` gives (outcomes in plan order, weight, payload).  Leaves that
    differ only in the withheld result look alike to the receiver: it
    applies the correction of the key it heard (:func:`_heard`) and holds
    their weighted mixture.  All leaves are corrected in one call of the
    row kernel (:func:`_correct_rows`).  Returns {heard key: (total weight,
    the mixture's fidelity against ``target``)}, in first-seen order.
    """
    labels, slot, _ = DIRECTIONS[withheld]
    outcomes, weights, payloads = zip(*leaves)
    heard = [_heard(tuple(o), withheld) for o in outcomes]
    rows = np.stack([payload.amps for payload in payloads])
    fixed = _correct_rows(rows, (labels,), ((table[key][slot],) for key in heard))
    groups: dict[tuple, int] = {}
    index = [groups.setdefault(key, len(groups)) for key in heard]
    totals, mixed = np.zeros(len(groups)), np.zeros((len(groups), 4, 4), dtype=complex)
    np.add.at(totals, index, weights)  # unbuffered, in leaf order: 0.0 + w1 + w2 + ... per group
    np.add.at(mixed, index, np.array(weights)[:, None, None] * _densities(fixed, labels))
    fidelities = _scores(mixed / totals[:, None, None], permute(target, labels).amps)
    return dict(zip(groups, zip(totals.tolist(), fidelities)))


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
