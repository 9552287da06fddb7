"""Bidirectional teleportation of two EPR-type payloads over a pair of
shared GHZ triples.

Alice holds channel qubits (a1, a2, a3) plus her input pair (A1, A2) in
the state ``c0|00> + c1|11>``; Bob holds (b1, b2, b3) and (B1, B2).  After
two local CNOTs and six local measurements -- computational basis on a1
and b3, conjugate basis on A2, B2, A1 and B1 -- Alice's payload lands on
Bob's (b1, b2) and Bob's on Alice's (a2, a3), each up to an outcome-keyed
Pauli correction.  All 64 measurement leaves occur with probability 1/64
regardless of the inputs.  :class:`Tree` holds them for one input pair and
owns their delivery; :func:`enumerate_batch` walks and delivers many pairs'
leaves as rows of one array.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, mul
from typing import Iterable, NamedTuple

import numpy as np

from .corrections import (
    LEAF_KEYS,
    MEASUREMENT_PLAN,
    PLAN_QUBITS,
    Table,
    _PLAN,
    correction_key,
    leaf_index,
    load_table,
    parse_ops,
)
from .ghz import ghz_state
from .qsim import (
    ATOL,
    Register,
    _CNOT,
    _alphabet,
    _apply_rows,
    _branch_rows,
    _collapse_rows,
    _normalized,
    _reciprocals,
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
    "LeafBatch",
    "Tree",
    "encode",
    "enumerate_batch",
    "enumerate_branches",
    "leaf_index",
    "noncooperation_fidelity",
    "prepare_channel",
    "prepare_full_state",
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


Pair = tuple[EprInput, EprInput]  # (alice, bob)


def _input_pair(pair: object) -> Pair:
    """``pair``, if it is (alice, bob), two :class:`EprInput`; else ValueError naming what is not."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
        raise ValueError(f"an input pair must be (alice, bob), got {pair!r}")
    for epr in pair:
        if not isinstance(epr, EprInput):
            raise ValueError(f"an input must be an EprInput, got {epr!r}")
    return pair


def _input_rows(pairs: Sequence[Pair]) -> np.ndarray:
    """Each pair's inputs on their receivers' payload labels, as :meth:`EprInput.register` writes them
    (:func:`qsim._normalized`): ``(2, n, 4)``, Alice's first.  The one writer of the targets deliveries score."""
    if not _sequence(pairs, "pairs"):
        raise ValueError("expected at least one input pair")
    for pair in pairs:
        _input_pair(pair)
    rows = np.zeros((2, len(pairs), 4), dtype=complex)
    rows[..., (0, 3)] += [[(epr.c0, epr.c1) for epr in inputs] for inputs in zip(*pairs)]
    return _normalized(rows)


def _encode_rows(alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """:func:`encode` of :func:`prepare_full_state` for each row pair of :func:`_input_rows`: ``(n, 1024)``.

    The two tensor products are outer products with :data:`_CHANNEL`, and each
    CNOT is one :func:`qsim._apply_rows` call; every step normalizes each
    row (:func:`qsim._normalized`, by reciprocals where the register divides),
    so every row is bit-identical to the pair's encoded register.
    """
    rows = _CHANNEL
    for inputs in (alice, bob):
        rows = _normalized((rows[..., :, None] * inputs[:, None, :]).reshape(len(inputs), -1))
    for control, target in ENCODING:
        rows = _normalized(_apply_rows(rows, FULL_LABELS, (control, target), _CNOT))
    return rows


def _walk_rows(
    labels: tuple[str, ...], rows: np.ndarray, plan: Sequence[tuple[str, str]]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Measure ``plan`` in order on every row: (labels left, leaf rows, step probabilities).

    This is the only place the protocol's measurements are performed.  The
    walk is level-batched: every open branch at a step is one row of a
    single array, split (:func:`qsim._branch_rows`) and collapsed
    (:func:`qsim._collapse_rows`) at once, so a measured prefix is shared by
    every leaf below it.  Row ``r`` of ``rows`` owns leaf rows ``r * 2**k``
    onwards, its ``2**k`` leaves in outcome order, 0/"+" first at every
    step; each leaf's step probabilities are the Born probability of every
    step given the ones before it, in plan order.  Each leaf is bit-identical
    to measuring it step by step with :func:`qsim.measure`.
    """
    born = []
    for qubit, basis in plan:
        alphabet = _alphabet(basis)
        probs, rows = _collapse_rows(_branch_rows(rows, labels, qubit, basis), (qubit,), alphabet)
        born.append(probs.reshape(-1))
        labels, rows = tuple(l for l in labels if l != qubit), rows.reshape(probs.size, -1)
    steps = [b.repeat(len(rows) // len(b)) for b in born]
    return labels, rows, np.stack(steps, axis=1) if steps else np.empty((len(rows), 0))


#: :func:`prepare_channel`'s amplitudes, built once: the read-only row every encoding starts from.
_CHANNEL = prepare_channel().amps
_BALANCED = EprInput(np.sqrt(0.5), np.sqrt(0.5))  # the cooperative input of noncooperation_fidelity

#: Steps of round one: a leaf's step probabilities split here into its two rounds.
_ROUND_ONE = len(MEASUREMENT_PLAN[0])


def _walk_pairs(
    pairs: Sequence[Pair], plan: Sequence[tuple[str, str]] = _PLAN
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every input pair encoded and walked through ``plan`` in one batch.

    Returns the pairs' :func:`_input_rows`, and :func:`_walk_rows`'s leaf
    rows and step probabilities: pair ``i`` owns the ``i``-th run of
    ``2**len(plan)`` leaves.
    """
    inputs = _input_rows(pairs)
    return (inputs, *_walk_rows(FULL_LABELS, _encode_rows(*inputs), plan)[1:])


def _product(columns: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise product of the columns, left to right: ``math.prod``'s order."""
    return reduce(mul, columns)


def _leaf_probabilities(steps: np.ndarray) -> np.ndarray:
    """Each leaf's probability from its row of ``steps``: round one's product times round two's."""
    return _product(steps.T[:_ROUND_ONE]) * _product(steps.T[_ROUND_ONE:])


#: Each correction gate as an exact map of a payload row, its 16 amplitudes in
#: PAYLOAD_LABELS order, by the qubit's position k: X reorders the row (index
#: xor the qubit's bit) and Z negates the entries whose index has the bit set.
_BITS = 8 >> np.arange(len(PAYLOAD_LABELS))
_X_MAPS = np.arange(16) ^ _BITS[:, None]
_Z_SIGNS = np.where(np.arange(16) & _BITS[:, None], -1.0, 1.0)


@lru_cache(maxsize=64)  # bounded: the columns come from callers' tables
def _row_groups(labels: tuple[str, str], ops: tuple[str, ...]) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """Each distinct string of ``ops``, first seen first, as (its gates on ``labels``, its rows read-only).

    X on payload qubit k is gate k and Z is 4 + k.  Within a factor the
    gates run reversed ("XZ" is Z, then X) and "I" is none: the order of
    :func:`corrections.apply_ops`, the gate-level oracle.
    """
    rows: dict[str, list[int]] = {}
    for r, pair in enumerate(ops):
        rows.setdefault(pair, []).append(r)
    groups = []
    for pair, members in rows.items():
        factors = zip(labels, parse_ops(pair), strict=True)
        gates = tuple(PAYLOAD_LABELS.index(q) + 4 * (g == "Z")
                      for q, factor in factors for g in reversed(factor) if g != "I")
        members = np.array(members)
        members.flags.writeable = False
        groups.append((gates, members))
    return tuple(groups)


def _correct_rows(rows: np.ndarray, labels: tuple[str, str], ops: Sequence[str]) -> np.ndarray:
    """The row kernel: payload row ``r`` with its qubit pair ``labels`` corrected by ``ops[r]``.

    ``rows`` holds one payload's 16 amplitudes per row, in PAYLOAD_LABELS
    order.  Rows that share an ops string are gathered once and corrected
    as one group: each gate reorders (X) or negates (Z) the whole group by
    its map and normalizes each row (:func:`qsim._normalized`), by reciprocals
    where the :class:`qsim.Register` constructor divides after every gate, so
    each row equals :func:`corrections.apply_ops` on its register bit for bit.
    """
    fixed = rows.copy()
    for gates, members in _row_groups(labels, tuple(ops)):
        part = rows[members]
        for gate in gates:
            if gate < 4:
                part = part[:, _X_MAPS[gate]]
            else:
                part *= _Z_SIGNS[gate - 4]
            part = _normalized(part)
        fixed[members] = part
    return fixed


def _densities(fixed: np.ndarray, labels: tuple[str, str]) -> np.ndarray:
    """Each corrected payload row's reduced density on ``labels``: :func:`qsim.reduced_density`'s product."""
    psi = fixed.reshape(-1, 4, 4)  # axes (b1, b2) and (a2, a3)
    psi = psi if labels == BOB_PAYLOAD_LABELS else psi.swapaxes(-1, -2)
    return psi @ psi.conj().swapaxes(-1, -2)


def _scores(rhos: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each ``<target|rho|target>``, by :func:`qsim.fidelity_pure`'s product and BLAS call per rho.

    ``targets`` is one target for every rho, or one row per rho.
    """
    return np.vecdot(targets, (rhos @ targets[..., None])[..., 0]).real


#: Each withholdable announcement's heard key at every leaf, in leaf order: the table
#: key of the receiver that never hears it, that result read as "+" (:func:`correction_key`).
_HEARD = {
    w: tuple(correction_key({q: o for q, o in zip(PLAN_QUBITS, key) if q != w}) for key in LEAF_KEYS)
    for w in DIRECTIONS
}

#: Each withholdable announcement's groups: the distinct heard keys, first seen in leaf
#: order, and each leaf's group, its heard key's place among them.  Leaves that differ
#: only in the withheld result, ``i`` and ``i | bit`` for its bit, share a group.
_GROUPS = {
    w: (keys, np.array([keys.index(key) for key in heard]))
    for w, heard in _HEARD.items()
    for keys in [tuple(dict.fromkeys(heard))]
}


def _entries(ops: Sequence, kind: str, names: Sequence) -> Sequence:
    """``ops`` if every entry is (bob_ops, alice_ops), two strings; else ValueError naming the first other."""
    for name, entry in zip(names, ops):
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise ValueError(f"correction table entry {entry!r} for {kind} {name!r} is not two ops strings")
    return ops


def _check_withheld(withheld: str) -> str:
    """``withheld``, if it is a second-round announcement; else ValueError."""
    if not (isinstance(withheld, str) and withheld in DIRECTIONS):
        raise ValueError(f"withheld must be 'A1' or 'B1', got {withheld!r}")
    return withheld


def _sequence(value: object, name: str) -> Sequence:
    """``value``, if it is a sequence; else ValueError naming the argument ``name``."""
    if not isinstance(value, Sequence):
        raise ValueError(f"{name} must be a sequence, got {value!r}")
    return value


def _heard_ops(table: Table, withheld: str) -> list[str]:
    """The ops that the receiver starved of ``withheld`` applies in each of its groups (:data:`_GROUPS`),
    each group's table entry read once, through :func:`_entries`."""
    keys = _GROUPS[withheld][0]
    return [entry[DIRECTIONS[withheld].slot] for entry in _entries([table[key] for key in keys], "key", keys)]


def _deliver(rows: np.ndarray, ops: Sequence[tuple[str, str]], targets) -> np.ndarray:
    """Both directions' fidelities of payload row ``r`` corrected with the table entry ``ops[r]``: ``(n, 2)``.

    The row kernel (:func:`_correct_rows`) corrects each direction's pair
    with its column of ``ops``, in :data:`DIRECTIONS` order.  Each corrected
    half is scored against ``targets[slot]`` of its direction: one target
    for every row, or one row per row.
    """
    fixed = rows
    for d in DIRECTIONS.values():
        fixed = _correct_rows(fixed, d.labels, [entry[d.slot] for entry in ops])
    return np.stack([_scores(_densities(fixed, d.labels), targets[d.slot]) for d in DIRECTIONS.values()], -1)


def _deprived(payloads: np.ndarray, targets, weights: np.ndarray, withheld: str, ops: Sequence) -> tuple[list, list]:
    """Each group of ``withheld`` (:data:`_GROUPS`) at the receiver it starves: (total weights, fidelities).

    Leaves of one group look alike to the receiver: it applies the
    group's ``ops`` (:func:`_heard_ops`), the correction of the key it heard
    (:data:`_HEARD`), to its own pair and
    holds their mixture, each leaf weighted by its entry of ``weights``.
    All 64 of one pair's ``payloads`` (:attr:`Tree.payloads`) are corrected
    in one call of the row kernel (:func:`_correct_rows`), and each mixture,
    over its total weight (by :func:`qsim._reciprocals`), is scored against
    the sender's row of ``targets`` (:attr:`Tree.targets`).
    """
    labels, slot, _ = DIRECTIONS[withheld]
    keys, groups = _GROUPS[withheld]
    fixed = _correct_rows(payloads, labels, [ops[group] for group in groups])
    totals, mixed = np.zeros(len(keys)), np.zeros((len(keys), 4, 4), dtype=complex)
    np.add.at(totals, groups, weights)  # unbuffered, in leaf order: 0.0 + w1 + w2 + ... per group
    np.add.at(mixed, groups, weights[:, None, None] * _densities(fixed, labels))
    return totals.tolist(), _scores(mixed * _reciprocals(totals)[:, None, None], targets[slot]).tolist()


class Tree:
    """The exact measurement tree of one input pair: all 64 leaves, walked once.

    It holds one :func:`_walk_pairs` of the pair as three read-only arrays,
    each leaf's row at its :func:`leaf_index`: ``payloads`` ``(64, 16)``,
    every uncorrected payload over PAYLOAD_LABELS; ``steps`` ``(64, 6)``,
    every leaf's step probabilities in plan order; and ``targets``
    ``(2, 4)``, each input on its receiver's payload labels
    (:func:`_input_rows`), by direction slot.  The tree is the one owner of
    delivery, and keeps each deprived column's averages (:meth:`deprived`).
    """

    def __init__(self, alice: EprInput, bob: EprInput) -> None:
        self.inputs = (alice, bob)
        inputs, payloads, steps = _walk_pairs([self.inputs])
        # copies that own their memory, so no writable base is left behind them
        self.payloads, self.steps, self.targets = (a.copy() for a in (payloads, steps, inputs[:, 0]))
        for array in (self.payloads, self.steps, self.targets):
            array.flags.writeable = False
        self.averages: dict[tuple, tuple[float, ...]] = {}

    def deliver(self, leaves: Sequence[int], ops: Sequence[tuple[str, str]]) -> list[tuple[float, float]]:
        """Both directions' fidelities at each leaf index of ``leaves``, an int in [0, 64), corrected
        with the table entry (bob_ops, alice_ops) at the same place of ``ops``: one call of :func:`_deliver`."""
        if len(_sequence(leaves, "leaves")) != len(_sequence(ops, "ops")):
            raise ValueError(f"{len(leaves)} leaves but {len(ops)} table entries")
        for leaf in leaves:
            if not isinstance(leaf, int) or isinstance(leaf, bool) or not 0 <= leaf < len(LEAF_KEYS):
                raise ValueError(f"a leaf must be an integer in [0, {len(LEAF_KEYS)}), got {leaf!r}")
        ops = _entries(ops, "leaf", leaves)
        return list(map(tuple, _deliver(self.payloads[list(leaves)], ops, self.targets).tolist()))

    def deprived(self, withheld: str, ops: Sequence[str]) -> tuple[float, ...]:
        """Each group's fidelity at the receiver starved of ``withheld`` that applies ``ops[g]``
        in group ``g``, one string per group (else ValueError), as :func:`_heard_ops` reads them:
        :func:`_deprived`, with leaves weighted by their round-two probabilities alone.  No table
        is read, so (withheld, ops) is all the memo needs to key on."""
        memo, groups = (_check_withheld(withheld), tuple(_sequence(ops, "ops"))), len(_GROUPS[withheld][0])
        if len(memo[1]) != groups:
            raise ValueError(f"{len(memo[1])} ops strings for the {groups} groups of {withheld!r}")
        if not all(isinstance(o, str) for o in memo[1]):
            raise ValueError(f"every ops entry for the groups of {withheld!r} must be a string")
        if memo not in self.averages:
            weights = _product(self.steps.T[_ROUND_ONE:])
            self.averages[memo] = tuple(_deprived(self.payloads, self.targets, weights, *memo)[1])
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


class LeafBatch(NamedTuple):
    """The leaves of n input pairs, each pair's 64 in :func:`leaf_index` order."""

    ops: list[tuple[str, str]]  # each leaf's table entry (bob_ops, alice_ops)
    probabilities: np.ndarray  # (n, 64): round one's probability times round two's
    fidelities: np.ndarray  # (n, 64, 2): a->b, then b->a, each against its own pair's inputs
    payloads: np.ndarray  # (n, 64, 16): uncorrected, over PAYLOAD_LABELS


def enumerate_batch(pairs: Sequence[Pair], table: Table | None = None) -> LeafBatch:
    """Every corrected leaf of every (alice, bob) pair of ``pairs``, walked and delivered in one batch.

    The table is read first (:func:`_leaf_ops`), so a missing key raises
    KeyError before any walk.  All pairs are then encoded and walked as rows
    of one array (:func:`_walk_pairs`), and all their leaves corrected and
    scored in one call of :func:`_deliver` (:func:`_delivered`).  Every value is
    bit-identical to the pair's own :class:`Tree`: its arrays and
    ``deliver``.  Memory grows with ``len(pairs)``, so callers walk many
    pairs in chunks.
    """
    ops = _leaf_ops(table)
    return _delivered(ops, *_walk_pairs(pairs))


def _leaf_ops(table: Table | None) -> list[tuple[str, str]]:
    """Every leaf's entry of ``table`` (the packaged one if None), in :func:`leaf_index` order: a missing
    key raises KeyError on the first such leaf, and an entry not two strings ValueError."""
    if table is None:
        table = load_table()
    return _entries([table[key] for key in LEAF_KEYS], "key", LEAF_KEYS)


def _delivered(ops: list[tuple[str, str]], inputs: np.ndarray, rows: np.ndarray, steps: np.ndarray) -> LeafBatch:
    """The delivery half of :func:`enumerate_batch`: the batch of one :func:`_walk_pairs`, every pair's
    leaves corrected with ``ops`` (:func:`_leaf_ops`) and scored in one call of :func:`_deliver`."""
    n, size = inputs.shape[1], len(LEAF_KEYS)
    probabilities = _leaf_probabilities(steps)
    fidelities = _deliver(rows, ops * n, inputs.repeat(size, axis=1))
    return LeafBatch(
        ops, probabilities.reshape(n, size), fidelities.reshape(n, size, 2), rows.reshape(n, size, -1)
    )


def enumerate_branches(
    alice: EprInput, bob: EprInput, table: Table | None = None
) -> list[BranchLeaf]:
    """Every corrected leaf of the pair, in :func:`leaf_index` order: :func:`enumerate_batch` of the one pair."""
    batch = enumerate_batch([(alice, bob)], table)
    payloads = Register._rows(PAYLOAD_LABELS, batch.payloads[0])
    return [
        BranchLeaf(*key, prob, payload, *ops, *fidelities)
        for key, prob, payload, ops, fidelities in zip(
            LEAF_KEYS, batch.probabilities[0].tolist(), payloads, batch.ops, batch.fidelities[0].tolist()
        )
    ]


def noncooperation_fidelity(epr: EprInput, withheld: str = "A1") -> float:
    """Expected fidelity at the deprived receiver when one announcement is withheld.

    ``withheld="A1"`` starves Bob of Alice's second-round result (so
    ``epr`` is Alice's input); ``"B1"`` starves Alice.  The pair, ``epr``
    and :data:`_BALANCED`, is walked without a :class:`Tree` and its rows go
    to :func:`_deprived` (:func:`_noncooperation_fidelities` of one case).  The
    returned value weights every leaf by its full probability, averages the
    receiver's corrected reduced state over the two equally likely withheld
    outcomes and equals ``|c0|**4 + |c1|**4``.
    """
    return _noncooperation_fidelities([(epr, withheld)])[0]


def _noncooperation_fidelities(cases: Sequence[tuple[EprInput, str]]) -> list[float]:
    """:func:`noncooperation_fidelity` of each ``(epr, withheld)`` case, bit for bit: every pair is
    walked in one batch, and each case's 64 leaves then go to :func:`_deprived` on their own."""
    pairs = [(epr, _BALANCED) if DIRECTIONS[_check_withheld(w)].slot == 0 else (_BALANCED, epr) for epr, w in cases]
    inputs, payloads, steps = _walk_pairs(pairs)
    weights, table, size = _leaf_probabilities(steps), load_table(), len(LEAF_KEYS)
    fidelities = []
    for i, (_, withheld) in enumerate(cases):
        leaves = slice(i * size, (i + 1) * size)
        ops = _heard_ops(table, withheld)
        totals, scores = _deprived(payloads[leaves], inputs[:, i], weights[leaves], withheld, ops)
        fidelities.append(reduce(add, map(mul, totals, scores), 0.0))  # 0.0 + w1 * f1 + ..., in group order
    return fidelities
