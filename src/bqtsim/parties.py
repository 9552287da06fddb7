"""Two-party protocol sessions with auditable transcripts.

Alice owns {a1, a2, a3, A1, A2} and Bob owns {b1, b2, b3, B1, B2}.  A
session performs no protocol step of its own: it is six seeded draws
against its input pair's :class:`bqtsim.protocol.Tree` plus a lookup of
the drawn leaf's record -- transcript, both fidelities and the deprived
expectation -- memoised on the tree per (leaf key, withheld announcement,
ops).  The ops are looked up in the caller's table on every call, never
keyed by the table, so an edited table still takes effect.  Sessions at a
leaf share its record, so transcripts are immutable: events and message
payloads are tuples.  Every gate, measurement, classical announcement,
correction, and final fidelity is a transcript event.

:func:`run_sessions` draws a whole run's sessions in one batch, from a
vectorised replay of numpy's generator.  :func:`run_session` is the scalar
path and the batch's oracle: it plays the first session at each leaf with
numpy's own generator, which cross-checks the batch.

Announcements travel in two rounds, Alice first within each round: after
the first measurement round each party announces both of its results, and
after the second round each party announces its conjugate-basis result --
unless the session's cooperation mode withholds it.  A party computes its
correction only from its own outcomes plus announcements actually
received, defaulting a withheld second-round announcement to "+".

Transcript JSON schema ``bqtsim.transcript/1``::

    {"schema": "bqtsim.transcript/1", "events": [...]}

Every event carries the same eight keys: step (1..4), actor ("Alice",
"Bob" or "channel"), kind ("prepare" | "gate" | "measure" | "message" |
"correct" | "fidelity"), qubits (list of labels), basis ("Z", "X" or
null), outcome (kind-specific; see below), probability (Born probability
for measure events, else null) and message_round (1 or 2 for message
events, else null).  Outcome payloads: gate events name the gate;
measure events give the result; message events give a list of
[qubit, basis, result] triples (tuples in memory); correct events give
the applied ops string; fidelity events give the measured overlap.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable

import numpy as np

from ._draws import uniforms
from .corrections import MEASUREMENT_PLAN, PLAN_QUBITS, Table, correction_key, leaf_index, load_table
from .protocol import (
    ALICE_INPUT_LABELS,
    BOB_INPUT_LABELS,
    CHANNEL_LABELS,
    DIRECTIONS,
    ENCODING,
    EprInput,
    Tree,
    _heard,
)
from .qsim import _alphabet, _pick

__all__ = [
    "ALICE",
    "BOB",
    "COOPERATION_MODES",
    "OWNED",
    "TRANSCRIPT_SCHEMA",
    "WITHHELD",
    "Event",
    "SessionResult",
    "Transcript",
    "ownership_check",
    "run_session",
    "run_sessions",
    "session_seed",
]

ALICE = "Alice"
BOB = "Bob"

OWNED: dict[str, frozenset[str]] = {
    ALICE: frozenset({"a1", "a2", "a3", "A1", "A2"}),
    BOB: frozenset({"b1", "b2", "b3", "B1", "B2"}),
}

#: Each cooperation mode and the second-round announcement it suppresses, if any.
WITHHELD = {"full": None, "alice_withholds_A1": "A1", "bob_withholds_B1": "B1"}

COOPERATION_MODES = tuple(WITHHELD)

TRANSCRIPT_SCHEMA = "bqtsim.transcript/1"

#: The direction each party receives, the one whose payload labels it owns; Bob's first.
_RECEIVES = {p: d for d in DIRECTIONS.values() for p in OWNED if OWNED[p].issuperset(d.labels)}

#: Each measured qubit's basis, and each draw's outcome alphabet, in plan order.
_BASIS = dict(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1])
_ALPHABETS = tuple(map(_alphabet, _BASIS.values()))


def session_seed(base: int, trial: int = 0) -> int:
    """Seed of session ``trial`` in a run seeded with ``base``: (base + trial) mod 2**64.

    ``base`` must be an integer in [0, 2**64); anything else raises ValueError.
    """
    if not isinstance(base, int) or isinstance(base, bool) or not 0 <= base < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {base!r}")
    return (base + trial) % 2**64


@dataclass(frozen=True, slots=True)
class Event:
    step: int
    actor: str
    kind: str
    qubits: tuple[str, ...]
    basis: str | None = None
    outcome: object = None
    probability: float | None = None
    message_round: int | None = None

    def to_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in self.__slots__}, "qubits": list(self.qubits)}


@dataclass(frozen=True)
class Transcript:
    """A session's events in order.  Sessions at one leaf share one, so it is
    immutable: any iterable of events is stored as a tuple."""

    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def of_kind(self, kind: str, actor: str | None = None) -> list[Event]:
        return [
            e for e in self.events if e.kind == kind and (actor is None or e.actor == actor)
        ]

    def to_json_obj(self) -> dict:
        return {"schema": TRANSCRIPT_SCHEMA, "events": [e.to_dict() for e in self.events]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def _knowledge(events: Iterable[Event]) -> dict[str, dict[str, int | str]]:
    """What each party knows after ``events``: its own measurement results
    plus every result announced to it, as qubit -> result."""
    known: dict[str, dict[str, int | str]] = {ALICE: {}, BOB: {}}
    for event in events:
        if event.actor not in known:
            continue
        if event.kind == "measure":
            known[event.actor][event.qubits[0]] = event.outcome
        elif event.kind == "message":
            known[BOB if event.actor == ALICE else ALICE].update((q, result) for q, _basis, result in event.outcome)
    return known


def _correction(known: dict[str, dict[str, int | str]], actor: str, table: Table) -> str:
    """The ops ``actor`` applies, given what each party knows."""
    return table[correction_key(known[actor], OWNED[actor])][_RECEIVES[actor].slot]


@dataclass(frozen=True)
class SessionResult:
    transcript: Transcript
    fidelity_alice_to_bob: float
    fidelity_bob_to_alice: float
    expected_fidelity: float | None  # deprived direction when withholding, else None
    leaf: int
    outcomes: dict[str, int | str]
    seed: int
    cooperation: str


def run_session(
    alice_input: EprInput,
    bob_input: EprInput,
    seed: int,
    cooperation: str = "full",
    table: Table | None = None,
) -> SessionResult:
    """Play one seeded session and return the transcript plus fidelities.

    Identical arguments reproduce the transcript byte for byte.  Under a
    withholding mode the deprived receiver corrects with the withheld
    announcement defaulted to "+", and ``expected_fidelity`` reports the
    density-matrix average of its corrected state over the two equally
    likely withheld outcomes (``|c0|**4 + |c1|**4`` of the undelivered
    input); under full cooperation it is None.

    Each draw is one ``rng.random()`` picked against :attr:`Tree.born` with
    :func:`qsim.measure`'s rule (``qsim._pick``), in plan order, so the
    outcomes are bit-identical to measuring the state one draw at a time.
    """
    table = _checked(seed, cooperation, table)
    tree = _session_tree(_input_bits(alice_input, bob_input), alice_input, bob_input)
    rng = np.random.default_rng(seed)
    key: tuple = ()
    for alphabet in _ALPHABETS:
        key += (alphabet[_pick(tree.born[key], rng.random())],)
    withheld = WITHHELD[cooperation]
    # each receiver corrects with the table entry of the key it heard
    ops = tuple(table[_heard(key, w) if w == withheld else key][d.slot] for w, d in DIRECTIONS.items())
    memo = key, withheld, ops
    if memo not in tree.sessions:
        tree.sessions[memo] = _record(tree, key, withheld, ops, table)
    return SessionResult(*tree.sessions[memo], dict(zip(PLAN_QUBITS, key)), seed, cooperation)


def run_sessions(
    alice_input: EprInput,
    bob_input: EprInput,
    base: int,
    trials: int,
    cooperation: str = "full",
    table: Table | None = None,
) -> tuple[list[int], dict[int, SessionResult]]:
    """Play sessions ``session_seed(base, i)`` for ``i`` in ``range(trials)`` in one batch.

    Returns each trial's leaf index, and the :class:`SessionResult` of the
    first trial at each leaf, in trial order.  Within one call the leaf
    fixes every field of a result but ``seed``, so these describe every
    trial.

    All trials' draws come from one vectorised kernel that reproduces
    ``np.random.default_rng(seed).random()`` bit for bit, and are picked
    with :func:`run_session`'s rule (:func:`_draw_leaves`), so every leaf
    is the one :func:`run_session` draws.  The first trial at each leaf is
    played by :func:`run_session` itself, with numpy's own generator: if
    it lands on another leaf, RuntimeError names the trial and its seed.
    """
    table = _checked(base, cooperation, table)
    tree = _session_tree(_input_bits(alice_input, bob_input), alice_input, bob_input)
    draws = uniforms(np.arange(trials, dtype=np.uint64) + base, len(_ALPHABETS))
    leaves = _draw_leaves(tree, draws).tolist()
    first = {}
    for i in sorted(map(leaves.index, set(leaves))):
        seed = session_seed(base, i)
        result = run_session(alice_input, bob_input, seed, cooperation, table)
        if result.leaf != leaves[i]:
            raise RuntimeError(f"trial {i} (seed {seed}): the batched draws reach leaf {leaves[i]}, "
                               f"run_session reaches leaf {result.leaf}")
        first[result.leaf] = result
    return leaves, first


def _checked(seed: int, cooperation: str, table: Table | None) -> Table:
    """The table a session uses, once its seed and mode are checked."""
    session_seed(seed)  # range check
    if cooperation not in COOPERATION_MODES:
        raise ValueError(f"cooperation must be one of {COOPERATION_MODES}")
    return load_table() if table is None else table


def _draw_leaves(tree: Tree, draws: np.ndarray) -> np.ndarray:
    """The leaf index that each row of ``draws`` (one draw per step, plan order) reaches on ``tree``.

    Step ``k`` takes the second outcome iff ``draws[:, k]`` is at least the
    first outcome's :attr:`Tree.born` probability, which is ``qsim._pick``'s
    rule for two outcomes.  The picks so far are a node of a binary tree:
    the root is node 1, and node ``n`` has children ``2n`` (first outcome)
    and ``2n + 1``, so ``p0[n]`` holds each inner node's probability.
    """
    p0 = np.empty(2 ** len(_ALPHABETS))
    for prefix, probs in tree.born.items():
        node = 1
        for alphabet, outcome in zip(_ALPHABETS, prefix):
            node = 2 * node + alphabet.index(outcome)
        p0[node] = probs[0]
    node = np.ones(len(draws), dtype=np.intp)
    for column in draws.T:
        node = 2 * node + (column >= p0[node])
    return _LEAF_OF_PICKS[node - len(p0)]


#: Each leaf's index by its picks read as a binary number, first pick highest.
_LEAF_OF_PICKS = np.array([leaf_index(*key) for key in product(*_ALPHABETS)])


def _record(tree: Tree, key: tuple, withheld: str | None, ops: tuple[str, str], table: Table) -> tuple:
    """The first five fields of the :class:`SessionResult` of every session at
    leaf ``key`` (transcript to leaf index), built straight from the key."""
    events = list(_PREAMBLE)
    for round_no, plan in enumerate(MEASUREMENT_PLAN, 1):
        for qubit, basis in plan:
            n = PLAN_QUBITS.index(qubit)
            events.append(Event(round_no + 2, _owner(qubit), "measure", _SINGLE[qubit], basis, key[n],
                                tree.born[key[:n]][_alphabet(basis).index(key[n])]))
        for sender in (ALICE, BOB):
            payload = tuple((q, b, key[PLAN_QUBITS.index(q)]) for q, b in plan
                            if q in OWNED[sender] and q != withheld)
            if payload:
                events.append(_message(round_no, sender, payload))
    fidelities = tree.delivered(key, ops)
    for kind, results in (("correct", ops), ("fidelity", fidelities)):
        events += (Event(4, party, kind, d.labels, outcome=r) for (party, d), r in zip(_RECEIVES.items(), results))
    expected = None if withheld is None else tree.deprived(key, withheld, table)
    return Transcript(events), *fidelities, expected, leaf_index(*key)


#: Each measured qubit as the ``qubits`` of its measure events.
_SINGLE = {q: (q,) for q in PLAN_QUBITS}

#: Every message event built so far, by (round, sender, payload).  The
#: alphabets bound them to twelve, so all records share one of each.
_MESSAGES: dict[tuple, Event] = {}


def _message(round_no: int, sender: str, payload: tuple) -> Event:
    """The shared event of ``sender`` announcing ``payload`` in round ``round_no``."""
    key = round_no, sender, payload
    if key not in _MESSAGES:
        _MESSAGES[key] = Event(round_no + 2, sender, "message", tuple(q for q, *_ in payload),
                               outcome=payload, message_round=round_no)
    return _MESSAGES[key]


def _input_bits(alice: EprInput, bob: EprInput) -> bytes:
    """The exact bits of both inputs: pairs that are == but differ in a zero's sign differ here."""
    return struct.pack("8d", *(x for c in (alice.c0, alice.c1, bob.c0, bob.c1) for x in (c.real, c.imag)))


@lru_cache(maxsize=8)
def _session_tree(bits: bytes, alice: EprInput, bob: EprInput) -> Tree:
    """The memoised tree of the inputs whose exact bits are ``bits`` (:func:`_input_bits`).

    Only sessions repeat a pair, so only they cache trees.  The cache also
    compares the inputs themselves, but inputs with equal bits are always
    ``==``, so the bits alone decide which tree is shared.
    """
    return Tree(alice, bob)


def _owner(qubit: str) -> str:
    return ALICE if qubit in OWNED[ALICE] else BOB


#: The events every session opens with: both parties' preparations, then the encoding CNOTs.
_PREAMBLE = (
    Event(1, "channel", "prepare", CHANNEL_LABELS),
    Event(1, ALICE, "prepare", ALICE_INPUT_LABELS),
    Event(1, BOB, "prepare", BOB_INPUT_LABELS),
    *(Event(2, _owner(c), "gate", (c, t), outcome="CNOT") for c, t in ENCODING),
)


def ownership_check(transcript: Transcript, table: Table | None = None) -> bool:
    """Audit locality and classical information flow of a transcript.

    Returns False if any party touches a qubit it does not own, records a
    result outside its basis's alphabet, announces a result it did not
    record (type included) or in another basis than the plan's, announces
    for a foreign qubit or for other qubits than its message's ``qubits``,
    sends messages out of round order, corrects before the required
    round-one announcements arrive, or applies a correction that differs
    from the one its own outcomes plus received announcements determine
    (withheld second-round announcements default to "+").  Physics is not
    re-simulated; the audit is purely structural.
    """
    if table is None:
        table = load_table()
    events = transcript.events
    last_round = {ALICE: 0, BOB: 0}
    for n, event in enumerate(events):
        actor = event.actor
        if actor not in (ALICE, BOB):
            if event.kind in ("gate", "measure", "message", "correct"):
                return False  # only parties act; "channel" may only prepare
            continue
        if not set(event.qubits) <= OWNED[actor]:
            return False
        if event.kind == "message":
            if event.message_round is None or event.message_round <= last_round[actor]:
                return False
            last_round[actor] = event.message_round
            # typed, since True == 1 == 1.0 but only 1 is a Z result
            recorded = {q: (type(r), r) for q, r in _knowledge(events[:n])[actor].items()}
            if tuple(event.qubits) != tuple(label for label, *_ in event.outcome):
                return False
            for label, basis, outcome in event.outcome:
                if (label not in OWNED[actor] or basis != _BASIS.get(label)
                        or recorded.get(label) != (type(outcome), outcome)):
                    return False
        elif event.kind == "measure":
            try:
                if event.outcome not in _alphabet(event.basis, event.outcome):
                    return False
            except ValueError:
                return False
        elif event.kind == "correct":
            try:
                expected = _correction(_knowledge(events[:n]), actor, table)
            except KeyError:
                return False
            if event.outcome != expected:
                return False
    return True
