"""Two-party protocol sessions with auditable transcripts.

Alice owns {a1, a2, a3, A1, A2} and Bob owns {b1, b2, b3, B1, B2}.  A
session performs no protocol step of its own: it is six seeded draws
against its input pair's :class:`bqtsim.protocol.Tree`, then the drawn
leaf's whole :class:`SessionResult` -- transcript, both fidelities, the
deprived expectation, outcomes, seed and mode -- built from the tree and
the caller's table by one builder (:func:`_records`).  Sessions at a leaf
within one run share its result, so transcripts are immutable: events and
message payloads are tuples.
Every gate, measurement, classical announcement, correction, and final
fidelity is a transcript event.

:func:`run_session` and :func:`run_sessions` pick leaves by one rule
(:func:`_draw_leaves`).  The first draws from numpy's generator; the second
draws a whole run from a vectorised replay of it (``_draws.uniforms``),
checks the first session's draws at each leaf against numpy's own, bit for
bit, and builds every distinct leaf's result in one pass.

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

import numpy as np

from ._draws import uniforms
from .corrections import LEAF_KEYS, MEASUREMENT_PLAN, PLAN_QUBITS, Table, _PLAN, correction_key, load_table
from .protocol import (
    ALICE_INPUT_LABELS,
    BOB_INPUT_LABELS,
    CHANNEL_LABELS,
    DIRECTIONS,
    ENCODING,
    EprInput,
    Tree,
    _GROUPS,
    _entries,
    _heard_ops,
    _input_pair,
)
from .qsim import _alphabet, _picks

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

#: The (qubits, basis) of every legal measure event and announced result: one qubit of the plan, in its basis.
_MEASURES = tuple(((q,), basis) for q, basis in _PLAN)


def session_seed(base: int, trial: int = 0) -> int:
    """Seed of session ``trial`` in a run seeded with ``base``: (base + trial) mod 2**64.

    ``base`` must be an integer in [0, 2**64) and ``trial`` a non-negative
    integer; anything else raises ValueError.
    """
    if not isinstance(base, int) or isinstance(base, bool) or not 0 <= base < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {base!r}")
    if not isinstance(trial, int) or isinstance(trial, bool) or trial < 0:
        raise ValueError(f"a trial index or count must be a non-negative integer, got {trial!r}")
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

    def to_json_obj(self) -> dict:
        return {"schema": TRANSCRIPT_SCHEMA, "events": [e.to_dict() for e in self.events]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


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
    input); under full cooperation it is None.  The leaf is picked from
    ``np.random.default_rng(seed)``'s first six draws (:func:`_draw_leaves`).
    """
    table, tree = _checked(seed, cooperation, table, alice_input, bob_input)
    leaves = _draw_leaves(tree, np.random.default_rng(seed).random((1, len(_BITS)))).tolist()
    return _records(tree, leaves, [seed], cooperation, table)[0]


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
    trial.  ``trials`` must be a non-negative integer (ValueError).

    All trials' draws come from one vectorised kernel (``_draws.uniforms``)
    and pick their leaves as :func:`run_session` does.  The first trial's
    six draws at each leaf must equal numpy's own generator's, bit for bit,
    else RuntimeError names the trial and its seed.
    """
    table, tree = _checked(base, cooperation, table, alice_input, bob_input)
    seeds = _trial_seeds(base, trials)
    draws = uniforms(seeds, len(_BITS))
    leaves = _draw_leaves(tree, draws).tolist()
    firsts = sorted(map(leaves.index, set(leaves)))
    first_seeds = seeds[firsts].tolist()
    for i, seed in zip(firsts, first_seeds):
        want = np.random.default_rng(seed).random(len(_BITS))
        if draws[i].tobytes() != want.tobytes():
            raise RuntimeError(f"trial {i} (seed {seed}): the batched draws {draws[i].tolist()} "
                               f"differ from numpy's generator's {want.tolist()}")
    return leaves, {r.leaf: r for r in _records(tree, [leaves[i] for i in firsts], first_seeds, cooperation, table)}


def _trial_seeds(base: int, trials: int) -> np.ndarray:
    """Every trial's :func:`session_seed` as a uint64 array, checked as it checks
    them.  Array sums wrap mod 2**64 silently, where numpy scalars would warn."""
    session_seed(base, trials)
    return np.arange(trials, dtype=np.uint64) + np.uint64(base)


def _checked(seed: int, cooperation: str, table: Table | None, alice: EprInput, bob: EprInput) -> tuple[Table, Tree]:
    """The table and the cached tree a session uses, once its seed, mode and inputs are checked."""
    session_seed(seed)  # range check
    if cooperation not in COOPERATION_MODES:
        raise ValueError(f"cooperation must be one of {COOPERATION_MODES}")
    _input_pair((alice, bob))
    return load_table() if table is None else table, _session_tree(_input_bits(alice, bob), alice, bob)


#: Each step's bit in a leaf index, whose bits are its picks, first pick highest
#: (:func:`leaf_index`).  So at step ``k``, below the picks so far,
#: ``Tree.steps[leaf, k]`` is the first outcome's probability.
_BITS = tuple(1 << k for k in reversed(range(len(PLAN_QUBITS))))


def _draw_leaves(tree: Tree, draws: np.ndarray) -> np.ndarray:
    """The leaf index each row of ``draws`` (one draw per step) reaches, each step picked by
    :func:`qsim.measure`'s rule for many draws at once (``qsim._picks``)."""
    leaves = np.zeros(len(draws), dtype=np.intp)
    for k, (bit, column) in enumerate(zip(_BITS, draws.T)):
        leaves |= bit * _picks(tree.steps[leaves, k], column)
    return leaves


def _records(tree: Tree, leaves: list[int], seeds: list[int], cooperation: str, table: Table) -> list[SessionResult]:
    """The :class:`SessionResult` of the session seeded with each of ``seeds`` at the
    matching leaf index of ``leaves``, all delivered in one :meth:`Tree.deliver` call.

    Each receiver corrects with its leaf key's table entry, each read once through
    ``protocol._entries``, but the one starved of the announcement that ``cooperation``
    withholds applies its group's ops from the column ``protocol._heard_ops`` reads once,
    and that column's :meth:`Tree.deprived` gives its expected fidelity.
    """
    withheld = WITHHELD[cooperation]
    keys = list(dict.fromkeys(LEAF_KEYS[leaf] for leaf in leaves))
    entries = dict(zip(keys, _entries([table[key] for key in keys], "key", keys)))
    ops, expected = [list(entries[LEAF_KEYS[leaf]]) for leaf in leaves], [None] * len(leaves)
    if withheld is not None and leaves:
        column, groups = _heard_ops(table, withheld), _GROUPS[withheld][1][leaves].tolist()
        averages = tree.deprived(withheld, column)
        for entry, group in zip(ops, groups):
            entry[DIRECTIONS[withheld].slot] = column[group]
        expected = [averages[group] for group in groups]
    records = []
    for leaf, seed, probs, entry, fidelities, average in zip(leaves, seeds, tree.steps[leaves].tolist(), ops,
                                                             tree.deliver(leaves, ops), expected):
        key = LEAF_KEYS[leaf]
        events = list(_PREAMBLE)
        for round_no, plan in enumerate(MEASUREMENT_PLAN, 1):
            for qubit, basis in plan:
                n = PLAN_QUBITS.index(qubit)
                events.append(Event(round_no + 2, _owner(qubit), "measure", (qubit,), basis, key[n], probs[n]))
            for sender in (ALICE, BOB):
                payload = tuple((q, b, key[PLAN_QUBITS.index(q)]) for q, b in plan
                                if q in OWNED[sender] and q != withheld)
                if payload:
                    events.append(_message(round_no, sender, payload))
        for kind, results in (("correct", entry), ("fidelity", fidelities)):
            events += (Event(4, party, kind, d.labels, outcome=r) for (party, d), r in zip(_RECEIVES.items(), results))
        records.append(SessionResult(Transcript(events), *fidelities, average, leaf,
                                     dict(zip(PLAN_QUBITS, key)), seed, cooperation))
    return records


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

    Returns False if any party touches a qubit it does not own, measures
    anything but one qubit of the plan in the plan's basis, measures a
    qubit twice, records a result outside its basis's alphabet, announces
    a result it did not record (type included) or in another basis than
    the plan's, announces for a foreign qubit or for other qubits than its
    message's ``qubits``, sends messages out of round order, corrects
    before the required round-one announcements arrive, or applies a
    correction that differs from the one its own outcomes plus received
    announcements determine (withheld second-round announcements default
    to "+").  Physics is not re-simulated; the audit is purely structural.
    A malformed event -- not an :class:`Event`, or an actor, kind, label,
    basis or correction that is not a string, a round that is not an int, an
    announcement that is not a sequence of (qubit, basis, result) triples --
    fails it too, as does a missing table key or an entry that is not two
    ops strings, and the audit never raises.
    """
    if table is None:
        table = load_table()
    # one pass: what each party knows so far, its own results plus those announced to it
    known: dict[str, dict[str, int | str]] = {ALICE: {}, BOB: {}}
    last_round = {ALICE: 0, BOB: 0}
    for event in transcript.events:
        if not isinstance(event, Event):
            return False
        actor = event.actor
        if type(actor) is not str or type(event.kind) is not str:
            return False
        if actor not in known:
            if event.kind in ("gate", "measure", "message", "correct"):
                return False  # only parties act; "channel" may only prepare
            continue
        qubits = event.qubits
        if not (isinstance(qubits, (tuple, list)) and all(type(q) is str for q in qubits)
                and OWNED[actor].issuperset(qubits)):
            return False
        mine = known[actor]
        if event.kind == "message":
            if type(event.message_round) is not int or event.message_round <= last_round[actor]:
                return False
            last_round[actor] = event.message_round
            rows = event.outcome
            if not (isinstance(rows, (tuple, list)) and all(
                    isinstance(row, (tuple, list)) and len(row) == 3 and type(row[0]) is str and type(row[1]) is str
                    for row in rows) and tuple(qubits) == tuple(label for label, *_ in rows)):
                return False
            for label, basis, result in rows:
                # typed, since True == 1 == 1.0 but only 1 is a Z result
                if (((label,), basis) not in _MEASURES or label not in mine
                        or type(mine[label]) is not type(result) or mine[label] != result):
                    return False
            known[BOB if actor == ALICE else ALICE].update((label, result) for label, _, result in rows)
        elif event.kind == "measure":
            try:
                if (type(event.basis) is not str or (tuple(qubits), event.basis) not in _MEASURES
                        or qubits[0] in mine or event.outcome not in _alphabet(event.basis, event.outcome)):
                    return False
            except ValueError:
                return False
            mine[qubits[0]] = event.outcome
        elif event.kind == "correct":
            try:
                key = correction_key(mine, OWNED[actor])
                (entry,) = _entries([table[key]], "key", [key])
            except (KeyError, ValueError):
                return False
            if type(event.outcome) is not str or event.outcome != entry[_RECEIVES[actor].slot]:
                return False
    return True
