"""Two-party protocol sessions with auditable transcripts.

Alice owns {a1, a2, a3, A1, A2} and Bob owns {b1, b2, b3, B1, B2}.  A
session performs no protocol step of its own: it encodes with
:func:`bqtsim.protocol.encode` and samples each measurement round with
:func:`bqtsim.protocol.walk_round`, and adds only who did what and who
knows what.  Every gate, measurement, classical announcement, correction,
and final fidelity is recorded as a transcript event.  A session consumes
exactly six uniform draws from its seeded generator, one per measurement,
in ``MEASUREMENT_PLAN`` order.  Trial ``i`` of a run seeded with ``base``
uses seed ``(base + i) mod 2**64`` (:func:`session_seed`).

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
[qubit, basis, result] triples; correct events give the applied ops
string; fidelity events give the measured overlap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .corrections import MEASUREMENT_PLAN, Table, correction_key, leaf_index, load_table
from .protocol import (
    ALICE_INPUT_LABELS,
    ALICE_PAYLOAD_LABELS,
    BOB_INPUT_LABELS,
    BOB_PAYLOAD_LABELS,
    CHANNEL_LABELS,
    DIRECTIONS,
    ENCODING,
    EprInput,
    deliver,
    delivery_targets,
    deprived_fidelities,
    encode,
    prepare_full_state,
    walk_round,
)
from .qsim import Register

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
    "session_seed",
]

ALICE = "Alice"
BOB = "Bob"

OWNED: dict[str, frozenset[str]] = {
    ALICE: frozenset({"a1", "a2", "a3", "A1", "A2"}),
    BOB: frozenset({"b1", "b2", "b3", "B1", "B2"}),
}

COOPERATION_MODES = ("full", "alice_withholds_A1", "bob_withholds_B1")

#: The second-round announcement each withholding mode suppresses.
WITHHELD = {"alice_withholds_A1": "A1", "bob_withholds_B1": "B1"}

TRANSCRIPT_SCHEMA = "bqtsim.transcript/1"


def session_seed(base: int, trial: int = 0) -> int:
    """Seed of session ``trial`` in a run seeded with ``base``: (base + trial) mod 2**64.

    ``base`` must be an integer in [0, 2**64); anything else raises ValueError.
    """
    if not isinstance(base, int) or isinstance(base, bool) or not 0 <= base < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {base!r}")
    return (base + trial) % 2**64


@dataclass(frozen=True)
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
        return {
            "step": self.step,
            "actor": self.actor,
            "kind": self.kind,
            "qubits": list(self.qubits),
            "basis": self.basis,
            "outcome": self.outcome,
            "probability": self.probability,
            "message_round": self.message_round,
        }


@dataclass
class Transcript:
    events: list[Event] = field(default_factory=list)

    def add(self, event: Event) -> None:
        self.events.append(event)

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
            known[_other(event.actor)].update((q, result) for q, _basis, result in event.outcome)
    return known


def _correction(known: dict[str, dict[str, int | str]], actor: str, table: Table) -> str:
    """The ops ``actor`` applies, given what each party knows."""
    return table[correction_key(known[actor], OWNED[actor])][0 if actor == BOB else 1]


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
    """
    session_seed(seed)  # range check
    if cooperation not in COOPERATION_MODES:
        raise ValueError(f"cooperation must be one of {COOPERATION_MODES}")
    if table is None:
        table = load_table()
    rng = np.random.default_rng(seed)
    t = Transcript()
    outcomes: dict[str, int | str] = {}

    t.add(Event(1, "channel", "prepare", CHANNEL_LABELS))
    t.add(Event(1, ALICE, "prepare", ALICE_INPUT_LABELS))
    t.add(Event(1, BOB, "prepare", BOB_INPUT_LABELS))
    state = encode(prepare_full_state(alice_input, bob_input))
    for control, target in ENCODING:
        t.add(Event(2, _owner(control), "gate", (control, target), outcome="CNOT"))

    withheld = WITHHELD.get(cooperation)
    state = _play_round(t, state, 1, outcomes, rng)
    pre_step4 = state  # kept for the counterfactual average under withholding
    state = _play_round(t, state, 2, outcomes, rng, withheld)

    known = _knowledge(t.events)
    bob_ops = _correction(known, BOB, table)
    alice_ops = _correction(known, ALICE, table)
    _, fid_a2b, fid_b2a = deliver(
        state, (bob_ops, alice_ops), delivery_targets(alice_input, bob_input)
    )
    t.add(Event(4, BOB, "correct", BOB_PAYLOAD_LABELS, outcome=bob_ops))
    t.add(Event(4, ALICE, "correct", ALICE_PAYLOAD_LABELS, outcome=alice_ops))
    t.add(Event(4, BOB, "fidelity", BOB_PAYLOAD_LABELS, outcome=fid_a2b))
    t.add(Event(4, ALICE, "fidelity", ALICE_PAYLOAD_LABELS, outcome=fid_b2a))

    key = correction_key(outcomes)
    expected = None
    if withheld is not None:
        # Re-walk round two with only the withheld result left open.
        first_plan, second_plan = MEASUREMENT_PLAN
        pinned = [None if q == withheld else outcomes[q] for q, _ in second_plan]
        leaves = (
            (key[: len(first_plan)] + second, math.prod(probs), payload)
            for second, probs, payload in walk_round(pre_step4, second_plan, pinned)
        )
        sent = (alice_input, bob_input)[DIRECTIONS[withheld].slot]
        ((_, expected),) = deprived_fidelities(leaves, withheld, sent, table)

    return SessionResult(
        transcript=t,
        fidelity_alice_to_bob=fid_a2b,
        fidelity_bob_to_alice=fid_b2a,
        expected_fidelity=expected,
        leaf=leaf_index(*key),
        outcomes=outcomes,
        seed=seed,
        cooperation=cooperation,
    )


def _play_round(
    t: Transcript,
    state: Register,
    round_no: int,
    outcomes: dict[str, int | str],
    rng: np.random.Generator,
    withheld: str | None = None,
) -> Register:
    """Sample one round of the plan into ``outcomes``, then announce it, Alice first."""
    step, plan = round_no + 2, MEASUREMENT_PLAN[round_no - 1]
    ((results, probs, state),) = walk_round(state, plan, rng=rng)
    for (qubit, basis), outcome, prob in zip(plan, results, probs):
        outcomes[qubit] = outcome
        t.add(Event(step, _owner(qubit), "measure", (qubit,), basis=basis,
                    outcome=outcome, probability=prob))
    for sender in (ALICE, BOB):
        payload = [
            [q, basis, outcomes[q]]
            for q, basis in plan
            if q in OWNED[sender] and q != withheld
        ]
        if payload:
            t.add(Event(step, sender, "message", tuple(q for q, *_ in payload),
                        outcome=payload, message_round=round_no))
    return state


def _owner(qubit: str) -> str:
    return ALICE if qubit in OWNED[ALICE] else BOB


def _other(name: str) -> str:
    return BOB if name == ALICE else ALICE


def ownership_check(transcript: Transcript, table: Table | None = None) -> bool:
    """Audit locality and classical information flow of a transcript.

    Returns False if any party touches a qubit it does not own, announces a
    result for a foreign qubit, sends messages out of round order, corrects
    before the required round-one announcements arrive, or applies a
    correction that differs from the one its own outcomes plus received
    announcements determine (withheld second-round announcements default to
    "+").  Physics is not re-simulated; the audit is purely structural.
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
        qubits = set(event.qubits)
        if event.kind in ("prepare", "gate", "measure", "correct") and not qubits <= OWNED[actor]:
            return False
        if event.kind == "message":
            if event.message_round is None or event.message_round <= last_round[actor]:
                return False
            last_round[actor] = event.message_round
            if not qubits <= OWNED[actor]:
                return False
            known = _knowledge(events[:n])[actor]
            for label, _basis, outcome in event.outcome:
                if label not in OWNED[actor] or known.get(label) != outcome:
                    return False
        elif event.kind == "correct":
            try:
                expected = _correction(_knowledge(events[:n]), actor, table)
            except KeyError:
                return False
            if event.outcome != expected:
                return False
    return True
