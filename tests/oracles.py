"""Written-out per-row oracles of the protocol's batched walk and row kernel.

``bqtsim.protocol`` walks all open branches of a step in one array and
corrects and scores many leaves in one call of its row kernel
(``Tree.deliver``, ``Tree.deprived``, ``noncooperation_fidelity``), with
every reduction batched over the rows.  A ``Tree`` holds its leaves as
arrays indexed by leaf index; ``tree_leaves`` reads them back as one
register per leaf, ``weighted`` gives each leaf its probability with
``math.prod``, and ``targets`` writes each input on its receiver's payload
labels with ``EprInput.register``.  These oracles do the same one row or
one register at a time:

- ``walk_round`` splits each level in one batch but takes every row's Born
  probabilities and collapse through ``qsim._born`` and ``qsim._collapse``;
- ``correct_rows`` applies each row's gates in turn, dividing by the row's
  own ``np.linalg.norm`` after each;
- ``deliver`` and ``deprived_fidelities`` go through the public gate path
  -- ``corrections.apply_ops``, ``qsim.reduced_density`` and
  ``qsim.fidelity_pure`` -- and read the heard key straight from the
  outcomes, and its entry from the table leaf by leaf, where
  ``Tree.deprived`` takes the whole column (``protocol._heard_ops``) at once.

They share no reduction with the batched code, so the tests compare the two
exactly: by bytes where the arithmetic is the same, and by ``==`` against
the public gate path, whose matrix products may turn a negated zero into
``0.0``.

``walk_round`` also gives the event-by-event session oracle of
``tests/test_parties.py`` its Born probabilities and its round-two
leaves, so sessions, which pick against their tree's step probabilities,
are never checked against the tree they draw on, nor against its kernel.
``draw_leaf`` is the scalar pick rule that sessions drew with before
``parties._draw_leaves`` picked every session's leaf: one
``rng.random()`` per step, picked with ``qsim._pick``.

``fast_walk`` is no oracle: it reads ``protocol._walk_rows`` of one
register back as ``walk_round``'s leaves, for the tests of that kernel
itself, which check it against ``qsim.measure`` or published literals.

``ownership_check`` is the transcript audit that the one-pass audit of
``bqtsim.parties`` replaced: at every message and correction it rebuilds
what each party knows from the whole event prefix (``_knowledge``) and
derives the correction from that (``_correction``).  The event-by-event
session oracle of ``tests/test_parties.py`` derives its corrections with
the same two helpers.

``engine_properties`` is the ``engine-properties`` criterion's case-by-case
loop, one public ``qsim`` call per gate, measurement and partial trace; the
criterion batches its cases by qubit count and must match it to the bit.
``entanglement_swap`` swaps one channel pair at a time, one register and one
``_collapse`` per outcome, as ``bqtsim.ghz.entanglement_swap`` did before it
became the one-row form of ``ghz._swap_rows``; ``swap_exhaustive`` is the
``swap-exhaustive`` criterion's pair-by-pair loop over it.
``equal_up_to_global_phase`` compares two registers up to a global phase,
and ``of_kind`` lists a transcript's events of one kind.
"""

import itertools
import math

import numpy as np

from bqtsim import ghz, qsim
from bqtsim.corrections import LEAF_KEYS, MEASUREMENT_PLAN, PLAN_QUBITS, apply_ops, correction_key, load_table, parse_ops
from bqtsim.ghz import GHZ_OUTCOMES, SwapOutcome
from bqtsim.parties import ALICE, BOB, OWNED, _BITS, _MEASURES, _RECEIVES
from bqtsim.protocol import ALICE_PAYLOAD_LABELS, BOB_PAYLOAD_LABELS, PAYLOAD_LABELS, _walk_rows
from bqtsim.qsim import (
    ATOL,
    DensityMatrix,
    Register,
    _alphabet,
    _born,
    _branch_rows,
    _collapse,
    _front,
    _pick,
    apply_cnot,
    apply_gate1,
    fidelity_pure,
    measure,
    outcome_probabilities,
    permute,
    reduced_density,
    tensor,
)

#: Each withholdable announcement: the payload labels it starves and their table column.
STARVES = {"A1": (BOB_PAYLOAD_LABELS, 0), "B1": (ALICE_PAYLOAD_LABELS, 1)}


def tree_leaves(tree):
    """{outcomes: (step probabilities, payload register)} of every leaf of ``tree``, in leaf
    order, read from ``Tree.steps`` and ``Tree.payloads``: each payload a read-only register
    over PAYLOAD_LABELS viewing a copy of its row."""
    payloads = Register._rows(PAYLOAD_LABELS, tree.payloads)
    return dict(zip(LEAF_KEYS, zip(map(tuple, tree.steps.tolist()), payloads)))


def fast_walk(state, plan):
    """Every leaf (outcomes, step probabilities, register) of ``protocol._walk_rows`` of the one row
    ``state``, 0/"+" first at every step: the kernel under test, never an oracle."""
    labels, rows, probs = _walk_rows(state.labels, state.amps[None], plan)
    outcomes = itertools.product(*(_alphabet(basis) for _, basis in plan))
    return list(zip(outcomes, map(tuple, probs.tolist()), Register._rows(labels, rows)))


def weighted(leaves, round_one=True):
    """Each leaf of ``tree_leaves`` as (outcomes, weight, payload): its probability, round one's
    ``math.prod`` times round two's, or round two's ``math.prod`` alone."""
    split = len(MEASUREMENT_PLAN[0])
    return [
        (outcomes, (math.prod(probs[:split]) if round_one else 1.0) * math.prod(probs[split:]), payload)
        for outcomes, (probs, payload) in leaves.items()
    ]


def targets(tree):
    """Each input of ``tree`` on its receiver's payload labels, by direction slot, as registers."""
    alice, bob = tree.inputs
    return alice.register(BOB_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS)


def walk_round(state, plan):
    """Every leaf (outcomes, step probabilities, register) of ``plan``, collapsed row by row."""
    level = [((), (), state)]  # (outcomes, step probabilities, register) per open branch
    for qubit, basis in plan:
        labels, alphabet = level[0][2].labels, _alphabet(basis)
        rows = np.stack([reg.amps for _, _, reg in level])
        splits = _branch_rows(rows, labels, qubit, basis)  # (n, 2, rest): each row's two branches
        children = []
        for (outcomes, probs, _), branches in zip(level, splits):
            born = _born(branches)
            for pick in alphabet:
                res = _collapse(labels, (qubit,), branches, born, alphabet, pick)
                children.append((outcomes + (res.outcome,), probs + (res.probability,), res.register))
        level = children
    return level


def draw_leaf(tree, rng):
    """The leaf index one session reaches: one ``rng.random()`` per step, picked
    between its two outcomes with ``qsim._pick``, :func:`qsim.measure`'s rule."""
    leaf = 0
    for k, bit in enumerate(_BITS):
        leaf |= bit * _pick((tree.steps[leaf, k], tree.steps[leaf | bit, k]), rng.random())
    return leaf


def correct_rows(rows, labels, ops):
    """Row ``r`` of ``rows`` (16 amplitudes in PAYLOAD_LABELS order) corrected with ``ops[r]``,
    one ops string per qubit pair of ``labels``, as ``(n, 4, 4)``.

    Within a factor the gates run reversed ("XZ" is Z, then X) and "I" is
    none.  X on a qubit reorders the row by index xor the qubit's bit, Z
    multiplies it by -1 where the bit is set and by 1 elsewhere, and after
    each gate the row is divided by ``float(np.linalg.norm(row))``.
    """
    fixed = np.empty_like(rows)
    for r, row_ops in enumerate(ops):
        row = rows[r]
        for qubits, pair in zip(labels, row_ops, strict=True):
            for q, factor in zip(qubits, parse_ops(pair), strict=True):
                bit = 8 >> PAYLOAD_LABELS.index(q)
                for gate in reversed(factor.replace("I", "")):
                    if gate == "X":
                        row = row[np.arange(16) ^ bit]
                    else:
                        row = row * np.where(np.arange(16) & bit, -1.0, 1.0)
                    row = row / float(np.linalg.norm(row))
        fixed[r] = row
    return fixed.reshape(-1, 4, 4)


def deliver(payload, ops, targets):
    """(corrected payload, a->b fidelity, b->a fidelity) for the table entry ``ops``.

    Bob's ops act on (b1, b2) first, then Alice's on (a2, a3); each
    corrected half is scored against its entry of ``targets``.
    """
    payload = apply_ops(payload, BOB_PAYLOAD_LABELS, ops[0])
    payload = apply_ops(payload, ALICE_PAYLOAD_LABELS, ops[1])
    to_bob, to_alice = (
        fidelity_pure(reduced_density(payload, labels), target)
        for labels, target in zip((BOB_PAYLOAD_LABELS, ALICE_PAYLOAD_LABELS), targets)
    )
    return payload, to_bob, to_alice


def heard(outcomes, withheld):
    """The table key of the receiver that never hears ``withheld``: that result read as "+"."""
    return tuple("+" if q == withheld else o for q, o in zip(PLAN_QUBITS, outcomes))


def deprived_fidelities(leaves, withheld, target, table):
    """{heard key: (total weight, fidelity of the weighted mixture)}, in first-seen order.

    ``leaves`` gives (outcomes in plan order, weight, payload); each leaf is
    corrected with the column of the key its deprived receiver heard.
    """
    labels, slot = STARVES[withheld]
    groups = {}
    for outcomes, weight, payload in leaves:
        key = heard(outcomes, withheld)
        fixed = apply_ops(payload, labels, table[key][slot])
        group = groups.setdefault(key, [0.0, np.zeros((4, 4), dtype=complex)])
        group[1] += weight * reduced_density(fixed, labels).mat
        group[0] += weight
    return {
        key: (total, fidelity_pure(DensityMatrix(labels, mixed / total), target))
        for key, (total, mixed) in groups.items()
    }


def entanglement_swap(i, j):
    """``bqtsim.ghz.entanglement_swap`` one register and one outcome at a time: ``tensor`` of the
    two triples, ``_born`` of their GHZ branches (``ghz_basis_measure``'s product), ``_collapse``
    forced to each outcome at or above ``qsim.MIN_FORCE_PROB`` and ``_equal_up_to_phase``
    against each basis row.  The floor and the basis rows, ``ghz._BASIS``, are read at call
    time, so tests can patch in other unit rows; each triple's register holds its row's bytes."""
    basis = ghz._BASIS
    first, second = (Register._rows(labels, basis[[k]])[0] for k, labels in ((i, tuple("123")), (j, tuple("456"))))
    reg = tensor(first, second)
    triple = ("1", "3", "5")
    branches = basis.conj() @ _front(reg, triple)
    probs = _born(branches)
    outcomes = []
    for k in GHZ_OUTCOMES:
        if probs[k] < qsim.MIN_FORCE_PROB:
            continue
        _, prob, remainder = _collapse(reg.labels, triple, branches, probs, GHZ_OUTCOMES, force=k)
        matched = next(
            (m for m in GHZ_OUTCOMES
             if _equal_up_to_phase(remainder.amps, basis[m], tol=1e-10)),
            None,
        )
        outcomes.append(SwapOutcome(k, prob, remainder, matched))
    return outcomes


def swap_exhaustive(swap=entanglement_swap):
    """The ``swap-exhaustive`` criterion's pair-by-pair loop over ``swap(i, j)``: (passed, detail)."""
    for i in range(8):
        for j in range(8):
            outcomes = swap(i, j)
            if len(outcomes) != 4:
                return False, f"channel ({i},{j}) produced {len(outcomes)} outcomes"
            for o in outcomes:
                if abs(o.probability - 0.25) > ATOL or o.matched is None:
                    return False, f"channel ({i},{j}) outcome {o.outcome} failed"
    return True, "64 channel pairs, 4 outcomes each at 1/4, all remainders classified"


def _equal_up_to_phase(first, other, tol):
    """Whether two amplitude vectors in the same qubit order differ only by a global phase.

    The phase is read off at ``first``'s largest-magnitude amplitude, then
    the full vectors are compared within ``tol``.
    """
    k = int(np.argmax(np.abs(first)))
    if abs(other[k]) < 1e-12:
        return False
    phase = first[k] * np.conj(other[k])
    phase /= abs(phase)
    return bool(np.linalg.norm(first - phase * other) <= tol)


def equal_up_to_global_phase(first, second, tol=1e-10):
    """Whether the two states differ only by a global phase.

    The phase is read off at ``first``'s largest-magnitude amplitude, then
    the full vectors are compared within ``tol``.
    """
    if sorted(first.labels) != sorted(second.labels):
        raise ValueError(
            f"label mismatch: {sorted(first.labels)} vs {sorted(second.labels)}"
        )
    return _equal_up_to_phase(first.amps, permute(second, first.labels).amps, tol)


def of_kind(transcript, kind, actor=None):
    """The events of ``transcript`` of one kind, and of one actor if given, in order."""
    return [e for e in transcript.events if e.kind == kind and (actor is None or e.actor == actor)]


def _knowledge(events):
    """What each party knows after ``events``: its own measurement results
    plus every result announced to it, as qubit -> result."""
    known = {ALICE: {}, BOB: {}}
    for event in events:
        if event.actor not in known:
            continue
        if event.kind == "measure":
            known[event.actor][event.qubits[0]] = event.outcome
        elif event.kind == "message":
            known[BOB if event.actor == ALICE else ALICE].update((q, result) for q, _basis, result in event.outcome)
    return known


def _correction(known, actor, table):
    """The ops ``actor`` applies, given what each party knows."""
    return table[correction_key(known[actor], OWNED[actor])][_RECEIVES[actor].slot]


def ownership_check(transcript, table=None):
    """The prefix-replay audit: ``bqtsim.parties.ownership_check`` as it was
    before it kept a running record, with the knowledge at each message and
    correction rebuilt from ``events[:n]``.  It accepts a repeated
    measurement, and some wrongly typed fields raise or pass here."""
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
        qubits = event.qubits
        if not (isinstance(qubits, (tuple, list)) and all(type(q) is str for q in qubits)
                and OWNED[actor].issuperset(qubits)):
            return False
        if event.kind == "message":
            if type(event.message_round) is not int or event.message_round <= last_round[actor]:
                return False
            last_round[actor] = event.message_round
            # typed, since True == 1 == 1.0 but only 1 is a Z result
            recorded = {q: (type(r), r) for q, r in _knowledge(events[:n])[actor].items()}
            if not isinstance(event.outcome, (tuple, list)) or any(
                    not isinstance(row, (tuple, list)) or len(row) != 3 for row in event.outcome):
                return False
            if tuple(qubits) != tuple(label for label, *_ in event.outcome):
                return False
            for label, basis, outcome in event.outcome:
                if (label not in OWNED[actor] or ((label,), basis) not in _MEASURES
                        or recorded.get(label) != (type(outcome), outcome)):
                    return False
        elif event.kind == "measure":
            try:
                if ((tuple(qubits), event.basis) not in _MEASURES
                        or event.outcome not in _alphabet(event.basis, event.outcome)):
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


def _random_register(rng, n, prefix="q"):
    n = int(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Register(tuple(f"{prefix}{k}" for k in range(n)), vec)


def engine_properties(seed, cases=1000):
    """Each property's worst deviation, (gates, Born rule, partial trace), case by case.

    ``criterion_engine_properties`` as a loop over its cases: the same draws
    from ``np.random.default_rng(seed)``, in the same order, with one public
    ``qsim`` call per gate, measurement and partial trace.
    """
    rng = np.random.default_rng(seed)
    worsts = []
    worst = 0.0
    # norm preservation and involutions under random gate words
    for _ in range(cases):
        reg = _random_register(rng, rng.integers(1, 7))
        q = reg.labels[rng.integers(0, reg.n_qubits)]
        gate = ("X", "Z", "H")[rng.integers(0, 3)]
        once = apply_gate1(reg, q, gate)
        twice = apply_gate1(once, q, gate)
        worst = max(worst, abs(np.linalg.norm(once.amps) - 1.0))
        worst = max(worst, float(np.max(np.abs(twice.amps - reg.amps))))
        if reg.n_qubits >= 2:
            r = reg.labels[(reg.axis(q) + 1) % reg.n_qubits]
            flipped = apply_cnot(reg, q, r)
            worst = max(worst, abs(np.linalg.norm(flipped.amps) - 1.0))
            worst = max(
                worst, float(np.max(np.abs(apply_cnot(flipped, q, r).amps - reg.amps)))
            )
    worsts.append(worst)
    worst = 0.0
    # Born completeness and forced/sampled agreement
    for _ in range(cases):
        reg = _random_register(rng, rng.integers(1, 7))
        q = reg.labels[rng.integers(0, reg.n_qubits)]
        basis = "ZX"[rng.integers(0, 2)]
        p0, p1 = outcome_probabilities(reg, q, basis)
        worst = max(worst, abs(p0 + p1 - 1.0))
        sampled = measure(reg, q, basis, rng=rng)
        forced = measure(reg, q, basis, force=sampled.outcome)
        worst = max(worst, abs(sampled.probability - forced.probability))
        worst = max(
            worst, float(np.max(np.abs(sampled.register.amps - forced.register.amps)))
        )
        worst = max(worst, abs(np.linalg.norm(sampled.register.amps) - 1.0))
    worsts.append(worst)
    worst = 0.0
    # product-state partial trace is pure
    for _ in range(cases):
        left = _random_register(rng, rng.integers(1, 4), prefix="l")
        right = _random_register(rng, rng.integers(1, 4), prefix="r")
        rho = reduced_density(tensor(left, right), left.labels)
        worst = max(worst, abs(rho.purity() - 1.0))
    worsts.append(worst)
    return tuple(float(w) for w in worsts)
