"""Session, transcript, and ownership-audit tests.

The audit negatives are built by hand-editing honest transcripts: every
tampering mode the audit claims to catch gets a concrete forged transcript
here.
"""

import json
import math
from dataclasses import FrozenInstanceError, replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from bqtsim._draws import uniforms
from bqtsim.corrections import FRAME, LEAF_KEYS, MEASUREMENT_PLAN, OUTCOMES, PLAN_QUBITS, leaf_index, load_table
from bqtsim.parties import (
    ALICE,
    BOB,
    COOPERATION_MODES,
    OWNED,
    TRANSCRIPT_SCHEMA,
    WITHHELD,
    Event,
    SessionResult,
    Transcript,
    _draw_leaf,
    _draw_leaves,
    _input_bits,
    _owner,
    _records,
    _session_tree,
    ownership_check,
    run_session,
    run_sessions,
    session_seed,
)
from bqtsim.protocol import (
    ALICE_INPUT_LABELS,
    ALICE_PAYLOAD_LABELS,
    BOB_INPUT_LABELS,
    BOB_PAYLOAD_LABELS,
    CHANNEL_LABELS,
    DIRECTIONS,
    ENCODING,
    FIDELITY_FLOOR,
    EprInput,
    Tree,
    _HEARD,
    _deliver as deliver_rows,
    encode,
    enumerate_branches,
    prepare_full_state,
    walk_round,
)
from bqtsim.qsim import _pick, measure
import oracles
from oracles import _correction, _knowledge, deliver, deprived_fidelities, of_kind, walk_round as per_row_walk

ALPHA = EprInput(0.6, 0.8)
BETA = EprInput.normalized(1, 1)


@pytest.fixture(scope="module")
def session():
    return run_session(ALPHA, BETA, seed=2024)


def _edit(transcript, index, **changes):
    events = list(transcript.events)
    events[index] = replace(events[index], **changes)
    return Transcript(events)


def _drop(transcript, index):
    events = list(transcript.events)
    del events[index]
    return Transcript(events)


# ---------------------------------------------------------------------------
# deterministic replay
# ---------------------------------------------------------------------------

def test_replay_is_byte_identical():
    first = run_session(ALPHA, BETA, seed=99)
    second = run_session(ALPHA, BETA, seed=99)
    assert first.transcript.to_json() == second.transcript.to_json()
    assert first.leaf == second.leaf
    assert first.outcomes == second.outcomes


def test_different_seeds_diverge():
    transcripts = {
        run_session(ALPHA, BETA, seed=s).transcript.to_json() for s in range(8)
    }
    assert len(transcripts) > 1


def test_seed_validation():
    for bad in (-1, 2**64, True, 1.0, "7"):
        with pytest.raises(ValueError):
            run_session(ALPHA, BETA, seed=bad)


def test_session_seed_wraps_past_2_64():
    assert [session_seed(2**64 - 2, i) for i in range(4)] == [2**64 - 2, 2**64 - 1, 0, 1]


@pytest.mark.parametrize("trial", [2.5, -5, True, False, 1.0, "1", None, np.int64(3)], ids=repr)
def test_session_seed_rejects_a_trial_that_is_not_a_count(trial):
    with pytest.raises(ValueError, match="trial"):
        session_seed(5, trial)


def test_cooperation_validation():
    with pytest.raises(ValueError, match="cooperation"):
        run_session(ALPHA, BETA, seed=0, cooperation="partial")


#: Seeds for the direct-measurement replay: both ends of the seed range plus
#: an arbitrary spread in between.
ORACLE_SEEDS = (
    0, 1, 2, 3, 7, 42, 99, 2024, 0xB97, 65535, 2**31 - 1, 2**31, 2**32 + 5,
    123456789, 987654321012, 2**53 + 1, 2**63, 2**64 - 4097, 2**64 - 2, 2**64 - 1,
)


@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_session_draws_match_direct_measure_replay(cooperation):
    # oracle: six direct qsim.measure calls in plan order on the same seed,
    # then the correction and the deprived average computed from that replay
    alice, bob = ALPHA, EprInput(0.8, complex(0.36, 0.48))
    table = load_table()
    withheld = WITHHELD.get(cooperation)
    to_bob_target = alice.register(BOB_PAYLOAD_LABELS)
    to_alice_target = bob.register(ALICE_PAYLOAD_LABELS)
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(seed)
        state, outcomes, probs = encode(prepare_full_state(alice, bob)), {}, []
        for n, (qubit, basis) in enumerate(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]):
            if n == len(MEASUREMENT_PLAN[0]):
                before_round_two = state
            res = measure(state, qubit, basis, rng=rng)
            state, outcomes[qubit] = res.register, res.outcome
            probs.append(res.probability)
        result = run_session(alice, bob, seed, cooperation)
        assert result.outcomes == outcomes
        assert result.leaf == leaf_index(*outcomes.values())
        assert [e.probability for e in of_kind(result.transcript, "measure")] == probs

        ops = tuple(e.outcome for e in of_kind(result.transcript, "correct"))
        _, to_bob, to_alice = deliver(state, ops, (to_bob_target, to_alice_target))
        assert result.fidelity_alice_to_bob == to_bob
        assert result.fidelity_bob_to_alice == to_alice
        if withheld is None:
            assert result.expected_fidelity is None
            continue
        first = tuple(outcomes[q] for q, _ in MEASUREMENT_PLAN[0])
        pinned = [None if q == withheld else outcomes[q] for q, _ in MEASUREMENT_PLAN[1]]
        leaves = (
            (first + second, math.prod(step), payload)
            for second, step, payload in walk_round(before_round_two, MEASUREMENT_PLAN[1])
            if all(p is None or p == o for p, o in zip(pinned, second))
        )
        target = {"A1": to_bob_target, "B1": to_alice_target}[withheld]
        ((_, expected),) = deprived_fidelities(leaves, withheld, target, table).values()
        assert result.expected_fidelity == expected


def _fingerprint(result):
    return (
        result.transcript.to_json(),
        result.fidelity_alice_to_bob.hex(),
        result.fidelity_bob_to_alice.hex(),
        None if result.expected_fidelity is None else result.expected_fidelity.hex(),
        result.leaf,
        result.outcomes,
    )


@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_cold_session_equals_the_same_seed_after_warm_sessions(cooperation):
    alice, bob = EprInput.normalized(0.3 - 0.2j, 1.1j), EprInput.normalized(0.7, -0.4 + 0.5j)
    _session_tree.cache_clear()
    cold = _fingerprint(run_session(alice, bob, 77, cooperation))
    for i in range(4096):
        run_session(alice, bob, session_seed(5000, i), cooperation)
    assert _fingerprint(run_session(alice, bob, 77, cooperation)) == cold


def _born(alice, bob):
    """Outcomes so far -> Born probability of each next outcome, in alphabet order, from the
    per-row walk of ``tests/oracles.py`` (``qsim._born`` row by row), not from a tree."""
    born = {}
    plan = MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]
    for outcomes, probs, _ in per_row_walk(encode(prepare_full_state(alice, bob)), plan):
        for k, prob in enumerate(probs):
            born.setdefault(outcomes[:k], {})[outcomes[k]] = prob
    return {prefix: list(b.values()) for prefix, b in born.items()}


def _play_round(events, born, round_no, outcomes, rng, withheld=None):
    """Draw one round of the plan against ``born`` into ``outcomes``, one
    measure event per draw, then announce it, Alice first."""
    step, plan = round_no + 2, MEASUREMENT_PLAN[round_no - 1]
    for qubit, basis in plan:
        probs = born[tuple(outcomes.values())]
        pick = _pick(probs, rng.random())
        outcome = outcomes[qubit] = OUTCOMES[basis][pick]
        events.append(Event(step, _owner(qubit), "measure", (qubit,), basis=basis,
                            outcome=outcome, probability=probs[pick]))
    for sender in (ALICE, BOB):
        payload = [[q, basis, outcomes[q]] for q, basis in plan if q in OWNED[sender] and q != withheld]
        if payload:
            events.append(Event(step, sender, "message", tuple(q for q, *_ in payload),
                                outcome=payload, message_round=round_no))


def _oracle_session(tree, born, seed, cooperation, table):
    """One session built event by event, its draws against ``born`` (:func:`_born`)
    and its fidelities from ``tree``, each correction derived from what its party
    knows (``oracles._knowledge``, ``oracles._correction``): the builder that
    the per-leaf records replaced."""
    rng = np.random.default_rng(seed)
    events = [
        Event(1, "channel", "prepare", CHANNEL_LABELS),
        Event(1, ALICE, "prepare", ALICE_INPUT_LABELS),
        Event(1, BOB, "prepare", BOB_INPUT_LABELS),
    ]
    events += [Event(2, _owner(control), "gate", (control, target), outcome="CNOT")
               for control, target in ENCODING]
    outcomes = {}
    withheld = WITHHELD[cooperation]
    _play_round(events, born, 1, outcomes, rng)
    _play_round(events, born, 2, outcomes, rng, withheld)
    key = tuple(outcomes.values())
    known = _knowledge(events)
    ops = tuple(_correction(known, party, table) for party in (BOB, ALICE))
    fidelities = tree.deliver([leaf_index(*key)], [ops])[0]
    for kind, results in (("correct", ops), ("fidelity", fidelities)):
        for party, d, result in zip((BOB, ALICE), DIRECTIONS.values(), results):
            events.append(Event(4, party, kind, d.labels, outcome=result))
    expected = None if withheld is None else tree.deprived(leaf_index(*key), withheld, table)
    return SessionResult(Transcript(events), *fidelities, expected, leaf_index(*key), outcomes,
                         seed, cooperation)


def _fields(result):
    """Every field of a result: floats by their bits, the transcript by its text, outcomes typed."""
    return (
        json.dumps(result.transcript.to_json_obj(), sort_keys=True),
        *_fingerprint(result)[1:5],
        repr(result.outcomes),
        result.seed,
        result.cooperation,
    )


@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_memoised_sessions_equal_the_event_by_event_builder(cooperation):
    alice, bob = EprInput.normalized(0.3 - 0.2j, 1.1j), EprInput.normalized(0.7, -0.4 + 0.5j)
    oracle_tree = Tree(alice, bob)  # its own tree, so no state is shared with the sessions
    born = _born(alice, bob)
    packaged = load_table()
    plain = dict(packaged)
    keys = list(plain)
    legal = sorted(set(FRAME.values()) | {"IZ", "ZZ", "XZX"})
    _session_tree.cache_clear()
    edited_results = 0
    for seed in range(1200):
        if seed % 40 == 39:  # edit the plain table between calls
            plain[keys[seed * 7 % 64]] = (legal[seed % len(legal)], legal[(seed // 7) % len(legal)])
        results = []
        for table in (packaged, plain):
            want = _fields(_oracle_session(oracle_tree, born, seed, cooperation, table))
            got = _fields(run_session(alice, bob, seed, cooperation, table))
            assert got == want, (seed, table is plain)
            results.append(got)
        edited_results += results[0] != results[1]
    assert edited_results > 50  # the edits reached the sessions


def test_a_mutated_result_cannot_reach_a_later_session_at_its_leaf():
    first = run_session(ALPHA, BETA, seed=3)
    want = _fields(first)
    first.outcomes["a1"] = 1 - first.outcomes["a1"]
    first.outcomes["extra"] = 0
    again = run_session(ALPHA, BETA, seed=3)
    assert again.transcript is not first.transcript  # each call builds its own record
    assert again.outcomes is not first.outcomes
    assert _fields(again) == want


def test_a_shared_transcript_cannot_be_edited_in_place():
    transcript = run_session(ALPHA, BETA, seed=3).transcript
    text = transcript.to_json()
    assert isinstance(transcript.events, tuple)
    assert not hasattr(transcript, "add")
    with pytest.raises(TypeError):
        transcript.events[0] = transcript.events[1]
    with pytest.raises(FrozenInstanceError):
        transcript.events = ()
    for message in of_kind(transcript, "message"):
        assert isinstance(message.outcome, tuple)
        assert all(isinstance(row, tuple) for row in message.outcome)
        with pytest.raises(TypeError):
            message.outcome[0][2] = "-"
    # forgeries copy the events and leave the shared transcript alone
    forged = _edit(transcript, _index_of(transcript, "correct", BOB), outcome="XX")
    assert forged.events is not transcript.events
    assert run_session(ALPHA, BETA, seed=3).transcript.to_json() == transcript.to_json() == text


def test_rebinding_a_returned_payload_leaves_sessions_unchanged():
    # enumerate_branches builds its own tree: rebinding the amplitudes of the
    # payloads it returns must not reach the tree that sessions cache
    alice, bob = EprInput.normalized(0.9, 0.2 - 0.4j), EprInput.normalized(-0.5j, 0.7)
    seeds = [(seed, mode) for seed in range(48) for mode in COOPERATION_MODES]
    _session_tree.cache_clear()
    cold = [_fingerprint(run_session(alice, bob, seed, mode)) for seed, mode in seeds]
    _session_tree.cache_clear()
    run_session(alice, bob, 0)
    for leaf in enumerate_branches(alice, bob):
        leaf.post_state.amps = np.eye(16, dtype=complex)[0]
    assert [_fingerprint(run_session(alice, bob, seed, mode)) for seed, mode in seeds] == cold


def test_leaves_with_the_same_round_one_results_share_its_announcements():
    table = load_table()
    first_round = (0, "-", 1, "+")
    records = [
        _records(Tree(*pair), [leaf_index(*first_round, *second)], [0], cooperation, table)[0]
        for pair, second, cooperation in (
            ((ALPHA, BETA), ("+", "+"), "full"),
            ((ALPHA, BETA), ("-", "+"), "alice_withholds_A1"),
            ((BETA, ALPHA), ("-", "-"), "bob_withholds_B1"),
        )
    ]
    messages = [of_kind(record.transcript, "message") for record in records]
    for other in messages[1:]:
        assert [e for e in other if e.message_round == 1] == messages[0][:2]
        assert all(a is b for a, b in zip(other[:2], messages[0][:2]))
    # so is Bob's B1 = "+", whether or not Alice withholds A1
    assert messages[1][2] is messages[0][3]


def test_editing_a_plain_table_changes_the_next_correction():
    table = dict(load_table())
    first = run_session(ALPHA, BETA, seed=3, table=table)
    key = tuple(first.outcomes[q] for q in PLAN_QUBITS)
    bob_ops, alice_ops = table[key]
    edited = "XX" if bob_ops != "XX" else "ZZ"
    table[key] = (edited, alice_ops)
    second = run_session(ALPHA, BETA, seed=3, table=table)
    assert [e.outcome for e in of_kind(second.transcript, "correct")] == [edited, alice_ops]
    assert [e.outcome for e in of_kind(first.transcript, "correct")] == [bob_ops, alice_ops]
    assert second.fidelity_alice_to_bob < FIDELITY_FLOOR
    assert second.fidelity_bob_to_alice == first.fidelity_bob_to_alice


def test_editing_a_plain_table_changes_the_next_deprived_average():
    table = dict(load_table())
    mode = "alice_withholds_A1"
    first = run_session(ALPHA, BETA, seed=3, cooperation=mode, table=table)
    # Bob never hears A1, so he corrects with the key that reads it as "+"
    heard = tuple("+" if q == "A1" else first.outcomes[q] for q in PLAN_QUBITS)
    bob_ops, alice_ops = table[heard]
    table[heard] = ("XX" if bob_ops != "XX" else "ZZ", alice_ops)
    second = run_session(ALPHA, BETA, seed=3, cooperation=mode, table=table)
    assert second.expected_fidelity != first.expected_fidelity
    _session_tree.cache_clear()
    fresh = run_session(ALPHA, BETA, seed=3, cooperation=mode, table=table)
    assert fresh.expected_fidelity.hex() == second.expected_fidelity.hex()


@pytest.mark.parametrize("entry", [("II",), ("II", "II", "XZ"), "IZ", ("II", None)], ids=repr)
@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_a_session_refuses_an_entry_that_is_not_two_strings(cooperation, entry):
    # each receiver's entry, the leaf's key or the heard key of a starved one,
    # raises one ValueError naming it: not an IndexError, nor the first two of three strings
    leaf = run_session(ALPHA, BETA, seed=11, cooperation=cooperation).leaf
    withheld = WITHHELD[cooperation]
    for w in DIRECTIONS:
        key = _HEARD[w][leaf] if w == withheld else LEAF_KEYS[leaf]
        table = dict(load_table())
        table[key] = entry
        for call in (lambda: run_session(ALPHA, BETA, 11, cooperation, table),
                     lambda: run_sessions(ALPHA, BETA, 11, 1, cooperation, table)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == f"correction table entry {entry!r} for key {key!r} is not two ops strings"
    listed = {key: list(ops) for key, ops in load_table().items()}
    assert _fields(run_session(ALPHA, BETA, 11, cooperation, listed)) == _fields(run_session(ALPHA, BETA, 11, cooperation))


@pytest.mark.parametrize("order", ["A1 first", "B1 first"])
def test_both_deprived_receivers_keep_their_own_averages_on_one_tree(order):
    # Below the worked branch (0, +, 0, +), leaf (.., +, +) and its neighbours
    # give both deprived receivers the heard key (0, +, 0, +, +, +) with the
    # same ops "II", yet their averages differ: 0.5392 for ALPHA, 0.5 for BETA.
    modes = ["alice_withholds_A1", "bob_withholds_B1"]
    if order == "B1 first":
        modes.reverse()
    _session_tree.cache_clear()
    by_leaf = {}
    for seed in range(1024):
        by_leaf.setdefault(run_session(ALPHA, BETA, seed).leaf, []).append(seed)
    seeds = [seed for leaf in range(4) for seed in by_leaf[leaf][:2]]
    fresh = {}
    for seed in seeds:
        for mode in modes:
            _session_tree.cache_clear()
            fresh[seed, mode] = run_session(ALPHA, BETA, seed, mode).expected_fidelity.hex()
    _session_tree.cache_clear()
    for seed in seeds:
        for mode in modes:
            assert run_session(ALPHA, BETA, seed, mode).expected_fidelity.hex() == fresh[seed, mode]
    assert all(fresh[seed, modes[0]] != fresh[seed, modes[1]] for seed in seeds)


@pytest.fixture(scope="module")
def transcripts_by_leaf():
    """(mode, table kind) -> leaf -> {compact transcript text: transcript}, over 2048 seeds."""
    alice, bob = EprInput.normalized(0.3 - 0.2j, 1.1j), EprInput.normalized(0.7, -0.4 + 0.5j)
    packaged = load_table()
    found = {}
    for mode in COOPERATION_MODES:
        for kind, table in (("packaged", packaged), ("plain dict", dict(packaged))):
            by_leaf = found[mode, kind] = {}
            for seed in range(2048):
                r = run_session(alice, bob, seed, mode, table)
                text = json.dumps(r.transcript.to_json_obj(), sort_keys=True)
                by_leaf.setdefault(r.leaf, {})[text] = r.transcript
    return found


@pytest.mark.parametrize("kind", ["packaged", "plain dict"])
@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_one_mode_and_table_give_each_leaf_one_transcript(transcripts_by_leaf, cooperation, kind):
    # what lets `bqtsim run` share one rendered transcript per leaf
    by_leaf = transcripts_by_leaf[cooperation, kind]
    assert sorted(by_leaf) == list(range(64))
    assert all(len(texts) == 1 for texts in by_leaf.values())
    assert all(ownership_check(t) for texts in by_leaf.values() for t in texts.values())


def test_modes_give_one_leaf_different_transcripts(transcripts_by_leaf):
    # so a transcript shared by leaf must not outlive one mode
    for leaf in range(64):
        texts = [next(iter(transcripts_by_leaf[mode, "packaged"][leaf])) for mode in COOPERATION_MODES]
        assert len(set(texts)) == len(COOPERATION_MODES), leaf


def test_inputs_that_differ_only_in_a_zero_sign_do_not_share_a_tree():
    plus, minus = EprInput(1, complex(0.0, 0.0)), EprInput(1, complex(0.0, -0.0))
    assert plus == minus
    _session_tree.cache_clear()
    run_session(plus, BETA, seed=0)
    run_session(minus, BETA, seed=0)
    assert _session_tree.cache_info().currsize == 2
    # each tree holds its own input, the zero's sign included
    for epr, sign in ((plus, 1.0), (minus, -1.0)):
        tree = _session_tree(_input_bits(epr, BETA), epr, BETA)
        assert math.copysign(1.0, tree.inputs[0].c1.imag) == sign


# ---------------------------------------------------------------------------
# batched sessions against run_session
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [0xB97, 0xFFFFFFFFFFFFFFF8])
@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_batched_sessions_equal_run_session_trial_by_trial(cooperation, base):
    alice, bob = EprInput.normalized(0.3 - 0.2j, 1.1j), EprInput.normalized(0.7, -0.4 + 0.5j)
    packaged = load_table()
    plain = dict(packaged)
    keys = list(plain)
    legal = sorted(set(FRAME.values()) | {"IZ", "ZZ", "XZX"})
    trials = 2048
    edited_leaves = 0
    for call in range(3):
        for n in range(8):  # edit the plain table between calls
            plain[keys[(call * 8 + n) * 5 % 64]] = (legal[(call + n) % len(legal)], legal[n % len(legal)])
        results = []
        for table in (packaged, plain):
            leaves, first = run_sessions(alice, bob, base, trials, cooperation, table)
            scalar = [run_session(alice, bob, session_seed(base, i), cooperation, table) for i in range(trials)]
            assert leaves == [r.leaf for r in scalar]
            want = {}
            for r in scalar:
                want.setdefault(r.leaf, r)
            assert list(first) == list(want)  # in order of first trial
            assert all(_fields(first[leaf]) == _fields(r) for leaf, r in want.items())
            results.append(first)
        edited_leaves += sum(_fields(results[0][leaf]) != _fields(results[1][leaf]) for leaf in results[0])
    assert edited_leaves > 10  # the edits reached the batch's results


def test_batched_picks_agree_with_pick_at_and_around_ties():
    # every draw sits on the first outcome's probability at the node the
    # earlier draws reached, or one ulp below or above it: 3**6 paths
    tree = Tree(ALPHA, EprInput(0.8, complex(0.36, 0.48)))
    born = _born(*tree.inputs)
    rows, want = [], []
    for path in range(3 ** 6):
        key, row = (), []
        for k, (_, basis) in enumerate(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]):
            probs = born[key]
            u = (np.nextafter(probs[0], 0.0), probs[0], np.nextafter(probs[0], 1.0))[path // 3**k % 3]
            row.append(float(u))
            key += (OUTCOMES[basis][_pick(probs, row[-1])],)
        rows.append(row)
        want.append(leaf_index(*key))
    assert _draw_leaves(tree, np.array(rows)).tolist() == want
    # the scalar rule that run_session draws with and run_sessions cross-checks by
    assert [_draw_leaf(tree, SimpleNamespace(random=iter(row).__next__)) for row in rows] == want
    assert want[sum(3**k for k in range(6))] == 63  # a tie takes the second outcome


def test_both_pick_rules_read_the_node_their_picks_reached():
    # every step of a protocol tree has one probability at all its nodes, so
    # these steps give each node its own: first[k][n] at node n of step k
    rng = np.random.default_rng(5)
    first = [rng.uniform(0.3, 0.7, size=2**k).tolist() for k in range(6)]
    steps = np.empty((64, 6))  # leaf index bits are its picks, first pick highest
    for leaf, k in product(range(64), range(6)):
        p0 = first[k][leaf >> (6 - k)]
        steps[leaf, k] = 1 - p0 if leaf >> (5 - k) & 1 else p0
    draws = rng.random((4096, 6))
    want = []
    for row in draws.tolist():
        node = 0
        for k, u in enumerate(row):
            node = 2 * node + _pick((first[k][node], 1 - first[k][node]), u)
        want.append(node)
    tree = SimpleNamespace(steps=steps)
    assert _draw_leaves(tree, draws).tolist() == want
    assert [_draw_leaf(tree, SimpleNamespace(random=iter(row).__next__)) for row in draws.tolist()] == want
    assert len(set(want)) == 64


def test_a_batched_draw_that_disagrees_with_numpy_raises(monkeypatch):
    # nudge trial 0's first draw across the root's first probability: the
    # batch then sends it to another leaf than numpy's own generator does
    p0 = _born(ALPHA, BETA)[()][0]

    def nudged(seeds, n):
        draws = uniforms(seeds, n)
        draws[0, 0] = p0 if draws[0, 0] < p0 else np.nextafter(p0, 0.0)
        return draws

    assert len(run_sessions(ALPHA, BETA, 0xB97, 64)[0]) == 64
    monkeypatch.setattr("bqtsim.parties.uniforms", nudged)
    with pytest.raises(RuntimeError, match=f"trial 0 \\(seed {0xB97}\\)"):
        run_sessions(ALPHA, BETA, 0xB97, 64)


@pytest.mark.parametrize("cooperation", COOPERATION_MODES)
def test_a_run_delivers_all_its_leaves_in_one_call(monkeypatch, cooperation):
    calls = []

    def counted(rows, ops, targets):
        calls.append(len(rows))
        return deliver_rows(rows, ops, targets)

    monkeypatch.setattr("bqtsim.protocol._deliver", counted)
    leaves, first = run_sessions(ALPHA, BETA, 0xB97, 4096, cooperation)
    assert calls == [len(first)] == [64]
    assert sorted(set(leaves)) == sorted(first)


def test_run_sessions_checks_its_arguments():
    for bad in (-1, 2**64, True, 1.0):
        with pytest.raises(ValueError):
            run_sessions(ALPHA, BETA, bad, 4)
    with pytest.raises(ValueError, match="cooperation"):
        run_sessions(ALPHA, BETA, 0, 4, cooperation="partial")


@pytest.mark.parametrize("trials", [2.5, -5, True, False, 4.0, "4", None], ids=repr)
def test_run_sessions_rejects_a_trial_count_that_is_not_a_count(trials):
    with pytest.raises(ValueError, match="trial"):
        run_sessions(ALPHA, BETA, 0, trials)


def test_run_sessions_plays_no_trials_for_a_zero_count():
    assert run_sessions(ALPHA, BETA, 0, 0) == ([], {})


# ---------------------------------------------------------------------------
# transcript structure
# ---------------------------------------------------------------------------

def test_event_counts_and_order(session):
    t = session.transcript
    assert len(of_kind(t, "prepare")) == 3
    assert [e.actor for e in of_kind(t, "prepare")] == ["channel", ALICE, BOB]
    assert [e.outcome for e in of_kind(t, "gate")] == ["CNOT", "CNOT"]
    measures = of_kind(t, "measure")
    assert [e.qubits[0] for e in measures] == ["a1", "A2", "b3", "B2", "A1", "B1"]
    assert [e.basis for e in measures] == ["Z", "X", "Z", "X", "X", "X"]
    assert len(of_kind(t, "message", ALICE)) == 2
    assert len(of_kind(t, "message", BOB)) == 2
    corrects = of_kind(t, "correct")
    assert [e.actor for e in corrects] == [BOB, ALICE]
    assert [tuple(e.qubits) for e in corrects] == [("b1", "b2"), ("a2", "a3")]
    assert len(of_kind(t, "fidelity")) == 2


def test_message_rounds_and_payloads(session):
    for actor in (ALICE, BOB):
        rounds = [e.message_round for e in of_kind(session.transcript, "message", actor)]
        assert rounds == [1, 2]
    first_alice = of_kind(session.transcript, "message", ALICE)[0]
    announced = {q: outcome for q, _basis, outcome in first_alice.outcome}
    assert announced == {
        "a1": session.outcomes["a1"], "A2": session.outcomes["A2"]
    }


def test_measure_probabilities_recorded(session):
    for e in of_kind(session.transcript, "measure"):
        assert 0.0 < e.probability <= 1.0
    joint = float(
        np.prod([e.probability for e in of_kind(session.transcript, "measure")])
    )
    assert joint == pytest.approx(1 / 64, abs=1e-12)


def test_transcript_json_schema(session):
    doc = json.loads(session.transcript.to_json())
    assert doc["schema"] == TRANSCRIPT_SCHEMA
    keys = {
        "step", "actor", "kind", "qubits", "basis",
        "outcome", "probability", "message_round",
    }
    for event in doc["events"]:
        assert set(event) == keys
        assert event["kind"] in (
            "prepare", "gate", "measure", "message", "correct", "fidelity"
        )


def test_session_result_fields(session):
    assert session.seed == 2024
    assert session.cooperation == "full"
    assert set(session.outcomes) == {"a1", "A2", "b3", "B2", "A1", "B1"}
    assert 0 <= session.leaf < 64
    assert session.expected_fidelity is None
    assert session.fidelity_alice_to_bob >= 1.0 - 1e-10
    assert session.fidelity_bob_to_alice >= 1.0 - 1e-10


def test_full_cooperation_always_reconstructs():
    for seed in range(20):
        result = run_session(ALPHA, BETA, seed=seed)
        assert result.fidelity_alice_to_bob >= 1.0 - 1e-10
        assert result.fidelity_bob_to_alice >= 1.0 - 1e-10


# ---------------------------------------------------------------------------
# withholding
# ---------------------------------------------------------------------------

def test_modes_tuple():
    assert COOPERATION_MODES == ("full", "alice_withholds_A1", "bob_withholds_B1")


def test_alice_withholding_starves_bob():
    hit = miss = 0
    for seed in range(40):
        r = run_session(ALPHA, BETA, seed=seed, cooperation="alice_withholds_A1")
        # the cooperative direction still reconstructs perfectly
        assert r.fidelity_bob_to_alice >= 1.0 - 1e-10
        assert r.expected_fidelity == pytest.approx(0.5392, abs=1e-12)
        # per session Bob either guessed right or sees the Z-damaged state
        if r.fidelity_alice_to_bob >= 1.0 - 1e-10:
            hit += 1
        else:
            assert r.fidelity_alice_to_bob == pytest.approx(0.0784, abs=1e-12)
            miss += 1
        # one second-round message is missing from the transcript
        assert len(of_kind(r.transcript, "message", ALICE)) == 1
        assert len(of_kind(r.transcript, "message", BOB)) == 2
    assert hit > 0 and miss > 0


def test_bob_withholding_starves_alice():
    r = run_session(ALPHA, BETA, seed=11, cooperation="bob_withholds_B1")
    assert r.fidelity_alice_to_bob >= 1.0 - 1e-10
    # the deprived expectation follows Bob's input, balanced here
    assert r.expected_fidelity == pytest.approx(0.5, abs=1e-12)
    assert len(of_kind(r.transcript, "message", BOB)) == 1


def test_withholding_expected_matches_empirical_mean():
    values = [
        run_session(ALPHA, BETA, seed=s, cooperation="alice_withholds_A1")
        .fidelity_alice_to_bob
        for s in range(400)
    ]
    # per-session fidelities mix 1 and 0.0784 with equal chance; their mean
    # approaches the predicted 0.5392 (sigma of the mean is about 0.023)
    assert np.mean(values) == pytest.approx(0.5392, abs=0.1)


# ---------------------------------------------------------------------------
# ownership audit
# ---------------------------------------------------------------------------

def test_honest_sessions_pass_audit():
    for mode in COOPERATION_MODES:
        for seed in range(64):
            transcript = run_session(ALPHA, BETA, seed=seed, cooperation=mode).transcript
            # and as `bqtsim run --transcripts` writes it: lists where the records hold tuples
            rebuilt = Transcript(Event(**e) for e in json.loads(transcript.to_json())["events"])
            assert ownership_check(transcript) and ownership_check(rebuilt), (mode, seed)


def _index_of(transcript, kind, actor=None, occurrence=0):
    hits = [
        i
        for i, e in enumerate(transcript.events)
        if e.kind == kind and (actor is None or e.actor == actor)
    ]
    return hits[occurrence]


def test_audit_rejects_foreign_gate(session):
    i = _index_of(session.transcript, "gate", BOB)
    forged = _edit(session.transcript, i, actor=ALICE)  # Alice touching (B1, b3)
    assert not ownership_check(forged)


def test_audit_rejects_foreign_measurement(session):
    i = _index_of(session.transcript, "measure", ALICE)
    forged = _edit(session.transcript, i, actor=BOB)
    assert not ownership_check(forged)


def test_audit_rejects_channel_acting_as_party(session):
    i = _index_of(session.transcript, "gate", ALICE)
    forged = _edit(session.transcript, i, actor="channel")
    assert not ownership_check(forged)


def test_audit_rejects_out_of_order_rounds(session):
    second = _index_of(session.transcript, "message", ALICE, occurrence=1)
    forged = _edit(session.transcript, second, message_round=1)
    assert not ownership_check(forged)
    forged = _edit(session.transcript, second, message_round=None)
    assert not ownership_check(forged)


def test_audit_rejects_forged_announcement(session):
    i = _index_of(session.transcript, "message", ALICE)
    event = session.transcript.events[i]
    flipped = [
        [q, basis, (1 - outcome) if q == "a1" else outcome]
        for q, basis, outcome in event.outcome
    ]
    forged = _edit(session.transcript, i, outcome=flipped)
    assert not ownership_check(forged)


def test_audit_rejects_announcing_foreign_qubit(session):
    i = _index_of(session.transcript, "message", ALICE)
    event = session.transcript.events[i]
    stolen = [["b3", "Z", 0]] + [list(row) for row in event.outcome]
    forged = _edit(
        session.transcript, i, outcome=stolen, qubits=("b3",) + event.qubits
    )
    assert not ownership_check(forged)


def test_audit_rejects_an_announcement_in_the_wrong_basis(seed_11):
    i = _index_of(seed_11.transcript, "message", ALICE)
    swapped = [[q, {"Z": "X", "X": "Z"}[basis], r] for q, basis, r in seed_11.transcript.events[i].outcome]
    assert swapped == [["a1", "X", 0], ["A2", "Z", "+"]]
    assert not ownership_check(_edit(seed_11.transcript, i, outcome=swapped))


def test_audit_rejects_an_announcement_of_other_qubits_than_its_message_names(seed_11):
    i = _index_of(seed_11.transcript, "message", ALICE)
    assert seed_11.transcript.events[i].qubits == ("a1", "A2")
    assert not ownership_check(_edit(seed_11.transcript, i, qubits=("a1",)))
    assert not ownership_check(_edit(seed_11.transcript, i, qubits=("A2", "a1")))


def test_audit_rejects_unjustified_correction(session):
    i = _index_of(session.transcript, "correct", BOB)
    actual = session.transcript.events[i].outcome
    forged = _edit(session.transcript, i, outcome="XX" if actual != "XX" else "ZI")
    assert not ownership_check(forged)


def test_audit_rejects_correction_without_announcements(session):
    # dropping Alice's first-round message leaves Bob unable to justify his
    # correction
    i = _index_of(session.transcript, "message", ALICE)
    assert not ownership_check(_drop(session.transcript, i))


@pytest.fixture(scope="module")
def seed_11():
    return run_session(ALPHA, BETA, seed=11)  # a1 = 0, b3 = 1


def _retyped(transcript, convert, kinds):
    """``transcript`` with each Z result r in events of ``kinds`` rewritten as convert(r)."""
    events = []
    for e in transcript.events:
        if e.kind == "measure" and e.kind in kinds and e.basis == "Z":
            e = replace(e, outcome=convert(e.outcome))
        elif e.kind == "message" and e.kind in kinds:
            e = replace(e, outcome=tuple((q, b, convert(r) if b == "Z" else r) for q, b, r in e.outcome))
        events.append(e)
    return Transcript(events)


@pytest.mark.parametrize("convert, kinds", [
    (bool, ("measure", "message")),
    (lambda r: 1.0 if r == 1 else r, ("measure", "message")),
    (lambda r: 1.0 if r == 1 else r, ("measure",)),
    (bool, ("message",)),
], ids=["bools", "float one", "float one recorded only", "bools announced only"])
def test_audit_rejects_results_of_the_wrong_type(seed_11, convert, kinds):
    honest = seed_11.transcript
    forged = _retyped(honest, convert, kinds)
    # equal by ==, since True == 1 == 1.0, yet the JSON says what the engine never measured
    assert forged.events == honest.events
    assert json.dumps(forged.to_json_obj()) != json.dumps(honest.to_json_obj())
    assert ownership_check(honest)
    assert not ownership_check(forged)


@pytest.mark.parametrize("basis", ["Y", None, ["Z"], np.array(["Z", "Z"])], ids=repr)
def test_audit_rejects_a_measurement_in_no_basis(seed_11, basis):
    i = _index_of(seed_11.transcript, "measure", ALICE)
    assert not ownership_check(_edit(seed_11.transcript, i, basis=basis))


def test_audit_accepts_withheld_default_correction():
    r = run_session(ALPHA, BETA, seed=31, cooperation="alice_withholds_A1")
    assert ownership_check(r.transcript)
    # but a correction conditioned on the unannounced A1 value must fail
    i = _index_of(r.transcript, "correct", BOB)
    honest_ops = r.transcript.events[i].outcome
    conditioned = "ZI" if honest_ops != "ZI" else "II"
    assert not ownership_check(_edit(r.transcript, i, outcome=conditioned))


def test_audit_rejects_a_measurement_of_a_payload_qubit(seed_11):
    # measuring a2 would destroy Bob's payload: a2 is Alice's, but no step of the plan
    i = _index_of(seed_11.transcript, "measure", ALICE)
    events = list(seed_11.transcript.events)
    events.insert(i + 1, Event(3, ALICE, "measure", ("a2",), "Z", 0, 0.5))
    assert ownership_check(seed_11.transcript)
    assert not ownership_check(Transcript(events))


@pytest.mark.parametrize("qubits", [("a1", "a2"), ("a2",), ("A2",), ()], ids=repr)
def test_audit_rejects_a_measurement_that_names_other_qubits_than_one_step(seed_11, qubits):
    i = _index_of(seed_11.transcript, "measure", ALICE)
    assert seed_11.transcript.events[i].qubits == ("a1",)
    assert not ownership_check(_edit(seed_11.transcript, i, qubits=qubits))


@pytest.mark.parametrize("kind, changes", [
    ("message", {"outcome": None}),
    ("message", {"outcome": (("a1", "Z"), ("A2", "X"))}),
    ("message", {"outcome": "a1"}),
    ("message", {"message_round": "2"}),
    ("message", {"message_round": True}),
    ("message", {"qubits": (["a1"], "A2")}),
    ("measure", {"qubits": (["a1"],)}),
    ("measure", {"qubits": None}),
    ("gate", {"qubits": ("A1", ["a1"])}),
], ids=repr)
def test_audit_returns_false_for_a_malformed_event(seed_11, kind, changes):
    i = _index_of(seed_11.transcript, kind, ALICE)
    assert ownership_check(_edit(seed_11.transcript, i, **changes)) is False


@pytest.mark.parametrize("where, outcome", [("after it", 1), ("at the end", 1), ("at the end", 0)], ids=repr)
def test_audit_rejects_a_repeated_measurement(seed_11, where, outcome):
    # a second b3 result after the last correction reaches no later check,
    # so the prefix replay accepted even another outcome there
    i = _index_of(seed_11.transcript, "measure", BOB)
    events = list(seed_11.transcript.events)
    assert events[i].qubits == ("b3",) and events[i].outcome == 1
    events.insert(i + 1 if where == "after it" else len(events), replace(events[i], outcome=outcome))
    forged = Transcript(events)
    assert oracles.ownership_check(forged)  # the prefix replay kept only the last result
    assert ownership_check(seed_11.transcript)
    assert ownership_check(forged) is False


def _first_row(**changes):
    """An edit of a message event that rewrites fields of its first announced triple."""
    def edit(event):
        label, basis, result = event.outcome[0]
        row = {"label": label, "basis": basis, "result": result, **changes}
        return {"outcome": ((row["label"], row["basis"], row["result"]),) + tuple(event.outcome[1:])}
    return edit


@pytest.mark.parametrize("kind, actor, edit", [
    ("message", ALICE, _first_row(basis=np.array(["Z", "Z"]))),
    ("message", ALICE, _first_row(label=np.array(["a1", "a1"]))),
    ("correct", BOB, lambda e: {"outcome": np.array(["II", "XX"])}),
    ("correct", BOB, lambda e: {"outcome": np.array("II")}),
    ("gate", ALICE, lambda e: {"actor": np.array([ALICE, BOB])}),
    ("prepare", "channel", lambda e: {"kind": np.array(["prepare", "gate"])}),
], ids=["array basis", "array label", "array ops", "0-d array ops", "array actor", "array kind"])
def test_audit_returns_false_for_a_field_of_the_wrong_type(seed_11, kind, actor, edit):
    i = _index_of(seed_11.transcript, kind, actor)
    forged = _edit(seed_11.transcript, i, **edit(seed_11.transcript.events[i]))
    assert ownership_check(forged) is False


#: Values that rewrite one field of an event: the right type in the wrong place, and the wrong type.
_POOL = (0, 1, 2, "+", "-", True, False, 1.0, None, "", "XX", "II", "XXZ", "Y", "Z", "X", "a1", "A1", "A2",
         "b3", "B1", "channel", ALICE, BOB, "prepare", "gate", "measure", "message", "correct",
         ("a1",), ["b1", "b2"], (), np.array("II"), np.array(["Z", "Z"]), np.array(["a1", "A2"]))

_FIELDS = ("step", "actor", "kind", "qubits", "basis", "outcome", "probability", "message_round")


def _mutated(events, rng):
    """``events`` with one event dropped, swapped with another or repeated, one field of an
    event rewritten from ``_POOL``, or one field of an announced triple rewritten."""
    events = list(events)
    i, j = rng.integers(len(events), size=2)
    how = rng.integers(5)
    if how == 0:
        del events[i]
    elif how == 1:
        events[i], events[j] = events[j], events[i]
    elif how == 2:
        events.insert(j, events[i])
    elif how == 3:
        events[i] = replace(events[i], **{_FIELDS[rng.integers(len(_FIELDS))]: _POOL[rng.integers(len(_POOL))]})
    else:
        i = rng.choice([k for k, e in enumerate(events) if e.kind == "message"])
        rows = [list(row) for row in events[i].outcome]
        rows[rng.integers(len(rows))][rng.integers(3)] = _POOL[rng.integers(len(_POOL))]
        events[i] = replace(events[i], outcome=rows)
    return events


def _newly_false(events):
    """Whether the one-pass audit fails ``events`` where the prefix replay need not: a party
    measures a qubit twice, or an actor, kind, measured basis, announced label or basis, or
    correction is not a str."""
    measured = set()
    for e in events:
        if type(e.actor) is not str or type(e.kind) is not str:
            return True
        if e.actor not in (ALICE, BOB):
            continue
        if e.kind == "measure":
            if type(e.basis) is not str:
                return True
            if isinstance(e.qubits, (tuple, list)) and e.qubits and type(e.qubits[0]) is str:
                if (e.actor, e.qubits[0]) in measured:
                    return True
                measured.add((e.actor, e.qubits[0]))
        elif e.kind == "message" and isinstance(e.outcome, (tuple, list)):
            if any(isinstance(row, (tuple, list)) and len(row) == 3
                   and not (type(row[0]) is str and type(row[1]) is str) for row in e.outcome):
                return True
        elif e.kind == "correct" and type(e.outcome) is not str:
            return True
    return False


def test_the_one_pass_audit_equals_the_prefix_replay_on_mutated_transcripts():
    rng = np.random.default_rng(0xA0D17)
    honest = [run_session(ALPHA, BETA, seed, mode).transcript for seed in range(4) for mode in COOPERATION_MODES]
    # and as `bqtsim run --transcripts` writes them: lists where the records hold tuples
    honest += [Transcript(Event(**e) for e in json.loads(t.to_json())["events"]) for t in honest]
    verdicts = {True: 0, False: 0, "newly false": 0}
    for n in range(6000):
        events = _mutated(honest[n % len(honest)].events, rng)
        forged = Transcript(events)
        newly_false = _newly_false(events)
        try:
            want = oracles.ownership_check(forged)
        except (TypeError, ValueError):
            assert newly_false, events  # the prefix replay raised only on a field of the wrong type
            want = None
        got = ownership_check(forged)
        assert got is (False if newly_false else want), events
        verdicts["newly false" if newly_false and want is not False else got] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_owned_partition():
    assert OWNED[ALICE] & OWNED[BOB] == frozenset()
    assert OWNED[ALICE] | OWNED[BOB] == frozenset(
        {"a1", "a2", "a3", "A1", "A2", "b1", "b2", "b3", "B1", "B2"}
    )
