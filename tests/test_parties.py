"""Session, transcript, and ownership-audit tests.

The audit negatives are built by hand-editing honest transcripts: every
tampering mode the audit claims to catch gets a concrete forged transcript
here.
"""

import json
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bqtsim._draws import uniforms
from bqtsim.corrections import FRAME, MEASUREMENT_PLAN, OUTCOMES, PLAN_QUBITS, leaf_index, load_table
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
    _correction,
    _draw_leaves,
    _input_bits,
    _knowledge,
    _owner,
    _record,
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
    encode,
    enumerate_branches,
    prepare_full_state,
    walk_round,
)
from bqtsim.qsim import _pick, measure
from oracles import deliver, deprived_fidelities

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
        assert [e.probability for e in result.transcript.of_kind("measure")] == probs

        ops = tuple(e.outcome for e in result.transcript.of_kind("correct"))
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


def _oracle_session(tree, seed, cooperation, table):
    """One session built event by event on ``tree``, each correction derived
    from what its party knows (``_knowledge``, ``_correction``): the builder
    that the memoised per-leaf records replaced."""
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
    _play_round(events, tree.born, 1, outcomes, rng)
    _play_round(events, tree.born, 2, outcomes, rng, withheld)
    key = tuple(outcomes.values())
    known = _knowledge(events)
    ops = tuple(_correction(known, party, table) for party in (BOB, ALICE))
    fidelities = tree.delivered(key, ops)
    for kind, results in (("correct", ops), ("fidelity", fidelities)):
        for party, d, result in zip((BOB, ALICE), DIRECTIONS.values(), results):
            events.append(Event(4, party, kind, d.labels, outcome=result))
    expected = None if withheld is None else tree.deprived(key, withheld, table)
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
    oracle_tree = Tree(alice, bob)  # its own tree, so no memo is shared with the sessions
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
            want = _fields(_oracle_session(oracle_tree, seed, cooperation, table))
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
    assert again.transcript is first.transcript  # shared by leaf
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
    for message in transcript.of_kind("message"):
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
        _record(Tree(*pair), first_round + second, withheld, table[first_round + second], table)
        for pair, second, withheld in (
            ((ALPHA, BETA), ("+", "+"), None),
            ((ALPHA, BETA), ("-", "+"), "A1"),
            ((BETA, ALPHA), ("-", "-"), "B1"),
        )
    ]
    messages = [record[0].of_kind("message") for record in records]
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
    assert [e.outcome for e in second.transcript.of_kind("correct")] == [edited, alice_ops]
    assert [e.outcome for e in first.transcript.of_kind("correct")] == [bob_ops, alice_ops]
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
    rows, want = [], []
    for path in range(3 ** 6):
        key, row = (), []
        for k, (_, basis) in enumerate(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]):
            probs = tree.born[key]
            u = (np.nextafter(probs[0], 0.0), probs[0], np.nextafter(probs[0], 1.0))[path // 3**k % 3]
            row.append(float(u))
            key += (OUTCOMES[basis][_pick(probs, row[-1])],)
        rows.append(row)
        want.append(leaf_index(*key))
    assert _draw_leaves(tree, np.array(rows)).tolist() == want
    assert want[sum(3**k for k in range(6))] == 63  # a tie takes the second outcome


def test_a_batched_draw_that_disagrees_with_numpy_raises(monkeypatch):
    # nudge trial 0's first draw across the root's first probability: the
    # batch then sends it to another leaf than numpy's own generator does
    p0 = _session_tree(_input_bits(ALPHA, BETA), ALPHA, BETA).born[()][0]

    def nudged(seeds, n):
        draws = uniforms(seeds, n)
        draws[0, 0] = p0 if draws[0, 0] < p0 else np.nextafter(p0, 0.0)
        return draws

    assert len(run_sessions(ALPHA, BETA, 0xB97, 64)[0]) == 64
    monkeypatch.setattr("bqtsim.parties.uniforms", nudged)
    with pytest.raises(RuntimeError, match=f"trial 0 \\(seed {0xB97}\\)"):
        run_sessions(ALPHA, BETA, 0xB97, 64)


def test_run_sessions_checks_its_arguments():
    for bad in (-1, 2**64, True, 1.0):
        with pytest.raises(ValueError):
            run_sessions(ALPHA, BETA, bad, 4)
    with pytest.raises(ValueError, match="cooperation"):
        run_sessions(ALPHA, BETA, 0, 4, cooperation="partial")


# ---------------------------------------------------------------------------
# transcript structure
# ---------------------------------------------------------------------------

def test_event_counts_and_order(session):
    t = session.transcript
    assert len(t.of_kind("prepare")) == 3
    assert [e.actor for e in t.of_kind("prepare")] == ["channel", ALICE, BOB]
    assert [e.outcome for e in t.of_kind("gate")] == ["CNOT", "CNOT"]
    measures = t.of_kind("measure")
    assert [e.qubits[0] for e in measures] == ["a1", "A2", "b3", "B2", "A1", "B1"]
    assert [e.basis for e in measures] == ["Z", "X", "Z", "X", "X", "X"]
    assert len(t.of_kind("message", ALICE)) == 2
    assert len(t.of_kind("message", BOB)) == 2
    corrects = t.of_kind("correct")
    assert [e.actor for e in corrects] == [BOB, ALICE]
    assert [tuple(e.qubits) for e in corrects] == [("b1", "b2"), ("a2", "a3")]
    assert len(t.of_kind("fidelity")) == 2


def test_message_rounds_and_payloads(session):
    for actor in (ALICE, BOB):
        rounds = [e.message_round for e in session.transcript.of_kind("message", actor)]
        assert rounds == [1, 2]
    first_alice = session.transcript.of_kind("message", ALICE)[0]
    announced = {q: outcome for q, _basis, outcome in first_alice.outcome}
    assert announced == {
        "a1": session.outcomes["a1"], "A2": session.outcomes["A2"]
    }


def test_measure_probabilities_recorded(session):
    for e in session.transcript.of_kind("measure"):
        assert 0.0 < e.probability <= 1.0
    joint = float(
        np.prod([e.probability for e in session.transcript.of_kind("measure")])
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
        assert len(r.transcript.of_kind("message", ALICE)) == 1
        assert len(r.transcript.of_kind("message", BOB)) == 2
    assert hit > 0 and miss > 0


def test_bob_withholding_starves_alice():
    r = run_session(ALPHA, BETA, seed=11, cooperation="bob_withholds_B1")
    assert r.fidelity_alice_to_bob >= 1.0 - 1e-10
    # the deprived expectation follows Bob's input, balanced here
    assert r.expected_fidelity == pytest.approx(0.5, abs=1e-12)
    assert len(r.transcript.of_kind("message", BOB)) == 1


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
        result = run_session(ALPHA, BETA, seed=5, cooperation=mode)
        assert ownership_check(result.transcript), mode


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


@pytest.mark.parametrize("basis", ["Y", None, ["Z"]], ids=repr)
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


def test_owned_partition():
    assert OWNED[ALICE] & OWNED[BOB] == frozenset()
    assert OWNED[ALICE] | OWNED[BOB] == frozenset(
        {"a1", "a2", "a3", "A1", "A2", "b1", "b2", "b3", "B1", "B2"}
    )
