"""Property tests over arbitrary normalized complex payloads.

Hypothesis draws the payload amplitudes; every property holds for any
input pair, so a failure names a concrete counterexample.  Runs are
derandomized: the same examples are drawn on every run.

The level-batched walk behind ``protocol.Tree`` takes every Born sum and
norm of a step in one ``np.vecdot`` call.  It is checked against three
oracles that never share those reductions: a recursive walk with one
``qsim.measure`` call per node and the per-row walk of
``tests/oracles.py`` (both by bytes), and a dense ``einsum`` kernel over
all 64 leaves at once (within 1e-12; it sums in another order, so its
last bits differ).  The row kernel that corrects and scores the leaves,
also batched, is checked against the written-out oracles of
``tests/oracles.py``: per row, gate by gate (by bytes), and per leaf
through the public gate path (by ``==``), on arbitrary legal ops for
every row; the deprived mixtures are checked the same way at every leaf,
under both weightings.  One tree serves every consumer: the session tree,
``enumerate_branches`` and ``noncooperation_fidelity`` agree bit for bit.

The report encoder ``cli._dumps`` indents ``json.dumps`` text to sit at
any depth; spliced into nested lists, it is checked against ``json.dumps``
of the nested value, on arbitrary JSON values.  The spliced ``run`` trial
rows are checked against ``json.dumps`` of the plain dicts they stand for.
"""

import argparse
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from bqtsim.cli import _dumps, _open, _report, _trial_rows
from bqtsim.corrections import FACTORS, LEAF_KEYS, OUTCOMES, PLAN_QUBITS, apply_ops, leaf_index, load_table, parse_ops
from bqtsim.parties import COOPERATION_MODES, _input_bits, _session_tree, run_session, session_seed
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    FIDELITY_FLOOR,
    FULL_LABELS,
    MEASUREMENT_PLAN,
    PAYLOAD_LABELS,
    EprInput,
    Tree,
    _correct_rows,
    _deprived,
    _GROUPS,
    _heard_ops,
    _leaf_probabilities,
    encode,
    enumerate_branches,
    noncooperation_fidelity,
    prepare_full_state,
)
from bqtsim.qsim import ATOL, DensityMatrix, Register, fidelity_pure, measure, reduced_density

import oracles

PLAN = MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]
ROUND_ONE = len(MEASUREMENT_PLAN[0])

# no shrink phase: a failing example is reported as drawn, since minimising one
# against a broken kernel took minutes and gigabytes
PROPERTY = settings(
    max_examples=25, derandomize=True, deadline=None, database=None, phases=[p for p in Phase if p is not Phase.shrink]
)

_part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def payloads(draw) -> EprInput:
    c0 = complex(draw(_part), draw(_part))
    c1 = complex(draw(_part), draw(_part))
    assume(np.hypot(abs(c0), abs(c1)) >= 1e-6)
    return EprInput.normalized(c0, c1)


_ops = st.tuples(st.sampled_from(FACTORS), st.sampled_from(FACTORS)).map("".join)

#: The 16 legal ops strings of one qubit pair, and the pairs a table entry corrects, in its order.
EVERY_OPS = [a + b for a in FACTORS for b in FACTORS]
PAIRS = (BOB_PAYLOAD_LABELS, ALICE_PAYLOAD_LABELS)


def _kernel(rows, labels, ops):
    """The row kernel once per qubit pair of ``labels``, in order, each with its column of ``ops``."""
    for k, pair in enumerate(labels):
        rows = _correct_rows(rows, pair, [entry[k] for entry in ops])
    return rows


@PROPERTY
@given(payloads(), payloads())
def test_every_leaf_is_uniform_and_delivered(alice, bob):
    leaves = enumerate_branches(alice, bob)
    assert len(leaves) == 64
    for leaf in leaves:
        assert abs(leaf.probability - 1 / 64) <= 1e-12
        assert leaf.fidelity_alice_to_bob >= FIDELITY_FLOOR
        assert leaf.fidelity_bob_to_alice >= FIDELITY_FLOOR


@PROPERTY
@given(payloads())
def test_withholding_degrades_to_fourth_powers(epr):
    expected = abs(epr.c0) ** 4 + abs(epr.c1) ** 4
    for withheld in ("A1", "B1"):
        assert abs(noncooperation_fidelity(epr, withheld) - expected) <= 1e-12


@PROPERTY
@given(payloads(), payloads(), st.sampled_from(sorted(load_table(), key=str)), _ops, _ops)
def test_deliver_matches_its_written_out_oracle(alice, bob, key, bob_ops, alice_ops):
    tree = Tree(alice, bob)
    _, payload = oracles.tree_leaves(tree)[key]
    fixed = apply_ops(payload, BOB_PAYLOAD_LABELS, bob_ops)
    fixed = apply_ops(fixed, ALICE_PAYLOAD_LABELS, alice_ops)
    to_bob = fidelity_pure(
        reduced_density(fixed, BOB_PAYLOAD_LABELS), alice.register(BOB_PAYLOAD_LABELS)
    )
    to_alice = fidelity_pure(
        reduced_density(fixed, ALICE_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS)
    )
    assert tree.deliver([leaf_index(*key)], [(bob_ops, alice_ops)])[0] == (to_bob, to_alice)
    # amplitudes equal by ==, not by bits: negating a zero gives -0.0 where
    # apply_gate1's matrix product gives 0.0
    rows = _kernel(payload.amps[None], PAIRS, [(bob_ops, alice_ops)])
    assert np.array_equal(rows.reshape(-1), fixed.amps)


_entries = st.lists(st.tuples(_ops, _ops), min_size=64, max_size=64)


@PROPERTY
@given(payloads(), payloads(), _entries)
def test_the_row_kernel_equals_the_per_leaf_oracle(alice, bob, entries):
    # every row its own legal ops, not only the table's
    tree = Tree(alice, bob)
    leaves = oracles.tree_leaves(tree)
    got = tree.deliver(range(64), entries)
    want = [oracles.deliver(leaves[key][1], ops, oracles.targets(tree))[1:]
            for key, ops in zip(LEAF_KEYS, entries)]
    assert got == want
    rows = tree.payloads
    for labels, ops in ((PAIRS, entries), ((BOB_PAYLOAD_LABELS,), [e[:1] for e in entries]),
                        ((ALICE_PAYLOAD_LABELS,), [e[1:] for e in entries])):
        fixed = _kernel(rows, labels, ops)
        assert fixed.tobytes() == oracles.correct_rows(rows, labels, ops).tobytes()
    # every legal ops string in both columns, alone on one row and all 16 mixed in one
    # batch: the kernel gathers the rows that share a string into one array
    mixed = [(EVERY_OPS[k % 16], EVERY_OPS[5 * k % 16]) for k in range(64)]
    for part, ops in [(rows, mixed)] + [(rows[k : k + 1], mixed[k : k + 1]) for k in range(16)]:
        assert _kernel(part, PAIRS, ops).tobytes() == oracles.correct_rows(part, PAIRS, ops).tobytes()
    # a second batch in the reverse order gives each leaf the same values
    assert tree.deliver(range(63, -1, -1), entries[::-1]) == want[::-1]


def _measured_leaves(state, steps):
    """Oracle: every leaf below ``state``, one ``qsim.measure`` call per node."""
    if not steps:
        yield (), (), state
        return
    qubit, basis = steps[0]
    for outcome in OUTCOMES[basis]:
        res = measure(state, qubit, basis, force=outcome)
        for outcomes, probs, leaf in _measured_leaves(res.register, steps[1:]):
            yield (res.outcome,) + outcomes, (res.probability,) + probs, leaf


@PROPERTY
@given(payloads(), payloads())
def test_walk_leaves_equals_the_measure_oracle(alice, bob):
    tree = Tree(alice, bob)
    leaves = oracles.tree_leaves(tree)
    expected = list(_measured_leaves(encode(prepare_full_state(alice, bob)), PLAN))
    assert len(leaves) == len(expected) == 64
    rows = zip(oracles.weighted(leaves), _leaf_probabilities(tree.steps).tolist())
    for ((outcomes, prob, payload), tree_prob), (want, probs, state) in zip(rows, expected):
        assert outcomes == want
        assert leaves[outcomes][0] == probs
        assert prob == tree_prob == math.prod(probs[:ROUND_ONE]) * math.prod(probs[ROUND_ONE:])
        assert payload.labels == state.labels
        assert np.array_equal(payload.amps, state.amps)
    # the per-row walk that the batched one replaced, by bytes
    per_row = oracles.walk_round(encode(prepare_full_state(alice, bob)), PLAN)
    for (outcomes, (probs, payload)), (want, steps, state) in zip(leaves.items(), per_row):
        assert (outcomes, [p.hex() for p in probs]) == (want, [p.hex() for p in steps])
        assert payload.amps.tobytes() == state.amps.tobytes()


@st.composite
def _plans_with_a_last_label_z_step(draw):
    """A random 2-6 qubit register and a plan that measures its last label in Z,
    among any other qubits of it in either basis, in any order."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"q{k}" for k in range(n))
    state = Register(labels, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    others = draw(st.lists(st.sampled_from(labels[:-1]), unique=True))
    plan = [(q, draw(st.sampled_from("ZX"))) for q in others]
    plan.insert(draw(st.integers(0, len(plan))), (labels[-1], "Z"))
    return state, plan


@PROPERTY
@given(_plans_with_a_last_label_z_step())
def test_walk_round_with_a_z_step_on_the_last_label_equals_the_measure_oracle(case):
    # a Z split of the last label is a strided view, and the walk sums it as measure does
    state, plan = case
    got = oracles.fast_walk(state, plan)
    want = list(_measured_leaves(state, plan))
    assert len(got) == len(want) == 2 ** len(plan)
    for (outcomes, probs, reg), (outcomes_want, probs_want, reg_want) in zip(got, want):
        assert (outcomes, [p.hex() for p in probs]) == (outcomes_want, [p.hex() for p in probs_want])
        assert reg.labels == reg_want.labels and reg.amps.tobytes() == reg_want.amps.tobytes()


@PROPERTY
@given(payloads(), payloads(), _entries)
def test_the_deprived_groups_equal_the_per_leaf_oracle_under_both_weightings(alice, bob, entries):
    # every row its own legal ops; A1's groups pair leaves i and i | 2, which
    # interleave (0 and 2 around 1), and B1's pair i and i | 1
    tree = Tree(alice, bob)
    leaves = oracles.tree_leaves(tree)
    table = dict(zip(LEAF_KEYS, entries))
    for (withheld, (_, slot)), bit in zip(oracles.STARVES.items(), (2, 1)):
        keys, groups = _GROUPS[withheld]
        assert all(np.flatnonzero(groups == groups[i]).tolist() == sorted({i, i ^ bit}) for i in range(64))
        target = oracles.targets(tree)[slot]
        # noncooperation_fidelity's weighting: every leaf's full probability
        want = oracles.deprived_fidelities(oracles.weighted(leaves), withheld, target, table)
        assert list(keys) == list(want)  # group keys in first-seen order
        ops = _heard_ops(table, withheld)
        got = _deprived(tree.payloads, tree.targets, _leaf_probabilities(tree.steps), withheld, ops)
        assert list(zip(*got)) == list(want.values())  # weights and fidelities
        # the session path: weights are round two's probabilities alone
        want = oracles.deprived_fidelities(oracles.weighted(leaves, round_one=False), withheld, target, table)
        for leaf, key in enumerate(LEAF_KEYS):
            assert tree.deprived(withheld, ops)[groups[leaf]] == want[oracles.heard(key, withheld)][1]


def _warm_session_tree(alice, bob):
    """The cached tree of a pair after one session in each cooperation mode."""
    for seed, mode in enumerate(COOPERATION_MODES):
        run_session(alice, bob, seed, mode)
    return _session_tree(_input_bits(alice, bob), alice, bob)


@PROPERTY
@given(payloads(), payloads())
def test_one_tree_serves_every_consumer(alice, bob):
    table = load_table()
    tree = _warm_session_tree(alice, bob)
    leaves = enumerate_branches(alice, bob, table)
    rows = oracles.weighted(oracles.tree_leaves(tree))
    assert len(leaves) == len(rows) == 64
    probabilities = _leaf_probabilities(tree.steps).tolist()
    for n, (leaf, (key, prob, payload)) in enumerate(zip(leaves, rows)):
        assert tuple(leaf.outcomes().values()) == key
        assert leaf.probability.hex() == prob.hex() == probabilities[n].hex()
        assert not np.shares_memory(leaf.post_state.amps, tree.payloads)  # the cached tree's rows never leave it
        assert leaf.post_state.amps.tobytes() == payload.amps.tobytes() == tree.payloads[n].tobytes()
        fidelities = (leaf.fidelity_alice_to_bob, leaf.fidelity_bob_to_alice)
        assert [f.hex() for f in fidelities] == [f.hex() for f in tree.deliver([n], [table[key]])[0]]
    # noncooperation_fidelity pairs the sender with a balanced cooperative input
    balanced = EprInput(np.sqrt(0.5), np.sqrt(0.5))
    for withheld, sent, pair, labels in (
        ("A1", alice, (alice, balanced), BOB_PAYLOAD_LABELS),
        ("B1", bob, (balanced, bob), ALICE_PAYLOAD_LABELS),
    ):
        groups = oracles.deprived_fidelities(
            oracles.weighted(oracles.tree_leaves(_warm_session_tree(*pair))), withheld, sent.register(labels), table
        )
        expected = 0.0
        for weight, fidelity in groups.values():
            expected += weight * fidelity
        assert noncooperation_fidelity(sent, withheld).hex() == expected.hex()


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_PAULI = {"I": np.eye(2), "Z": np.diag([1.0, -1.0]), "X": np.array([[0.0, 1.0], [1.0, 0.0]])}
_PAULI["XZ"] = _PAULI["X"] @ _PAULI["Z"]  # Z first, then X


def _ops_matrix(ops):
    first, second = parse_ops(ops)
    return np.kron(_PAULI[first], _PAULI[second])


def _einsum_leaves(alice, bob, table):
    """Dense kernel: every leaf's probability and both fidelities from one (64, 16) matrix."""
    psi = encode(prepare_full_state(alice, bob)).amps.reshape((2,) * len(FULL_LABELS))
    # H on every X-measured axis turns "+"/"-" into index 0/1.
    axes = list(range(len(FULL_LABELS)))
    operands, out = [psi, axes], list(axes)
    for k, (qubit, _) in enumerate(step for step in PLAN if step[1] == "X"):
        ax = FULL_LABELS.index(qubit)
        operands += [_H, [len(axes) + k, ax]]
        out[ax] = len(axes) + k
    psi = np.einsum(*operands, out)
    order = [FULL_LABELS.index(q) for q in PLAN_QUBITS + PAYLOAD_LABELS]
    mat = psi.transpose(order).reshape(64, 16)  # rows in leaf_index order
    probs = np.einsum("lk,lk->l", mat.conj(), mat).real
    payloads = (mat / np.sqrt(probs)[:, None]).reshape(64, 4, 4)  # (b1 b2) x (a2 a3)
    keys = product(*(OUTCOMES[basis] for _, basis in PLAN))
    bob_ops, alice_ops = zip(*(table[key] for key in keys))
    fixed = np.einsum(
        "lab,lbd,lcd->lac",
        np.array([_ops_matrix(o) for o in bob_ops]),
        payloads,
        np.array([_ops_matrix(o) for o in alice_ops]),
    )
    to_bob = np.abs(np.einsum("a,lac->lc", np.array([alice.c0, 0, 0, alice.c1]).conj(), fixed))
    to_alice = np.abs(np.einsum("c,lac->la", np.array([bob.c0, 0, 0, bob.c1]).conj(), fixed))
    return probs, (to_bob**2).sum(axis=1), (to_alice**2).sum(axis=1)


@PROPERTY
@given(payloads(), payloads())
def test_enumerate_branches_agrees_with_the_einsum_kernel(alice, bob):
    probs, to_bob, to_alice = _einsum_leaves(alice, bob, load_table())
    leaves = enumerate_branches(alice, bob)
    assert np.allclose([leaf.probability for leaf in leaves], probs, rtol=0, atol=ATOL)
    assert np.allclose([leaf.fidelity_alice_to_bob for leaf in leaves], to_bob, rtol=0, atol=ATOL)
    assert np.allclose([leaf.fidelity_bob_to_alice for leaf in leaves], to_alice, rtol=0, atol=ATOL)


@PROPERTY
@given(payloads(), payloads())
def test_walk_payloads_keep_register_invariants(alice, bob):
    # payloads are Register._rows views, never validated: check what the constructor would
    tree = Tree(alice, bob)
    assert not tree.payloads.flags.writeable
    for _, payload in oracles.tree_leaves(tree).values():
        assert not payload.amps.flags.writeable
        assert np.all(np.isfinite(payload.amps))
        assert abs(np.linalg.norm(payload.amps) - 1.0) <= ATOL
        for labels in (BOB_PAYLOAD_LABELS, ALICE_PAYLOAD_LABELS, PAYLOAD_LABELS):
            rho = reduced_density(payload, labels)
            DensityMatrix(rho.labels, rho.mat)


# ---------------------------------------------------------------------------
# report renderer
# ---------------------------------------------------------------------------

def _oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\U0001f600') | st.characters())

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.integers(-(2**200), -(2**64))
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
    | _text
    | st.floats().map(np.float64)
)

_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_text, inner),
    max_leaves=40,
)


@settings(PROPERTY, max_examples=100)
@given(_json_values, st.integers(0, 4))
def test_render_matches_json_dumps(value, depth):
    # the text of ``value`` at ``depth``, spliced into ``depth`` nested lists
    text, nested = _dumps(value, depth), value
    for level in reversed(range(depth)):
        text = "[\n" + "  " * (level + 1) + text + "\n" + "  " * level + "]"
        nested = [nested]
    assert text == _oracle(nested)


@pytest.mark.parametrize("expected", [None, 0.5392000000000001, 1.0])
@pytest.mark.parametrize("base", [0, 0xB97, 0xFFFFFFFFFFFFFFF8])
def test_templated_trial_rows_render_as_their_plain_dicts(capsys, expected, base):
    # what `bqtsim run` writes: each leaf's fields rendered once, "seed" and "trial" spliced in last
    heads = [
        {
            "expected_fidelity": expected,
            "fidelity_alice_to_bob": fidelity,
            "fidelity_bob_to_alice": 1.0,
            "leaf": leaf,
            "outcomes": dict(zip(PLAN_QUBITS, outcomes)),
        }
        for leaf, fidelity, outcomes in ((9, 0.9999999999999998, (0, "+", 1, "+", "+", "-")),
                                         (63, 0.0784, (1, "-", 1, "-", "-", "-")))
    ]
    leaves = [i % 2 for i in range(16)]
    rows = _trial_rows({leaf: _open(heads[leaf], ("seed", "trial"), 2) for leaf in (0, 1)}, leaves, base)
    plain = [{**heads[leaf], "seed": session_seed(base, i), "trial": i} for i, leaf in enumerate(leaves)]
    assert [row["seed"] for row in plain[7:9]] == [(base + 7) % 2**64, (base + 8) % 2**64]
    args = argparse.Namespace(format="json", out=None)
    spliced = {"trials": rows, "transcripts": [_dumps(head, 2) for head in heads], "unused": []}
    assert _report(args, "s/1", {"base": base}, {"histogram": {"z": [expected]}}, True, [], spliced) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    stamped = [line for line in lines if line.startswith('  "timestamp": ')]
    assert len(stamped) == 1
    lines.remove(stamped[0])
    want = {"schema": "s/1", "config": {"base": base}, "histogram": {"z": [expected]}, "pass": True,
            "trials": plain, "transcripts": heads, "unused": []}
    assert "".join(lines) == _oracle(want) + "\n"


@pytest.mark.parametrize("tail", [{"leaf": 1}, {"a": 1}, {"seed": 1, "expected_fidelity": None}])
def test_a_row_whose_tail_does_not_sort_last_is_refused(tail):
    with pytest.raises(ValueError):
        _open({"expected_fidelity": None, "leaf": 0}, tail, 2)


@pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, [np.bool_(False)], {"k": {"s": {3}}}])
def test_render_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        _oracle(value)
    with pytest.raises(TypeError):
        _dumps(value, 2)
