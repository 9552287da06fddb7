"""The protocol as two independent 5-qubit teleportations: an oracle for the 10-qubit walk.

The ten qubits split into two halves that never interact.  Half A is the
triple (a1, b1, b2) with Alice's input (A1, A2): its CNOT is A1 -> a1, its
plan a1 Z, A2 X, A1 X, and its payload lands on Bob's (b1, b2).  Half B is
the triple (a2, a3, b3) with Bob's input (B1, B2): its CNOT is B1 -> b3, its
plan b3 Z, B2 X, B1 X, and its payload lands on Alice's (a2, a3).

Each half is built here from ``ghz_state``, ``apply_cnot`` and
``qsim.measure(force=)``, one call per node, and shares no arithmetic with
the 10-qubit walk.  Its sums run in another order, so the last bits differ
and every comparison is within ``ATOL``.  The halves stay an oracle: the
walk's bits are what the goldens pin.
"""

from itertools import product

import numpy as np
import pytest

from bqtsim.corrections import FACTORS, LEAF_KEYS, MEASUREMENT_PLAN, OUTCOMES, PLAN_QUBITS, apply_ops, load_table
from bqtsim.ghz import ghz_state
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    EprInput,
    Tree,
    enumerate_batch,
    enumerate_branches,
    noncooperation_fidelity,
)
from bqtsim.qsim import ATOL, apply_cnot, fidelity_pure, measure, reduced_density, tensor

#: Each half: its triple, its sender's input labels, its CNOT, its plan, and where its payload lands.
HALVES = {
    "A": (("a1", "b1", "b2"), ("A1", "A2"), ("A1", "a1"), (("a1", "Z"), ("A2", "X"), ("A1", "X")),
          BOB_PAYLOAD_LABELS),
    "B": (("a2", "a3", "b3"), ("B1", "B2"), ("B1", "b3"), (("b3", "Z"), ("B2", "X"), ("B1", "X")),
          ALICE_PAYLOAD_LABELS),
}

#: Each withheld announcement: the half that sends the starved direction, and the table column.
STARVED = {"A1": ("A", 0), "B1": ("B", 1)}

#: Each measured qubit's basis.
BASES = dict(MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1])


def _random_epr(rng):
    v = rng.normal(size=4)
    return EprInput.normalized(complex(v[0], v[1]), complex(v[2], v[3]))


_RNG = np.random.default_rng(0x4A1F)
PAIRS = [(_random_epr(_RNG), _random_epr(_RNG)) for _ in range(24)]


def half_leaves(half, epr):
    """{outcomes in the half's plan order: (probability, payload register)} of one half."""
    triple, inputs, (control, target), plan, payload_labels = HALVES[half]
    state = apply_cnot(tensor(ghz_state(0, triple), epr.register(inputs)), control, target)
    leaves = {}
    for outcomes in product(*(OUTCOMES[basis] for _, basis in plan)):
        reg, prob = state, 1.0
        for (qubit, basis), outcome in zip(plan, outcomes):
            res = measure(reg, qubit, basis, force=outcome)
            reg, prob = res.register, prob * res.probability
        assert reg.labels == payload_labels
        leaves[outcomes] = prob, reg
    return leaves


def _split(key):
    """A full leaf key (a1, A2, b3, B2, A1, B1) as its half A and half B keys."""
    outcomes = dict(zip(PLAN_QUBITS, key))
    return tuple(tuple(outcomes[q] for q, _ in HALVES[half][3]) for half in "AB")


@pytest.mark.parametrize("n", range(len(PAIRS)))
def test_every_payload_and_probability_is_the_product_of_the_halves(n):
    alice, bob = PAIRS[n]
    halves = half_leaves("A", alice), half_leaves("B", bob)
    tree = Tree(alice, bob)
    for leaf in enumerate_branches(alice, bob):
        key = tuple(leaf.outcomes().values())
        (prob_a, reg_a), (prob_b, reg_b) = (leaves[k] for leaves, k in zip(halves, _split(key)))
        assert leaf.probability == pytest.approx(prob_a * prob_b, abs=ATOL, rel=0)
        product_state = tensor(reg_a, reg_b)
        assert product_state.labels == leaf.post_state.labels
        assert np.allclose(tree.payloads[leaf.index], product_state.amps, atol=ATOL, rtol=0)


def test_each_receivers_column_of_the_table_reads_only_its_senders_half():
    # so the deprived receiver's correction is a function of one half's outcomes
    table = load_table()
    for half, column in STARVED.values():
        side = "AB".index(half)
        by_half = {}
        for key, ops in table.items():
            assert by_half.setdefault(_split(key)[side], ops[column]) == ops[column], (key, half)
        assert len(by_half) == 8


@pytest.mark.parametrize("withheld", sorted(STARVED))
def test_noncooperation_fidelity_is_the_deprived_average_on_the_senders_half(withheld):
    half, column = STARVED[withheld]
    labels, plan = HALVES[half][4], HALVES[half][3]
    table = load_table()
    for alice, bob in PAIRS:
        epr = (alice, bob)["AB".index(half)]
        target = epr.register(labels)
        expected = 0.0
        for outcomes, (prob, payload) in half_leaves(half, epr).items():
            # the receiver hears the half's first two results and reads the withheld one as "+"
            heard = dict(zip((q for q, _ in plan), outcomes[:2] + ("+",)))
            key = tuple(heard.get(q, OUTCOMES[BASES[q]][0]) for q in PLAN_QUBITS)
            fixed = apply_ops(payload, labels, table[key][column])
            expected += prob * fidelity_pure(reduced_density(fixed, labels), target)
        got = noncooperation_fidelity(epr, withheld)
        assert got == pytest.approx(expected, abs=ATOL, rel=0)
        assert got == pytest.approx(abs(epr.c0) ** 4 + abs(epr.c1) ** 4, abs=ATOL, rel=0)


@pytest.mark.parametrize("seed", range(20))
def test_each_directions_fidelity_at_every_leaf_reads_only_its_senders_input(seed):
    # a random legal table, so the fidelities spread over [0, 1], not only 1
    rng = np.random.default_rng(seed)
    legal = ["".join(pair) for pair in product(FACTORS, repeat=2)]
    table = {key: tuple(rng.choice(legal, size=2).tolist()) for key in LEAF_KEYS}
    sender, others = _random_epr(rng), [_random_epr(rng) for _ in range(3)]
    for column, pairs in ((0, [(sender, other) for other in others]), (1, [(other, sender) for other in others])):
        fidelities = enumerate_batch(pairs, table).fidelities[:, :, column]
        assert np.ptp(fidelities) > 0.5
        assert np.allclose(fidelities, fidelities[0], atol=ATOL, rtol=0)
