"""Property tests over arbitrary normalized complex payloads.

Hypothesis draws the payload amplitudes; every property holds for any
input pair, so a failure names a concrete counterexample.  Runs are
derandomized: the same examples are drawn on every run.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bqtsim.corrections import FACTORS, apply_ops, load_table
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    FIDELITY_FLOOR,
    EprInput,
    deliver,
    delivery_targets,
    encode,
    enumerate_branches,
    noncooperation_fidelity,
    prepare_full_state,
    walk_leaves,
)
from bqtsim.qsim import fidelity_pure, reduced_density

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None)

_part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def payloads(draw) -> EprInput:
    c0 = complex(draw(_part), draw(_part))
    c1 = complex(draw(_part), draw(_part))
    assume(np.hypot(abs(c0), abs(c1)) >= 1e-6)
    return EprInput.normalized(c0, c1)


_ops = st.tuples(st.sampled_from(FACTORS), st.sampled_from(FACTORS)).map("".join)


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
    ((_, _, payload),) = walk_leaves(encode(prepare_full_state(alice, bob)), key)
    fixed = apply_ops(payload, BOB_PAYLOAD_LABELS, bob_ops)
    fixed = apply_ops(fixed, ALICE_PAYLOAD_LABELS, alice_ops)
    to_bob = fidelity_pure(
        reduced_density(fixed, BOB_PAYLOAD_LABELS), alice.register(BOB_PAYLOAD_LABELS)
    )
    to_alice = fidelity_pure(
        reduced_density(fixed, ALICE_PAYLOAD_LABELS), bob.register(ALICE_PAYLOAD_LABELS)
    )
    delivered, *fidelities = deliver(payload, (bob_ops, alice_ops), delivery_targets(alice, bob))
    assert fidelities == [to_bob, to_alice]
    assert delivered.labels == fixed.labels
    assert np.array_equal(delivered.amps, fixed.amps)
