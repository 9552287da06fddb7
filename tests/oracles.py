"""Written-out per-leaf oracles of the protocol's row kernel.

``bqtsim.protocol`` corrects and scores many leaves in one call of its row
kernel (``Tree.deliver``, ``Tree.deprived``, ``deprived_fidelities``).
These oracles do the same one register at a time through the public gate
path -- ``corrections.apply_ops``, ``qsim.reduced_density`` and
``qsim.fidelity_pure`` -- and read the heard key straight from the
outcomes.  They share no code with the kernel, so the tests compare the
two by ``==``.
"""

import numpy as np

from bqtsim.corrections import PLAN_QUBITS, apply_ops
from bqtsim.protocol import ALICE_PAYLOAD_LABELS, BOB_PAYLOAD_LABELS
from bqtsim.qsim import DensityMatrix, fidelity_pure, reduced_density

#: Each withholdable announcement: the payload labels it starves and their table column.
STARVES = {"A1": (BOB_PAYLOAD_LABELS, 0), "B1": (ALICE_PAYLOAD_LABELS, 1)}


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
        key: (total, fidelity_pure(DensityMatrix._trusted(labels, mixed / total), target))
        for key, (total, mixed) in groups.items()
    }
