"""bqtsim — bidirectional teleportation of EPR payloads over two GHZ triples.

The package layers as follows:

* :mod:`bqtsim.qsim` — dense state-vector engine over named qubits; the one
  place a state is collapsed by a measurement.
* :mod:`bqtsim.ghz` — the eight-state GHZ basis; GHZ-basis measurement and
  entanglement swapping go through ``qsim``'s collapse.
* :mod:`bqtsim.protocol` — channel preparation, encoding (``ENCODING``),
  the one measurement walk (``walk_round``/``walk_leaves``) that every
  enumerated, forced or sampled measurement goes through, delivery, branch
  enumeration, and the non-cooperation fidelity bound.
* :mod:`bqtsim.corrections` — announcement-keyed Pauli-correction table
  (keys, minimality, serialization, packaged asset); the table itself is
  generated by ``protocol.generate_correction_table``.
* :mod:`bqtsim.parties` — two-party sessions that play the protocol's own
  steps and add ownership tracking, announcement rounds, replayable
  transcripts, and a structural audit.
* :mod:`bqtsim.verify` — the nine-criterion self-verification battery.
* :mod:`bqtsim.cli` — the ``bqtsim`` command-line front end; every
  subcommand's report is assembled and written by one builder.
"""

from .corrections import (
    TABULATED_RULES,
    apply_ops,
    load_table,
    minimal_correction,
    parse_ops,
    write_table,
)
from .ghz import SwapOutcome, entanglement_swap, ghz_basis_measure, ghz_state
from .parties import COOPERATION_MODES, SessionResult, Transcript, ownership_check, run_session
from .protocol import (
    BranchLeaf,
    EprInput,
    correct,
    encode,
    enumerate_branches,
    generate_correction_table,
    leaf_index,
    noncooperation_fidelity,
    prepare_channel,
    prepare_full_state,
)
from .qsim import (
    DensityMatrix,
    MeasureResult,
    Register,
    apply_cnot,
    apply_gate1,
    equal_up_to_global_phase,
    fidelity_pure,
    make_register,
    measure,
    outcome_probabilities,
    permute,
    reduced_density,
    tensor,
)
from .verify import CRITERIA, DEFAULT_SEED, CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "BranchLeaf",
    "COOPERATION_MODES",
    "CRITERIA",
    "CriterionResult",
    "DEFAULT_SEED",
    "DensityMatrix",
    "EprInput",
    "MeasureResult",
    "Register",
    "SessionResult",
    "SwapOutcome",
    "TABULATED_RULES",
    "Transcript",
    "apply_cnot",
    "apply_gate1",
    "apply_ops",
    "correct",
    "encode",
    "entanglement_swap",
    "enumerate_branches",
    "equal_up_to_global_phase",
    "fidelity_pure",
    "generate_correction_table",
    "ghz_basis_measure",
    "ghz_state",
    "leaf_index",
    "load_table",
    "make_register",
    "measure",
    "minimal_correction",
    "noncooperation_fidelity",
    "outcome_probabilities",
    "ownership_check",
    "parse_ops",
    "permute",
    "prepare_channel",
    "prepare_full_state",
    "reduced_density",
    "run_all",
    "run_session",
    "tensor",
    "write_table",
    "__version__",
]
