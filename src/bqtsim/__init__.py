"""bqtsim — bidirectional teleportation of EPR payloads over two GHZ triples.

The package layers as follows:

* :mod:`bqtsim.qsim` — dense state-vector engine over named qubits.
* :mod:`bqtsim.ghz` — the eight-state GHZ basis and entanglement swapping.
* :mod:`bqtsim.protocol` — the protocol's steps and ``Tree``, the one exact
  64-leaf tree of an input pair, which owns delivery; ``enumerate_batch``
  walks and delivers many pairs' leaves in one batch.
* :mod:`bqtsim.corrections` — the announcement-keyed Pauli-correction table.
* :mod:`bqtsim.parties` — two-party sessions with replayable transcripts
  and a structural audit.
* :mod:`bqtsim.verify` — the nine-criterion self-verification battery.
* :mod:`bqtsim.cli` — the ``bqtsim`` command-line front end.
"""

from types import ModuleType as _ModuleType

from .corrections import (
    TABULATED_RULES,
    apply_ops,
    generate_correction_table,
    load_table,
    parse_ops,
    write_table,
)
from .ghz import SwapOutcome, entanglement_swap, ghz_basis_measure, ghz_state
from .parties import (
    COOPERATION_MODES,
    SessionResult,
    Transcript,
    ownership_check,
    run_session,
    run_sessions,
    session_seed,
)
from .protocol import (
    BranchLeaf,
    EprInput,
    encode,
    enumerate_batch,
    enumerate_branches,
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

#: Each name imported above, and the version: every export is written once, in its import.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
