"""Acceptance gate: the nine verification criteria, one test each.

Every test runs its criterion at the documented default seed, prints the
criterion's PASS/FAIL line (visible with ``pytest -s`` or on failure), and
asserts the gate.  Tolerances live inside the criteria themselves:
probabilities and amplitudes at 1e-12, reconstruction fidelity at
1 - 1e-10, sampled leaf frequencies within four sigma of uniform.
"""

from bqtsim.verify import (
    DEFAULT_SEED,
    _SharedWalk,
    criterion_branch_uniformity,
    criterion_correction_rules,
    criterion_engine_properties,
    criterion_noncooperation,
    criterion_reconstruction,
    criterion_reference_branches,
    criterion_sampling,
    criterion_swap_exhaustive,
    criterion_swap_reference,
)


def _gate(result):
    print(result.line())
    assert result.passed, result.line()


def test_swap_reference_pairing():
    """Reference swap pairs outcomes {0,1,6,7} with remainders {0,1,2,3} at 1/4."""
    _gate(criterion_swap_reference())


def test_swap_exhaustive():
    """All 64 channel pairs give four equiprobable, classifiable outcomes."""
    _gate(criterion_swap_exhaustive())


def test_branch_uniformity():
    """Each first-round outcome combination has probability 1/16, input-independently."""
    _gate(criterion_branch_uniformity(_SharedWalk(DEFAULT_SEED)))


def test_reference_branch_content():
    """Published branch rows match simulation under a fixed slot relabeling."""
    _gate(criterion_reference_branches(DEFAULT_SEED))


def test_bidirectional_reconstruction():
    """All 64 corrected leaves reach fidelity 1 in both directions."""
    _gate(criterion_reconstruction(_SharedWalk(DEFAULT_SEED)))


def test_correction_rules():
    """Announcement-keyed published correction rules repair the worked branch."""
    _gate(criterion_correction_rules())


def test_non_cooperation_bound():
    """Withholding one announcement caps the deprived fidelity at |c0|^4+|c1|^4."""
    _gate(criterion_noncooperation())


def test_sampling_consistency():
    """Seeded sessions hit all leaves uniformly and replay byte-identically."""
    _gate(criterion_sampling(DEFAULT_SEED))


def test_engine_properties():
    """Gate unitarity, Born completeness, collapse norms, partial-trace purity."""
    _gate(criterion_engine_properties(DEFAULT_SEED))
