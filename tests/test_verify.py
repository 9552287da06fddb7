"""Verification battery internals: the published-table permutation search,
fault injection through corrupted correction tables, and result plumbing.

The battery's pass/fail gates themselves are exercised in
``test_acceptance.py``; here we check that the machinery can also fail.
"""

import math

import numpy as np
import pytest

import oracles
from bqtsim import qsim, verify
from bqtsim.corrections import load_table
from bqtsim.protocol import EprInput
from bqtsim.verify import (
    CRITERIA,
    DEFAULT_SEED,
    criterion_engine_properties,
    criterion_reconstruction,
    criterion_sampling,
    find_reference_permutations,
    leaf_histogram_gate,
    reference_branch_terms,
    run_all,
)

CANONICAL_SLOTS = ("A1", "B1", "b1", "b2", "a2", "a3")


def test_default_seed_value():
    assert DEFAULT_SEED == 0xB97


def test_leaf_histogram_gate():
    assert leaf_histogram_gate(np.full(64, 64)) == (0.0, True)
    # Over 4096 trials, k extra hits on one leaf give z = k / sqrt(63):
    # 31 hits sit 3.91 sigma out, 32 hits 4.03.
    for extra, within in ((31, True), (32, False)):
        counts = np.full(64, 64)
        counts[0] += extra
        counts[1] -= extra
        max_z, ok = leaf_histogram_gate(counts)
        assert ok is within
        assert max_z == pytest.approx(extra / np.sqrt(63), rel=1e-12)


def test_the_gates_false_alarm_rate_is_0_6791_percent():
    # One leaf passes the gate at counts 33..95 of 4096 trials, read off the gate
    # itself: the other 63 leaves share the rest and stay near 64, inside the band.
    trials, leaves = 4096, 64
    def passes(count):
        rest = np.full(leaves - 1, (trials - count) // (leaves - 1))
        rest[: (trials - count) % (leaves - 1)] += 1
        return leaf_histogram_gate(np.concatenate(([count], rest)))[1]
    band = [count for count in range(301) if passes(count)]
    assert band == list(range(33, 96))
    # Multinomial counts are 64 independent Poisson(64) counts conditioned on their
    # sum: P(every leaf in band) = (64-fold convolution of the in-band pmf)(4096)
    # over the Poisson(4096) pmf at 4096.
    def pmf(mean, count):
        return np.exp(count * np.log(mean) - mean - np.array([math.lgamma(c + 1) for c in count]))
    power, base, k = np.ones(1), np.zeros(band[-1] + 1), leaves
    base[band] = pmf(leaves * 1.0, np.array(band))
    while k:  # the convolution power by squaring, cut at the sum that matters
        if k & 1:
            power = np.convolve(power, base)[: trials + 1]
        base, k = np.convolve(base, base)[: trials + 1], k >> 1
    inside = power[trials] / pmf(float(trials), np.array([trials]))[0]
    assert round(100 * (1 - inside), 4) == 0.6791


def test_reference_branch_terms_worked_branch():
    rows = reference_branch_terms(0, "+", 0, "+")
    assert rows == [
        (1, (0, 0), "000000"),
        (1, (0, 1), "010011"),
        (1, (1, 0), "101100"),
        (1, (1, 1), "111111"),
    ]


def test_reference_branch_terms_sign_rows():
    signs = [row[0] for row in reference_branch_terms(1, "-", 1, "-")]
    assert signs == [1, -1, -1, 1]
    kets = [row[2] for row in reference_branch_terms(1, "-", 1, "-")]
    assert kets == ["001111", "011100", "100011", "110000"]


def test_permutation_search_finds_canonical_assignment():
    rng = np.random.default_rng(DEFAULT_SEED)
    v = rng.normal(size=8)
    alice = EprInput.normalized(complex(v[0], v[1]), complex(v[2], v[3]))
    bob = EprInput.normalized(complex(v[4], v[5]), complex(v[6], v[7]))
    perms = find_reference_permutations(alice, bob)
    assert CANONICAL_SLOTS in perms
    # the published strings only pin the qubits up to the symmetric pairs
    # (b1, b2) and (a2, a3), so exactly four assignments survive
    assert len(perms) == 4
    for perm in perms:
        assert perm[0] == "A1" and perm[1] == "B1"
        assert set(perm[2:4]) == {"b1", "b2"}
        assert set(perm[4:6]) == {"a2", "a3"}


def test_permutation_search_excludes_register_order():
    # the published ket strings do NOT follow the simulator's remainder
    # register order (b1, b2, a2, a3, A1, B1); the search must reject it
    rng = np.random.default_rng(3)
    v = rng.normal(size=8)
    alice = EprInput.normalized(complex(v[0], v[1]), complex(v[2], v[3]))
    bob = EprInput.normalized(complex(v[4], v[5]), complex(v[6], v[7]))
    perms = find_reference_permutations(alice, bob)
    assert ("b1", "b2", "a2", "a3", "A1", "B1") not in perms


def test_reconstruction_criterion_passes_with_packaged_table():
    result = criterion_reconstruction(DEFAULT_SEED, n_inputs=2)
    assert result.passed
    assert result.name == "bidirectional-reconstruction"
    assert result.line().startswith("PASS  bidirectional-reconstruction")


def test_reconstruction_criterion_fails_with_corrupted_table():
    table = dict(load_table())
    table[(0, "+", 0, "+", "+", "+")] = ("XX", "II")  # sabotage one leaf
    result = criterion_reconstruction(DEFAULT_SEED, n_inputs=1, table=table)
    assert not result.passed
    assert result.line().startswith("FAIL")


def test_reconstruction_criterion_fails_on_crash():
    table = dict(load_table())
    del table[(0, "+", 0, "+", "+", "+")]  # missing key crashes enumeration
    result = criterion_reconstruction(DEFAULT_SEED, n_inputs=1, table=table)
    assert not result.passed
    assert "KeyError" in result.detail


def test_run_all_shape_and_names():
    results = run_all(seed=DEFAULT_SEED)
    assert tuple(r.name for r in results) == CRITERIA
    assert len(results) == 9
    for r in results:
        assert r.elapsed >= 0.0
        assert isinstance(r.detail, str) and r.detail


def test_run_all_propagates_bad_table():
    table = dict(load_table())
    table[(1, "-", 1, "-", "-", "-")] = ("II", "II")
    results = run_all(seed=DEFAULT_SEED, table=table)
    by_name = {r.name: r for r in results}
    assert not by_name["bidirectional-reconstruction"].passed
    # criteria that do not consult the injected table still pass
    assert by_name["swap-reference-pairing"].passed
    assert by_name["branch-uniformity"].passed


def test_sampling_criterion_wraps_seeds_past_2_64():
    # sessions 1..63 of this battery seed wrap to 0..62 instead of raising
    result = criterion_sampling(2**64 - 1, trials=64)
    assert result.detail.startswith("64 sessions, max |z|"), result.detail


# ---------------------------------------------------------------------------
# engine-properties: grouped cases against the case-by-case loop
# ---------------------------------------------------------------------------

def _hex(worsts):
    return [float(w).hex() for w in worsts]


def _engine_detail(cases, worsts):
    return f"{cases} cases per property, max deviation {max(worsts):.2e}"


@pytest.mark.parametrize("seed", range(50))
def test_engine_worsts_match_the_loop(seed):
    for cases in (0, 1, 7, 100):
        assert _hex(verify._engine_worsts(seed, cases)) == _hex(oracles.engine_properties(seed, cases)), cases


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7, 2**64 - 1])
def test_engine_criterion_matches_the_loop_at_1000_cases(seed):
    want = oracles.engine_properties(seed)
    assert _hex(verify._engine_worsts(seed, 1000)) == _hex(want)
    result = criterion_engine_properties(seed)
    assert result.passed and result.detail == _engine_detail(1000, want)


def test_engine_worsts_match_the_loop_past_1000_cases():
    for cases in (1001, 2500):
        assert _hex(verify._engine_worsts(11, cases)) == _hex(oracles.engine_properties(11, cases)), cases


def test_engine_criterion_with_no_cases():
    result = criterion_engine_properties(DEFAULT_SEED, cases=0)
    assert result.passed and result.detail == "0 cases per property, max deviation 0.00e+00"


@pytest.mark.parametrize(
    "name, value",
    [
        ("GATES", ("H", np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0))),  # not unitary
        ("_CNOT", np.eye(4, dtype=complex)[[0, 3, 1, 2]]),  # a 3-cycle: unitary, not an involution
    ],
    ids=["non-unitary-H", "non-involutive-CNOT"],
)
def test_engine_criterion_fails_on_a_broken_engine_as_the_loop_does(monkeypatch, name, value):
    if name == "GATES":
        monkeypatch.setitem(qsim.GATES, *value)
    else:
        monkeypatch.setattr(qsim, name, value)
    want = oracles.engine_properties(DEFAULT_SEED)
    assert max(want) > 1e-3
    assert _hex(verify._engine_worsts(DEFAULT_SEED, 1000)) == _hex(want)
    result = criterion_engine_properties(DEFAULT_SEED)
    assert not result.passed and result.detail == _engine_detail(1000, want)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3])
def test_engine_criterion_raises_the_loop_error_for_the_first_unlikely_outcome(monkeypatch, seed):
    # At this floor many sampled outcomes, in many groups, are too unlikely to
    # force.  At seeds 1, 2 and 3 the first of them in draw order is not in the
    # first group, in order of first appearance, that holds one.
    monkeypatch.setattr(qsim, "MIN_FORCE_PROB", 0.3)
    with pytest.raises(ValueError) as raised:
        oracles.engine_properties(seed)
    assert "has probability" in str(raised.value)
    result = criterion_engine_properties(seed)
    assert not result.passed
    assert result.detail == f"raised ValueError: {raised.value}"
