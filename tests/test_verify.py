"""Verification battery internals: the published-table permutation search,
fault injection through corrupted correction tables, and result plumbing.

The battery's pass/fail gates themselves are exercised in
``test_acceptance.py``; here we check that the machinery can also fail.
"""

import math

import numpy as np
import pytest

import oracles
from bqtsim import protocol, qsim, verify
from bqtsim.corrections import MEASUREMENT_PLAN, load_table
from bqtsim.protocol import EprInput
from bqtsim.verify import (
    CRITERIA,
    DEFAULT_SEED,
    criterion_branch_uniformity,
    criterion_correction_rules,
    criterion_engine_properties,
    criterion_noncooperation,
    criterion_reconstruction,
    criterion_reference_branches,
    criterion_sampling,
    criterion_swap_exhaustive,
    criterion_swap_reference,
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
    assert leaf_histogram_gate([64] * 64) == (0.0, True)  # a sequence is read as an array
    # anything but 64 non-negative integer counts with a positive total is refused with one line
    for counts, message in [
        (np.zeros(64, dtype=int), "leaf counts must have a positive total, got 0"),
        (np.r_[-1, np.full(63, 65)], "leaf counts must be non-negative, got -1"),
        (np.array([4096]), "expected 64 integer leaf counts, got shape (1,) of int64"),
        (np.full(64, 64.0), "expected 64 integer leaf counts, got shape (64,) of float64"),
        (np.full(64, True), "expected 64 integer leaf counts, got shape (64,) of bool"),
        (np.full((8, 8), 64), "expected 64 integer leaf counts, got shape (8, 8) of int64"),
        (4096, "expected 64 integer leaf counts, got shape () of int64"),
        ([[64] * 63, [64] * 65], "expected 64 integer leaf counts, got a ragged sequence"),
    ]:
        with pytest.raises(ValueError) as raised:
            leaf_histogram_gate(counts)
        assert str(raised.value) == message


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


@pytest.mark.parametrize(
    "branch, name",
    [
        ((2, "+", 0, "+"), "a1"),
        ((0, "x", 0, "+"), "A2"),
        ((0, "+", True, "+"), "b3"),
        ((0, "+", 0, None), "B2"),
        (([0], "+", 0, "+"), "a1"),
    ],
    ids=["out-of-range", "bad-sign", "bool", "none", "unhashable"],
)
def test_reference_branch_terms_rejects_a_bad_branch(branch, name):
    with pytest.raises(ValueError, match=f"^{name} must be one of"):
        reference_branch_terms(*branch)


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
    result = criterion_reconstruction(verify._SharedWalk(DEFAULT_SEED, 2))
    assert result.passed
    assert result.name == "bidirectional-reconstruction"
    assert result.line().startswith("PASS  bidirectional-reconstruction")


def test_reconstruction_criterion_fails_with_corrupted_table():
    table = dict(load_table())
    table[(0, "+", 0, "+", "+", "+")] = ("XX", "II")  # sabotage one leaf
    result = criterion_reconstruction(verify._SharedWalk(DEFAULT_SEED, 1), table)
    assert not result.passed
    assert result.line().startswith("FAIL")


def test_reconstruction_criterion_fails_on_crash():
    table = dict(load_table())
    del table[(0, "+", 0, "+", "+", "+")]  # missing key crashes enumeration
    result = criterion_reconstruction(verify._SharedWalk(DEFAULT_SEED, 1), table)
    assert not result.passed
    assert "KeyError" in result.detail


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: criterion_sampling(7, trials=64), "unexpected keyword argument 'trials'"),
        (lambda: criterion_swap_reference(1), "positional argument"),
    ],
    ids=["unknown-keyword", "extra-positional"],
)
def test_a_criterion_called_wrongly_raises_instead_of_failing(call, message):
    with pytest.raises(TypeError, match=message):
        call()


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
    # sessions 1..4095 of this battery seed wrap to 0..4094 instead of raising
    result = criterion_sampling(2**64 - 1)
    assert result.detail.startswith("4096 sessions, max |z|"), result.detail


# ---------------------------------------------------------------------------
# one walk per battery: the battery against its criteria run alone
# ---------------------------------------------------------------------------

def _rows(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _alone(seed, table=None):
    """Each criterion called on its own, in battery order, as ``run_all`` calls them: uniformity
    and reconstruction each handed a walk of the seed's pairs of its own."""
    return [
        criterion_swap_reference(),
        criterion_swap_exhaustive(),
        criterion_branch_uniformity(verify._SharedWalk(seed)),
        criterion_reference_branches(seed),
        criterion_reconstruction(verify._SharedWalk(seed), table),
        criterion_correction_rules(),
        criterion_noncooperation(),
        criterion_sampling(seed),
        criterion_engine_properties(seed),
    ]


def _table(case):
    table = dict(load_table())
    if case == "sabotaged":
        table[(1, "-", 1, "-", "-", "-")] = ("II", "II")
    elif case == "missing-key":
        del table[(0, "+", 0, "+", "+", "+")]
    elif case == "malformed":
        table[(0, "-", 1, "+", "-", "+")] = ("II", 5)
    return table


@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**64 - 1])
@pytest.mark.parametrize("case", ["packaged", "sabotaged", "missing-key", "malformed", "floor-above-half"])
def test_the_battery_equals_its_criteria_run_alone(monkeypatch, case, seed):
    table = None
    if case == "floor-above-half":  # every walk raises at its first step, the shared one too
        monkeypatch.setattr(qsim, "MIN_FORCE_PROB", 0.6)
    elif case != "packaged":
        table = _table(case)
    battery = _rows(run_all(seed, table=table))
    assert battery == _rows(_alone(seed, table))
    failed = {name for name, passed, _ in battery if not passed}
    if case in ("sabotaged", "missing-key", "malformed"):
        assert failed == {"bidirectional-reconstruction"}
    elif case == "floor-above-half":
        assert {"branch-uniformity", "bidirectional-reconstruction"} <= failed


def test_a_failed_shared_walk_is_not_kept(monkeypatch):
    shared = verify._SharedWalk(DEFAULT_SEED)
    with monkeypatch.context() as patched:
        patched.setattr(qsim, "MIN_FORCE_PROB", 0.6)
        alone = criterion_branch_uniformity(verify._SharedWalk(DEFAULT_SEED))
        failed = criterion_branch_uniformity(shared)
    assert not failed.passed and failed.detail == alone.detail
    assert failed.detail.startswith("raised ValueError: outcome 0 on ('a1',)")
    # with the floor back, the next reader walks afresh and passes as the criterion alone does
    assert _rows([criterion_reconstruction(shared)]) == _rows(
        [criterion_reconstruction(verify._SharedWalk(DEFAULT_SEED))]
    )
    assert shared._round_one is not None and shared.round_one() is shared._round_one


def test_a_shared_walk_failing_in_round_two_leaves_uniformity_as_it_is_alone(monkeypatch):
    # The floor is seed 32's least round-one step probability under the running arithmetic
    # (0.4999999999999998 with OpenBLAS's SkylakeX kernels), and some round-two one lies below
    # it, so at this floor only the whole walk raises: uniformity, on a walk of its own, reads
    # round one and passes, and so it does in the battery.
    walk = verify._SharedWalk(32)
    floor = min(float(steps.min()) for _, _, steps in walk.round_one())
    assert any(steps[:, len(MEASUREMENT_PLAN[0]):].min() < floor for _, _, steps in walk.leaves()), \
        f"no round-two step probability lies below the round-one floor {floor!r} on this arithmetic"
    monkeypatch.setattr(qsim, "MIN_FORCE_PROB", floor)
    battery = _rows(run_all(32))
    assert battery == _rows(_alone(32))
    passed = {name: ok for name, ok, _ in battery}
    assert passed["branch-uniformity"] and not passed["bidirectional-reconstruction"]


@pytest.mark.parametrize("seed", [2**64, True, -1, 1.5, "7"], ids=repr)
def test_the_battery_refuses_a_bad_seed_before_any_criterion_runs(monkeypatch, seed):
    ran = []
    for name in dir(verify):
        if name.startswith("criterion_"):
            monkeypatch.setattr(verify, name, lambda *args, name=name, **kwargs: ran.append(name))
    with pytest.raises(ValueError) as raised:
        run_all(seed)
    assert str(raised.value) == f"seed must be an integer in [0, 2**64), got {seed!r}"
    assert ran == []


@pytest.mark.parametrize("n_inputs", [0, -5, True, 1.5], ids=repr)
def test_a_walk_of_no_pairs_is_refused(n_inputs):
    with pytest.raises(ValueError) as raised:
        verify._SharedWalk(7, n_inputs)
    assert str(raised.value) == f"n_inputs must be a positive integer, got {n_inputs!r}"


@pytest.mark.parametrize("n_inputs", [1, verify._CHUNK_PAIRS, 23, 100])
@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**64 - 1])
def test_a_shared_walks_leaves_are_each_chunks_whole_walk(seed, n_inputs):
    chunks = list(verify._random_pairs(np.random.default_rng(seed), n_inputs))
    leaves = list(verify._SharedWalk(seed, n_inputs).leaves())
    assert len(leaves) == len(chunks) == -(-n_inputs // verify._CHUNK_PAIRS)
    for got, chunk in zip(leaves, chunks):
        for mine, want in zip(got, protocol._walk_pairs(chunk), strict=True):
            assert (mine.shape, mine.tobytes()) == (want.shape, want.tobytes())


def test_each_round_is_walked_once_per_chunk(monkeypatch):
    chunks = list(verify._random_pairs(np.random.default_rng(DEFAULT_SEED), 100))
    firsts = [protocol._walk_pairs(chunk, MEASUREMENT_PLAN[0])[1] for chunk in chunks]
    walks, walk_pairs, walk_rows = [], verify._walk_pairs, verify._walk_rows

    def counted_pairs(pairs, plan=protocol._PLAN):  # round one, or the whole plan, of a chunk
        if pairs in chunks:
            walks.append(("one" if plan == MEASUREMENT_PLAN[0] else "whole", chunks.index(pairs)))
        return walk_pairs(pairs, plan)

    def counted_rows(labels, rows, plan):  # round two, from a chunk's round-one rows
        walks.append(("two", next(k for k, first in enumerate(firsts) if np.array_equal(rows, first))))
        return walk_rows(labels, rows, plan)

    monkeypatch.setattr(verify, "_walk_pairs", counted_pairs)
    monkeypatch.setattr(verify, "_walk_rows", counted_rows)
    one, two = [("one", k) for k in range(10)], [("two", k) for k in range(10)]

    assert all(result.passed for result in run_all(DEFAULT_SEED))
    assert walks == one + two
    walks.clear()
    assert criterion_branch_uniformity(verify._SharedWalk(DEFAULT_SEED)).passed  # alone, it never walks round two
    assert walks == one
    walks.clear()
    assert criterion_reconstruction(verify._SharedWalk(DEFAULT_SEED)).passed
    assert walks == one + two


def _encodings(monkeypatch) -> list:
    """Alice's input rows of every ``protocol._encode_rows`` call from now on, one array per call."""
    calls, encode_rows = [], protocol._encode_rows

    def counted(alice, bob):
        calls.append(alice.copy())
        return encode_rows(alice, bob)

    monkeypatch.setattr(protocol, "_encode_rows", counted)
    return calls


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 2**64 - 1])
def test_each_battery_encodes_its_seeds_pairs_once(monkeypatch, seed):
    chunks = [protocol._input_rows(pairs)[0]
              for pairs in verify._random_pairs(np.random.default_rng(seed), 100)]
    calls = _encodings(monkeypatch)

    def encoded():  # times each chunk of the seed's 100 pairs went through the encoder
        return [sum(np.array_equal(call, chunk) for call in calls) for chunk in chunks]

    run_all(seed)
    assert len(chunks) == 10 and encoded() == [1] * 10
    run_all(seed)  # no walk outlives its battery: the same seed is walked again
    assert encoded() == [2] * 10
    criterion_branch_uniformity(verify._SharedWalk(seed))  # a walk of its own each: its own encodings
    criterion_reconstruction(verify._SharedWalk(seed))
    assert encoded() == [4] * 10


def test_non_cooperation_walks_its_six_pairs_in_one_batch(monkeypatch):
    calls = _encodings(monkeypatch)
    assert criterion_noncooperation().passed
    assert [len(call) for call in calls] == [6]


# ---------------------------------------------------------------------------
# engine-properties: batched cases against the case-by-case loop
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


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("cases", [0, 1, 1000])
def test_engine_draws_leave_the_generator_where_the_loop_leaves_it(monkeypatch, seed, cases):
    made, default_rng = [], np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    verify._engine_worsts(seed, cases)
    oracles.engine_properties(seed, cases)
    ours, loop = made
    assert ours.bit_generator.state == loop.bit_generator.state


def test_engine_worsts_match_the_loop_past_1000_cases():
    for cases in (1001, 2500):
        assert _hex(verify._engine_worsts(11, cases)) == _hex(oracles.engine_properties(11, cases)), cases


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


def test_engine_criterion_runs_the_row_kernel_of_the_walk(monkeypatch):
    # A kernel that leaves every row in its fronted order, never laid back.
    def fronted(rows, labels, qubits, matrix):
        shape = (len(rows),) + (2,) * len(labels)
        psi = rows.reshape(shape).transpose(qsim._axis_order(labels, tuple(qubits)))
        psi = matrix @ psi.reshape(len(rows), matrix.shape[-1], -1)
        return psi.reshape(len(rows), -1)

    monkeypatch.setattr(qsim, "_apply_rows", fronted)
    result = criterion_engine_properties(7)
    assert not result.passed
    assert float(result.detail.rsplit(" ", 1)[1]) > 1.0


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
