"""Self-verification battery for the full protocol stack.

Each criterion is a standalone function returning a :class:`CriterionResult`;
:func:`run_all` executes the whole battery with a fixed default seed so that
the CLI ``verify`` subcommand and the acceptance test suite share one
implementation.  Criteria with randomized inputs derive all randomness from
the given seed, so a verification run is reproducible end to end.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterator

import numpy as np

from .corrections import MEASUREMENT_PLAN, TABULATED_RULES, Table, leaf_index, load_table
from .ghz import _swap_rows, entanglement_swap
from .parties import _session_tree, run_session, run_sessions, session_seed
from .protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    DIRECTIONS,
    FIDELITY_FLOOR,
    REMAINDER_LABELS,
    EprInput,
    Pair,
    Tree,
    _delivered,
    _leaf_ops,
    _noncooperation_fidelities,
    _product,
    _walk_pairs,
    _walk_rows,
)
from . import qsim
from .qsim import (
    ATOL,
    OUTCOMES,
    _apply_rows,
    _branch_rows,
    _normalized,
    _picks,
    _row_norms,
    apply_gate1,
    make_register,
    tensor,
)

__all__ = [
    "CRITERIA",
    "DEFAULT_SEED",
    "SIGMA_GATE",
    "CriterionResult",
    "find_reference_permutations",
    "leaf_histogram_gate",
    "reference_branch_terms",
    "run_all",
]

#: Default verification seed.  The CLI accepts any 64-bit seed; this value
#: spells the protocol initials in hex-adjacent digits (B, 9 for Q, 7 for T)
#: and is the documented constant used when none is supplied.
DEFAULT_SEED = 0xB97

#: Sampled leaf frequencies pass when every one is within this many standard
#: deviations of the uniform 1/64.
SIGMA_GATE = 4.0

#: Random input pairs walked per batch by the criteria that draw many: one
#: batch's arrays grow with its pairs, so this bounds the battery's peak memory.
_CHUNK_PAIRS = 10

#: Seeded sessions drawn by sampling-consistency, and cases per property of engine-properties.
_SAMPLING_TRIALS = 4096
_ENGINE_CASES = 1000

_REGISTERED: list[str] = []  # criterion names, in definition (= battery) order


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.elapsed:.2f}s)  {self.detail}"


def leaf_histogram_gate(counts: np.ndarray) -> tuple[float, bool]:
    """Largest |z| of the sampled leaf frequencies against 1/64, and whether it passes.
    ``counts`` must be 64 non-negative integer counts with a positive total, else ValueError."""
    try:
        counts = np.asarray(counts)
    except ValueError:
        raise ValueError("expected 64 integer leaf counts, got a ragged sequence") from None
    if counts.shape != (64,) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"expected 64 integer leaf counts, got shape {counts.shape} of {counts.dtype}")
    if (counts < 0).any():
        raise ValueError(f"leaf counts must be non-negative, got {int(counts.min())}")
    trials = int(counts.sum())
    if trials == 0:
        raise ValueError("leaf counts must have a positive total, got 0")
    p = 1 / 64
    sigma = np.sqrt(p * (1 - p) / trials)
    max_z = float(np.max(np.abs(counts / trials - p)) / sigma)
    return max_z, max_z <= SIGMA_GATE


def _random_epr(rng: np.random.Generator) -> EprInput:
    v = rng.normal(size=4)
    c0, c1 = complex(v[0], v[1]), complex(v[2], v[3])
    return EprInput.normalized(c0, c1)


def _random_pairs(rng: np.random.Generator, n: int) -> Iterator[list[Pair]]:
    """``n`` random input pairs, Alice's input then Bob's, in chunks of at most ``_CHUNK_PAIRS``."""
    for start in range(0, n, _CHUNK_PAIRS):
        yield [(_random_epr(rng), _random_epr(rng)) for _ in range(min(_CHUNK_PAIRS, n - start))]


class _SharedWalk:
    """The seed's ``n_inputs`` (a positive int) random input pairs, walked in chunks, round by
    round: :func:`run_all` makes one and hands it to uniformity (:meth:`round_one`) and
    reconstruction (:meth:`leaves`).  A round that raises is not kept, so each reader walks
    it afresh and meets the error itself."""

    def __init__(self, seed: int, n_inputs: int = 100) -> None:
        if not isinstance(n_inputs, int) or isinstance(n_inputs, bool) or n_inputs < 1:
            raise ValueError(f"n_inputs must be a positive integer, got {n_inputs!r}")
        self.seed, self.n_inputs, self._round_one = seed, n_inputs, None

    def round_one(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each chunk's ``_walk_pairs(chunk, MEASUREMENT_PLAN[0])``, walked once and kept."""
        if self._round_one is None:
            pairs = _random_pairs(np.random.default_rng(self.seed), self.n_inputs)
            self._round_one = [_walk_pairs(chunk, MEASUREMENT_PLAN[0]) for chunk in pairs]
        return self._round_one

    def leaves(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each chunk's ``_walk_pairs(chunk)`` to the bit: its kept round one walked through round two."""
        for inputs, rows, steps in self.round_one():
            leaves, more = _walk_rows(REMAINDER_LABELS, rows, MEASUREMENT_PLAN[1])[1:]
            yield inputs, leaves, np.hstack([steps.repeat(len(leaves) // len(rows), axis=0), more])


def _criterion(name: str, budget: float | None = None):
    """Register a battery criterion under ``name``.

    The decorated check returns (passed, detail); calling it times the
    check and returns a :class:`CriterionResult`.  A check that raises, or
    that runs past ``budget`` seconds, fails.  A call that does not fit the
    check's signature raises its ``TypeError`` to the caller, before any check runs.
    """
    _REGISTERED.append(name)

    def decorate(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        signature = inspect.signature(check)

        @functools.wraps(check)
        def timed(*args, **kwargs) -> CriterionResult:
            signature.bind(*args, **kwargs)
            start = time.perf_counter()
            try:
                ok, detail = check(*args, **kwargs)
            except Exception as exc:  # a crashed criterion is a failed criterion
                elapsed = time.perf_counter() - start
                return CriterionResult(name, False, elapsed, f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                ok = False
                detail += f"; exceeded {budget:.0f}s budget"
            return CriterionResult(name, ok, elapsed, detail)

        return timed

    return decorate


# ---------------------------------------------------------------------------
# reference branch table (published data for the sixteen first-round branches)
# ---------------------------------------------------------------------------

# Ket strings of the four surviving terms per (a1, b3) block, in coefficient
# order c0d0, c0d1, c1d0, c1d1 (c = Alice's amplitudes, d = Bob's).  The
# published strings use an undeclared qubit-to-slot assignment; the search
# below recovers every assignment consistent with direct simulation.
_BLOCK_KETS: dict[tuple[int, int], tuple[str, str, str, str]] = {
    (0, 0): ("000000", "010011", "101100", "111111"),
    (0, 1): ("000011", "010000", "101111", "111100"),
    (1, 0): ("001100", "011111", "100000", "110011"),
    (1, 1): ("001111", "011100", "100011", "110000"),
}

# Sign pattern of those four terms per (A2, B2) result pair.
_SIGN_ROWS: dict[tuple[str, str], tuple[int, int, int, int]] = {
    ("+", "+"): (1, 1, 1, 1),
    ("+", "-"): (1, -1, 1, -1),
    ("-", "+"): (1, 1, -1, -1),
    ("-", "-"): (1, -1, -1, 1),
}


def reference_branch_terms(
    a1: int, A2: str, b3: int, B2: str
) -> list[tuple[int, tuple[int, int], str]]:
    """(sign, (i, j), ket string) rows of the published table for one branch."""
    kets = _BLOCK_KETS[(a1, b3)]
    signs = _SIGN_ROWS[(A2, B2)]
    coeffs = ((0, 0), (0, 1), (1, 0), (1, 1))
    return [(signs[k], coeffs[k], kets[k]) for k in range(4)]


def find_reference_permutations(alice: EprInput, bob: EprInput) -> list[tuple[str, ...]]:
    """All slot-to-qubit assignments matching every published branch row.

    For each candidate permutation the published rows are read as
    (coefficient, qubit-value assignment) multisets and compared against
    the directly simulated collapsed states; only permutations under which
    all sixteen branches match exactly are returned, and none when a
    branch does not hold exactly the published four terms.  The sixteen
    branches are one batched walk of round one, rows over REMAINDER_LABELS,
    and every permutation is tested at once: one gather of each published
    ket's amplitude under each of them.
    """
    rows = _walk_pairs([(alice, bob)], MEASUREMENT_PLAN[0])[1]
    if (np.count_nonzero(np.abs(rows) > 1e-9, axis=1) != 4).any():
        return []
    prods = [
        [alice.c0 * bob.c0, alice.c0 * bob.c1],
        [alice.c1 * bob.c0, alice.c1 * bob.c1],
    ]
    branches = product(*(OUTCOMES[basis] for _, basis in MEASUREMENT_PLAN[0]))
    terms = [reference_branch_terms(*branch) for branch in branches]
    kets = np.array([[[int(bit) for bit in ket] for _, _, ket in row] for row in terms])  # (16, 4, 6)
    want = np.array([[sign * prods[i][j] for sign, (i, j), _ in row] for row in terms])  # (16, 4)
    perms = list(permutations(REMAINDER_LABELS))
    # a ket's index in the register: bit k of the ket sits at its qubit's place, perm[k]
    places = np.array([[REMAINDER_LABELS.index(q) for q in perm] for perm in perms])  # (720, 6)
    index = kets @ (1 << (len(REMAINDER_LABELS) - 1 - places)).T  # (16, 4, 720)
    amps = rows[np.arange(len(rows))[:, None, None], index]
    fits = (np.abs(amps - want[..., None]) <= ATOL).all(axis=(0, 1))
    return [perm for perm, fit in zip(perms, fits.tolist()) if fit]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

@_criterion("swap-reference-pairing", 1.0)
def criterion_swap_reference() -> tuple[bool, str]:
    """Swapping two index-0 triples pairs outcomes {0,1,6,7} with {0,1,2,3}."""
    expected = {0: 0, 1: 1, 6: 2, 7: 3}
    outcomes = entanglement_swap(0, 0)
    ok = len(outcomes) == 4
    for o in outcomes:
        ok = ok and abs(o.probability - 0.25) <= ATOL
        ok = ok and expected.get(o.outcome, -1) == o.matched
    found = {o.outcome: o.matched for o in outcomes}
    return ok, f"outcome->remainder map {found} at 1/4 each"


@_criterion("swap-exhaustive", 5.0)
def criterion_swap_exhaustive() -> tuple[bool, str]:
    """Every (i, j) channel pair yields four 1/4 outcomes with GHZ remainders; a failure names the
    first failing pair, then its first failing outcome, in (i, j, outcome) order."""
    pairs = np.array(list(product(range(8), repeat=2)))
    probs, cells, _, matched = _swap_rows(pairs)
    counts = np.bincount(cells[:, 0], minlength=len(pairs))
    bad = cells[(np.abs(probs[tuple(cells.T)] - 0.25) > ATOL) | (matched < 0)]
    failing = np.flatnonzero(counts != 4)[:1].tolist() + bad[:1, 0].tolist()
    if not failing:
        return True, "64 channel pairs, 4 outcomes each at 1/4, all remainders classified"
    first = min(failing)  # a pair without exactly 4 live outcomes fails on its count
    i, j = pairs[first].tolist()
    if counts[first] != 4:
        return False, f"channel ({i},{j}) produced {counts[first]} outcomes"
    return False, f"channel ({i},{j}) outcome {bad[0, 1]} failed"


@_criterion("branch-uniformity", 10.0)
def criterion_branch_uniformity(walk: _SharedWalk) -> tuple[bool, str]:
    """All 16 first-round outcome combinations have probability exactly 1/16: each round-one
    branch's product of Born sums, read from ``walk``."""
    worst = 0.0
    for _, _, steps in walk.round_one():
        worst = max(worst, *np.abs(_product(steps.T) - 1 / 16).tolist())
    return worst <= ATOL, f"{walk.n_inputs} random input pairs, max |p - 1/16| = {worst:.2e}"


@_criterion("reference-branch-content")
def criterion_reference_branches(seed: int) -> tuple[bool, str]:
    """Published branch rows match simulation under one fixed relabeling."""
    [[(alice, bob)]] = _random_pairs(np.random.default_rng(seed), 1)  # the seed's first pair
    perms = find_reference_permutations(alice, bob)
    if not perms:
        return False, "no slot permutation reproduces all sixteen branch rows"
    if not _worked_branch_factorization(Tree(alice, bob)):
        return False, "worked-branch payloads do not factor as published"
    shown = ",".join(perms[0])
    return True, f"{len(perms)} matching permutation(s); canonical slots = ({shown})"


#: The worked first-round branch (a1, A2, b3, B2) of the published rules.
_WORKED = (0, "+", 0, "+")


def _worked_branch_factorization(tree: Tree) -> bool:
    """Payloads of branch (0,+,0,+) equal the published sign-keyed products."""
    alice, bob = tree.inputs
    for A1, B1 in TABULATED_RULES:
        payload = tree.payloads[leaf_index(*_WORKED, A1, B1)]
        sa = 1.0 if A1 == "+" else -1.0
        sb = 1.0 if B1 == "+" else -1.0
        expected = tensor(
            make_register([("00", alice.c0), ("11", sa * alice.c1)], BOB_PAYLOAD_LABELS),
            make_register([("00", bob.c0), ("11", sb * bob.c1)], ALICE_PAYLOAD_LABELS),
        )
        if not np.allclose(payload, expected.amps, atol=ATOL, rtol=0.0):
            return False
    return True


@_criterion("bidirectional-reconstruction", 60.0)
def criterion_reconstruction(walk: _SharedWalk, table: Table | None = None) -> tuple[bool, str]:
    """All 64 corrected leaves reach fidelity 1 in both directions.

    The table is read before any walk.  Each chunk's leaves, from ``walk``, are then
    delivered as :func:`enumerate_batch` delivers them.
    """
    ops = _leaf_ops(table)
    worst = 1.0
    for chunk in walk.leaves():
        batch = _delivered(ops, *chunk)
        off = np.abs(batch.probabilities - 1 / 64) > ATOL
        if off.any():  # the first in pair order, then leaf order
            pair, leaf = divmod(int(np.argmax(off)), off.shape[1])
            return False, f"leaf {leaf} probability {float(batch.probabilities[pair, leaf])!r}"
        worst = min(worst, *batch.fidelities.ravel().tolist())
    ok = worst >= FIDELITY_FLOOR
    return ok, f"{walk.n_inputs} random input pairs, worst corrected fidelity {worst:.15f}"


@_criterion("correction-rules")
def criterion_correction_rules() -> tuple[bool, str]:
    """Announcement-keyed published rules fix the worked branch exactly."""
    tree = Tree(EprInput(0.6, 0.8), EprInput.normalized(0.8, 0.6j))
    leaves = [leaf_index(*_WORKED, *rule) for rule in TABULATED_RULES]
    delivered = tree.deliver(leaves, list(TABULATED_RULES.values()))
    worst = min(1.0, *(f for fidelities in delivered for f in fidelities))
    # Z on both qubits is the identity on the span of |00> and |11>.
    epr = tree.inputs[0].register(("q0", "q1"))
    zz = apply_gate1(apply_gate1(epr, "q0", "Z"), "q1", "Z")
    span_ok = bool(np.allclose(zz.amps, epr.amps, atol=ATOL, rtol=0.0))
    ok = abs(worst - 1.0) <= ATOL and span_ok
    return ok, f"four rules, worst fidelity {worst:.15f}; Z(x)Z span identity: {span_ok}"


@_criterion("non-cooperation-bound")
def criterion_noncooperation() -> tuple[bool, str]:
    """Withholding degrades the deprived direction to |c0|^4 + |c1|^4; the six
    (input, withheld) cases are walked in one batch (``_noncooperation_fidelities``)."""
    cases = [
        (EprInput.normalized(1, 1), 0.5),
        (EprInput(0.6, 0.8), 0.5392),
        (EprInput(1, 0), 1.0),
    ]
    got = _noncooperation_fidelities([(epr, withheld) for epr, _ in cases for withheld in DIRECTIONS])
    expected = [value for _, value in cases for _ in DIRECTIONS]
    worst = max(0.0, *(abs(f - value) for f, value in zip(got, expected)))
    return worst <= ATOL, f"balanced=0.5, (0.6,0.8)=0.5392, degenerate=1; max err {worst:.2e}"


@_criterion("sampling-consistency")
def criterion_sampling(seed: int) -> tuple[bool, str]:
    """``_SAMPLING_TRIALS`` seeded sessions hit every leaf uniformly and replay byte-identically.

    The sessions are drawn in one batch (:func:`run_sessions`).  The replay
    compares two computations: one session played against the cached tree
    the batch walked, one against a freshly built tree.
    """
    alice, bob = EprInput(0.6, 0.8), EprInput.normalized(1, 1)
    table = load_table()  # always the packaged one: an injected table feeds reconstruction
    counts = np.bincount(run_sessions(alice, bob, seed, _SAMPLING_TRIALS, table=table)[0], minlength=64)
    max_z, uniform = leaf_histogram_gate(counts)
    warm = run_session(alice, bob, seed, table=table).transcript.to_json()
    _session_tree.cache_clear()  # the replay walks a freshly built tree, not the cached one
    replay = warm == run_session(alice, bob, seed, table=table).transcript.to_json()
    return uniform and replay, (
        f"{_SAMPLING_TRIALS} sessions, max |z| = {max_z:.2f} (gate {SIGMA_GATE}); "
        f"byte-identical replay: {replay}"
    )


@_criterion("engine-properties", 30.0)
def criterion_engine_properties(seed: int) -> tuple[bool, str]:
    """Gate unitarity, Born completeness, collapse norms, partial-trace purity: ``_ENGINE_CASES`` cases each."""
    worst = max(_engine_worsts(seed, _ENGINE_CASES))
    return worst <= ATOL, f"{_ENGINE_CASES} cases per property, max deviation {worst:.2e}"


def _engine_worsts(seed: int, cases: int) -> tuple[float, float, float]:
    """Each property's worst deviation over ``cases`` cases: gates, Born rule, partial trace.

    The cases are drawn in the order of a loop of one :mod:`qsim` call per gate, measurement
    and partial trace, and each group of one shape (:func:`_case_groups`) is computed through
    the row kernels, so each worst is the loop's to the bit.  Gate matrices and the forcing
    floor are read from :mod:`qsim` when used, as its calls read them.
    """
    rng = np.random.default_rng(seed)
    return _gate_worst(rng, cases), _born_worst(rng, cases), _trace_worst(rng, cases)


def _case_groups(
    rng: np.random.Generator, cases: int, draw: Callable[[np.random.Generator], tuple]
) -> dict[tuple, list[np.ndarray]]:
    """Draw ``cases`` cases in order with ``draw`` -> (key, fields), in one pass, grouped by
    key: each group's case numbers and then each field, stacked in draw order.  A case holds
    at most 64 amplitudes, so the battery's 1000 cases stay within about 1 MiB."""
    groups: dict[tuple, list] = {}
    for i in range(cases):
        key, *fields = draw(rng)
        groups.setdefault(key, []).append((i, *fields))
    return {key: [np.array(column) for column in zip(*rows)] for key, rows in groups.items()}


def _normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real and imaginary parts of a random ``n``-qubit state's unnormalized amplitudes, as rows.

    numpy fills the array in order, so these are the draws of
    ``rng.normal(size=2**n)`` twice, in one call.
    """
    return rng.normal(size=(2, 1 << n))


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"q{k}" for k in range(n))


def _states(parts: np.ndarray) -> np.ndarray:
    """The registers of stacked ``_normals`` draws, one per row, as
    ``Register(labels, re + 1j * im)`` normalizes them."""
    return _normalized(parts[:, 0] + 1j * parts[:, 1])


def _gate_case(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 7))
    parts = _normals(rng, n)
    return (n, int(rng.integers(0, n)), ("X", "Z", "H")[rng.integers(0, 3)]), parts


def _gate_worst(rng: np.random.Generator, cases: int) -> float:
    """Norms after one gate and one CNOT, and both involutions (the CNOT from
    the gate's qubit onto the next one, on two qubits or more)."""
    worst = 0.0
    for (n, k, gate), (_, parts) in _case_groups(rng, cases, _gate_case).items():
        labels, rows = _labels(n), _states(parts)
        words = [((labels[k],), qsim.GATES[gate])]
        if n >= 2:
            words.append(((labels[k], labels[(k + 1) % n]), qsim._CNOT))
        for qubits, matrix in words:
            once = _normalized(_apply_rows(rows, labels, qubits, matrix))
            twice = _normalized(_apply_rows(once, labels, qubits, matrix))
            worst = max(worst, np.max(np.abs(_row_norms(once) - 1.0)), np.max(np.abs(twice - rows)))
    return float(worst)


def _born_case(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 7))
    parts = _normals(rng, n)
    key = (n, int(rng.integers(0, n)), "ZX"[rng.integers(0, 2)])
    return key, parts, rng.random()  # measure's one draw


def _born_worst(rng: np.random.Generator, cases: int) -> float:
    """Born completeness and the norm of the sampled outcome's collapse, as :func:`measure` picks
    (by ``qsim._picks``, its rule for many draws) and collapses it (by reciprocals where it
    divides).  A sampled outcome below ``MIN_FORCE_PROB`` raises :func:`measure`'s ValueError
    for the first such case in draw order, the smallest case number over all groups."""
    worst, unlikely = 0.0, []
    for (n, k, basis), (index, parts, draws) in _case_groups(rng, cases, _born_case).items():
        branches = _branch_rows(_states(parts), _labels(n), f"q{k}", basis)
        probs = np.vecdot(branches, branches).real
        at, picks = np.arange(len(draws)), _picks(probs[:, 0], draws)
        prob = probs[at, picks]
        collapsed = _normalized(branches[at, picks] * qsim._reciprocals(np.sqrt(prob))[:, None])
        for r in np.flatnonzero(prob < qsim.MIN_FORCE_PROB)[:1]:
            outcome = OUTCOMES[basis][picks[r]]
            unlikely.append((index[r], f"outcome {outcome!r} on ('q{k}',) has probability {prob[r]:.3e}"))
        sums, norms = probs[:, 0] + probs[:, 1], _row_norms(collapsed)
        worst = max(worst, np.max(np.abs(sums - 1.0)), np.max(np.abs(norms - 1.0)))
    if unlikely:
        raise ValueError(min(unlikely)[1])
    return float(worst)


def _trace_case(rng: np.random.Generator) -> tuple:
    n_left = int(rng.integers(1, 4))
    left = _normals(rng, n_left)
    n_right = int(rng.integers(1, 4))
    return (n_left, n_right), left, _normals(rng, n_right)


def _trace_worst(rng: np.random.Generator, cases: int) -> float:
    """Purity of the left factor traced out of a product of two random states."""
    worst = 0.0
    for _, left, right in _case_groups(rng, cases, _trace_case).values():
        left, right = _states(left), _states(right)
        product = left[:, :, None] * right[:, None, :]  # np.kron per row
        psi = _normalized(product.reshape(len(product), -1)).reshape(product.shape)
        rho = psi @ psi.conj().transpose(0, 2, 1)
        purity = np.trace(rho @ rho, axis1=1, axis2=2).real
        worst = max(worst, np.max(np.abs(purity - 1.0)))
    return float(worst)


def run_all(seed: int = DEFAULT_SEED, table: Table | None = None) -> list[CriterionResult]:
    """Execute the full battery in criterion order, once :func:`session_seed` accepts ``seed``;
    uniformity and reconstruction read one :class:`_SharedWalk` of the seed's pairs."""
    session_seed(seed)
    walk = _SharedWalk(seed)
    return [
        criterion_swap_reference(),
        criterion_swap_exhaustive(),
        criterion_branch_uniformity(walk),
        criterion_reference_branches(seed),
        criterion_reconstruction(walk, table),
        criterion_correction_rules(),
        criterion_noncooperation(),
        criterion_sampling(seed),
        criterion_engine_properties(seed),
    ]


#: Criterion names in battery order (stable identifiers for reports).
CRITERIA = tuple(_REGISTERED)
