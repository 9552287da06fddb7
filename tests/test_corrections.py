"""Correction factors, ops strings, the Pauli-frame rule, and table serialization.

The rule is checked against an independent oracle that lives only here: a
search, per leaf of a generic input pair, for the smallest {I, Z, X, XZ}
pair that repairs each factor of the payload.
"""

import json
import re
from importlib import resources
from itertools import product

import numpy as np
import pytest

from bqtsim.corrections import (
    FACTORS,
    FRAME,
    TABLE_SCHEMA,
    TABULATED_RULES,
    apply_ops,
    correction_key,
    generate_correction_table,
    leaf_index,
    load_table,
    parse_ops,
    records_to_table,
    table_to_records,
    write_table,
)
from bqtsim.protocol import (
    ALICE_PAYLOAD_LABELS,
    BOB_PAYLOAD_LABELS,
    PAYLOAD_LABELS,
    EprInput,
    Tree,
)
from bqtsim.qsim import Register, make_register, permute
from oracles import equal_up_to_global_phase, tree_leaves


def _epr(c0, c1, labels=("u", "v")):
    return make_register([("00", c0), ("11", c1)], labels)


# ---------------------------------------------------------------------------
# ops strings
# ---------------------------------------------------------------------------

def test_parse_ops_unique_split():
    assert parse_ops("II") == ("I", "I")
    assert parse_ops("ZZ") == ("Z", "Z")
    assert parse_ops("XXZ") == ("X", "XZ")
    assert parse_ops("XZX") == ("XZ", "X")
    assert parse_ops("XZXZ") == ("XZ", "XZ")
    assert parse_ops("IXZ") == ("I", "XZ")


@pytest.mark.parametrize("bad", ["", "X", "XY", "ZXZZ", "XZZX", "ix"])
def test_parse_ops_rejects_garbage(bad):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_ops(bad)


@pytest.mark.parametrize("bad", [5, None, 2.5, ["X", "Z"]], ids=repr)
def test_parse_ops_rejects_what_is_not_a_string(bad):
    with pytest.raises(ValueError, match=f"^cannot parse correction ops {re.escape(repr(bad))}$"):
        parse_ops(bad)


def test_encode_parse_roundtrip_all_pairs():
    for pair in product(FACTORS, repeat=2):
        assert parse_ops("".join(pair)) == pair


def test_apply_ops_xz_order():
    # "XZ" is Z first then X: on c0|0> + c1|1> it yields c0|1> - c1|0>.
    reg = Register(("q", "r"), np.kron([0.6, 0.8], [1, 0]))
    out = apply_ops(reg, ("q", "r"), "XZI")
    assert np.allclose(out.amps, np.kron([-0.8, 0.6], [1, 0]))
    assert np.array_equal(apply_ops(reg, ("r", "q"), "IXZ").amps, out.amps)
    with pytest.raises(ValueError, match="cannot parse"):
        apply_ops(reg, ("q", "r"), "ZXI")


@pytest.mark.parametrize("qubits", [(), ("q",), ("q", "r", "s")], ids=["none", "one", "three"])
def test_apply_ops_needs_two_qubits(qubits):
    reg = Register(("q", "r", "s"), np.eye(8)[0])
    with pytest.raises(ValueError):
        apply_ops(reg, qubits, "XX")


def test_apply_ops_acts_per_qubit():
    reg = _epr(0.6, 0.8)
    out = apply_ops(reg, ("u", "v"), "XX")
    assert out.amplitude("11") == pytest.approx(0.6)
    assert out.amplitude("00") == pytest.approx(0.8)
    out = apply_ops(reg, ("u", "v"), "ZI")
    assert out.amplitude("11") == pytest.approx(-0.8)


# ---------------------------------------------------------------------------
# minimal correction search: the Pauli-frame rule's independent oracle
# ---------------------------------------------------------------------------

def _candidate_key(pair):
    # Fewer non-identity factors first; then Z beats X beats XZ, with ties
    # resolved by placing the operator on the earlier qubit.
    rank = {"I": 4, "Z": 1, "X": 2, "XZ": 3}
    return (sum(f != "I" for f in pair), tuple(rank[f] for f in pair))


_CANDIDATES = sorted(product(FACTORS, repeat=2), key=_candidate_key)


def minimal_correction(state, target, tol=1e-10):
    """Smallest factor pair mapping ``state`` onto ``target`` up to phase.

    Both registers must hold the same two qubits; the first factor acts on
    ``state.labels[0]``.  Raises if no candidate works.
    """
    if state.n_qubits != 2 or target.n_qubits != 2:
        raise ValueError("correction search expects two-qubit registers")
    for pair in _CANDIDATES:
        candidate = apply_ops(state, state.labels, "".join(pair))
        if equal_up_to_global_phase(candidate, target, tol=tol):
            return pair
    raise ValueError("no I/Z/X/XZ product repairs this payload")


def _payload_factors(payload):
    """Split the four-qubit payload into its (b1,b2) and (a2,a3) factors.

    The protocol guarantees a product state across this cut; a second
    singular value above 1e-10 raises.
    """
    mat = permute(payload, PAYLOAD_LABELS).amps.reshape(4, 4)
    u, s, vh = np.linalg.svd(mat)
    if s.shape[0] > 1 and s[1] > 1e-10:
        raise ValueError(f"payload is not a product across the party cut: {s!r}")
    return Register(BOB_PAYLOAD_LABELS, u[:, 0]), Register(ALICE_PAYLOAD_LABELS, vh[0, :])


# Generic complex inputs for the search; any pair with four distinct,
# nonzero products would do, since the searched factors depend only on the
# leaf, not on the amplitudes.
_GENERIC_ALICE = EprInput(0.6, 0.8j)
_GENERIC_BOB = EprInput(0.8, complex(0.36, 0.48))


def searched_correction_table():
    """The minimal correction pair of every leaf, found by search.

    For each leaf the payload factorizes into a (b1, b2) part carrying
    Alice's amplitudes and an (a2, a3) part carrying Bob's; each factor is
    searched independently for the smallest pair that restores the intended
    input up to global phase.
    """
    target_bob = _GENERIC_ALICE.register(BOB_PAYLOAD_LABELS)
    target_alice = _GENERIC_BOB.register(ALICE_PAYLOAD_LABELS)
    table = {}
    for key, (_, payload) in tree_leaves(Tree(_GENERIC_ALICE, _GENERIC_BOB)).items():
        bob_part, alice_part = _payload_factors(payload)
        table[key] = (
            "".join(minimal_correction(bob_part, target_bob)),
            "".join(minimal_correction(alice_part, target_alice)),
        )
    return table


def test_minimal_correction_identity_case():
    target = _epr(0.6, 0.8)
    assert minimal_correction(target, target) == ("I", "I")


def test_minimal_correction_prefers_single_z_on_first_qubit():
    # both ("Z","I") and ("I","Z") repair a sign flip; the earlier qubit wins
    target = _epr(0.6, 0.8)
    state = _epr(0.6, -0.8)
    assert minimal_correction(state, target) == ("Z", "I")


def test_minimal_correction_bit_flips():
    target = _epr(0.6, 0.8)
    swapped = make_register([("11", 0.6), ("00", 0.8)], ("u", "v"))
    assert minimal_correction(swapped, target) == ("X", "X")
    crossed = make_register([("01", 0.6), ("10", 0.8)], ("u", "v"))
    assert minimal_correction(crossed, target) == ("I", "X")


def test_minimal_correction_mixed_flip_and_sign():
    target = _epr(0.6, 0.8)
    state = make_register([("11", 0.6), ("00", -0.8)], ("u", "v"))
    pair = minimal_correction(state, target)
    fixed = apply_ops(state, ("u", "v"), "".join(pair))
    assert abs(abs(np.vdot(fixed.amps, target.amps)) - 1.0) <= 1e-12
    assert "XZ" in pair or pair.count("X") + pair.count("Z") >= 2


def test_minimal_correction_swapped_magnitudes_need_xx():
    # X(x)X exchanges the |00> and |11> amplitudes outright
    target = _epr(0.6, 0.8)
    assert minimal_correction(_epr(0.8, 0.6), target) == ("X", "X")


def test_minimal_correction_unrepairable():
    # Pauli products map basis kets to basis kets, so no candidate can turn
    # a product state into an entangled target
    target = _epr(0.6, 0.8)
    state = make_register([("00", 1.0)], ("u", "v"))
    with pytest.raises(ValueError, match="repairs"):
        minimal_correction(state, target)


def test_minimal_correction_requires_two_qubits():
    with pytest.raises(ValueError, match="two-qubit"):
        minimal_correction(Register(("q",), [1, 0]), Register(("q",), [1, 0]))


# ---------------------------------------------------------------------------
# published reference rules
# ---------------------------------------------------------------------------

def test_tabulated_rules_content():
    assert TABULATED_RULES == {
        ("+", "+"): ("II", "II"),
        ("+", "-"): ("ZZ", "IZ"),
        ("-", "+"): ("IZ", "ZZ"),
        ("-", "-"): ("ZI", "ZI"),
    }


def test_zz_is_identity_on_the_payload_span():
    reg = _epr(0.6, 0.8j)
    assert np.allclose(apply_ops(reg, ("u", "v"), "ZZ").amps, reg.amps, atol=1e-12)


# ---------------------------------------------------------------------------
# the generated table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return load_table()


def test_packaged_table_matches_regeneration(table):
    # search, rule and packaged asset agree on all 64 entries
    assert searched_correction_table() == generate_correction_table() == dict(table)


def test_table_has_all_64_keys(table):
    keys = set(
        product((0, 1), ("+", "-"), (0, 1), ("+", "-"), ("+", "-"), ("+", "-"))
    )
    assert set(table) == keys


def test_table_reference_branch_rows(table):
    assert table[(0, "+", 0, "+", "+", "+")] == ("II", "II")
    assert table[(0, "+", 0, "+", "+", "-")] == ("II", "ZI")
    assert table[(0, "+", 0, "+", "-", "+")] == ("ZI", "II")
    assert table[(0, "+", 0, "+", "-", "-")] == ("ZI", "ZI")


def test_table_bit_flip_rows(table):
    assert table[(1, "+", 0, "+", "+", "+")] == ("XX", "II")
    assert table[(1, "-", 0, "+", "+", "+")] == ("XXZ", "II")
    assert table[(1, "-", 0, "+", "-", "+")] == ("XX", "II")
    assert table[(0, "+", 1, "+", "+", "+")] == ("II", "XX")
    assert table[(1, "-", 1, "-", "-", "-")] == ("XX", "XX")


def test_table_ops_locality(table):
    # Bob's factor pair is a function of (a1, A2, A1) alone; Alice's of
    # (b3, B2, B1) alone.
    bob, alice = {}, {}
    for (a1, A2, b3, B2, A1, B1), (bob_ops, alice_ops) in table.items():
        assert bob.setdefault((a1, A2, A1), bob_ops) == bob_ops
        assert alice.setdefault((b3, B2, B1), alice_ops) == alice_ops
    assert sorted(set(bob.values())) == ["II", "XX", "XXZ", "ZI"]
    assert sorted(set(alice.values())) == ["II", "XX", "XXZ", "ZI"]


def test_table_is_a_pauli_frame(table, tmp_path):
    # Reading 0 and "+" as bit 0, each receiver's correction is the frame
    # (x, z) of the sender's three results: Bob's (a1, A2 xor A1) and
    # Alice's (b3, B2 xor B1).  The rule alone, over every outcome in plan
    # order, rebuilds the table and the packaged asset byte for byte.
    assert FRAME == {(0, 0): "II", (0, 1): "ZI", (1, 0): "XX", (1, 1): "XXZ"}
    frame = generate_correction_table()
    assert len(frame) == 64
    assert [leaf_index(*key) for key in frame] == list(range(64))
    assert frame[(1, "-", 0, "+", "+", "-")] == (FRAME[1, 1], FRAME[0, 1])
    assert frame[(0, "+", 1, "-", "-", "-")] == (FRAME[0, 1], FRAME[1, 0])
    assert frame == dict(table)
    path = tmp_path / "frame.json"
    write_table(frame, path)
    asset = resources.files("bqtsim").joinpath("assets/correction_table.json").read_bytes()
    assert path.read_bytes() == asset


def test_table_agrees_with_published_rules_as_maps(table):
    # On the reference branch the minimal table and the published rules may
    # differ by redundant Z(x)Z factors but must act identically on payloads.
    reg = _epr(0.6, complex(0.48, 0.64))  # generic complex unit pair
    for (A1, B1), (pub_bob, pub_alice) in TABULATED_RULES.items():
        min_bob, min_alice = table[(0, "+", 0, "+", A1, B1)]
        for pub, minimal in ((pub_bob, min_bob), (pub_alice, min_alice)):
            assert np.allclose(
                apply_ops(reg, ("u", "v"), pub).amps,
                apply_ops(reg, ("u", "v"), minimal).amps,
                atol=1e-12,
            )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_load_roundtrip(tmp_path, table):
    path = tmp_path / "table.json"
    write_table(table, path)
    assert load_table(path) == table
    payload = json.loads(path.read_text())
    assert payload["schema"] == TABLE_SCHEMA
    assert len(payload["entries"]) == 64
    assert payload["entries"][0] == {
        "a1": 0, "A2": "p", "b3": 0, "B2": "p", "A1": "p", "B1": "p",
        "bob_ops": "II", "alice_ops": "II",
    }


def test_records_are_deterministically_ordered(table):
    records = table_to_records(table)
    keys = [(r["a1"], r["A2"], r["b3"], r["B2"], r["A1"], r["B1"]) for r in records]
    assert keys == sorted(keys, key=lambda k: tuple(
        x if isinstance(x, int) else (x == "m") for x in k
    ))


def test_records_to_table_validation(table):
    records = table_to_records(table)
    with pytest.raises(ValueError, match="64 entries"):
        records_to_table(records[:-1])
    dup = records + [records[0]]
    with pytest.raises(ValueError, match="duplicate"):
        records_to_table(dup)
    broken = [dict(r) for r in records]
    broken[3]["bob_ops"] = "XY"
    with pytest.raises(ValueError, match="cannot parse"):
        records_to_table(broken)
    broken = [dict(r) for r in records]
    broken[5]["a1"] = 2
    with pytest.raises(ValueError, match="bad Z outcome"):
        records_to_table(broken)
    broken = [dict(r) for r in records]
    del broken[7]["A1"]
    with pytest.raises(ValueError, match="malformed"):
        records_to_table(broken)


@pytest.mark.parametrize(
    "entries", [5, None, "entries", {"a1": 0}], ids=["int", "null", "string", "object"]
)
def test_records_to_table_requires_a_list_of_objects(entries, table):
    with pytest.raises(ValueError, match="must be a list"):
        records_to_table(entries)
    with pytest.raises(ValueError, match="malformed"):
        records_to_table(table_to_records(table)[:-1] + [entries])


@pytest.mark.parametrize(
    "value", [0.9, 1.0, True, False, "0", None],
    ids=["float", "integral-float", "true", "false", "string", "null"],
)
def test_records_to_table_requires_integer_z_outcomes(value, table):
    broken = table_to_records(table)
    broken[0] = {**broken[0], "a1": value}
    with pytest.raises(ValueError, match="bad Z outcome|malformed"):
        records_to_table(broken)


def test_load_table_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something-else/9", "entries": []}))
    with pytest.raises(ValueError, match="not a"):
        load_table(path)


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_load_table_rejects_json_nested_past_the_parser(tmp_path, depth):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_table(path)


def test_load_table_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_table(tmp_path / "nope.json")


def test_load_table_caches_by_path(tmp_path, table):
    path = tmp_path / "cache.json"
    write_table(table, path)
    assert load_table(path) is load_table(path)
    assert load_table() is load_table()


def test_load_table_rereads_an_edited_file(tmp_path, table):
    path = tmp_path / "edited.json"
    write_table(table, path)
    key = (0, "+", 0, "+", "+", "+")
    assert load_table(path)[key] == ("II", "II")
    write_table({**table, key: ("XX", "II")}, path)
    assert load_table(path)[key] == ("XX", "II")
    assert load_table()[key] == ("II", "II")


def test_load_table_is_read_only():
    table = load_table()
    key = (0, "+", 0, "+", "+", "+")
    with pytest.raises(TypeError):
        table[key] = ("XX", "XX")
    with pytest.raises(TypeError):
        del table[key]
    assert load_table()[key] == ("II", "II")


def test_correction_key_defaults_only_withheld_announcements():
    alice_own = {"a1": 1, "A2": "-", "A1": "-"}
    heard = {"b3": 0, "B2": "+"}
    owned = ("a1", "A2", "A1")
    assert correction_key({**heard, **alice_own}, owned) == (1, "-", 0, "+", "-", "+")
    assert correction_key({**heard, **alice_own, "B1": "-"}, owned)[5] == "-"
    # a party's own second-round result and any first-round result never default
    with pytest.raises(KeyError):
        correction_key({**heard, "a1": 1, "A2": "-"}, owned)
    with pytest.raises(KeyError):
        correction_key({"b3": 0, **alice_own}, owned)


@pytest.mark.parametrize("a1", [True, False, 1.0, "1"], ids=["true", "false", "float", "string"])
def test_leaf_index_rejects_outcomes_of_the_wrong_type(a1):
    with pytest.raises(ValueError, match="not in"):
        leaf_index(a1, "+", 0, "+", "+", "+")


@pytest.mark.parametrize("outcomes, message", [
    ((None, "+", 0, "+", "+", "+"), "a1: outcome None not in (0, 1)"),
    ((0, "+", 0, "+", "+", None), "B1: outcome None not in ('+', '-')"),
    ((0, "+", 2, "+", "+", "+"), "b3: outcome 2 not in (0, 1)"),
    ((0, "x", 0, "+", "+", "+"), "A2: outcome 'x' not in ('+', '-')"),
], ids=["a1-none", "B1-none", "b3-two", "A2-x"])
def test_leaf_index_names_the_outcome_it_refuses(outcomes, message):
    # None means "not forced" to measure, but a leaf has every outcome
    with pytest.raises(ValueError) as raised:
        leaf_index(*outcomes)
    assert str(raised.value) == message
