"""Correction factors, ops strings, minimality, and table serialization."""

import json
from itertools import product

import numpy as np
import pytest

from bqtsim.corrections import (
    FACTORS,
    TABLE_SCHEMA,
    TABULATED_RULES,
    apply_factor,
    apply_ops,
    correction_key,
    encode_ops,
    load_table,
    minimal_correction,
    parse_ops,
    records_to_table,
    table_to_records,
    write_table,
)
from bqtsim.protocol import generate_correction_table
from bqtsim.qsim import Register, make_register


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


def test_encode_parse_roundtrip_all_pairs():
    for pair in product(FACTORS, repeat=2):
        assert parse_ops(encode_ops(pair)) == pair


def test_encode_ops_rejects_bad_factors():
    with pytest.raises(ValueError, match="illegal"):
        encode_ops(("Y", "I"))


def test_apply_factor_xz_order():
    # "XZ" is Z first then X: on c0|0> + c1|1> it yields c0|1> - c1|0>.
    reg = Register(("q",), [0.6, 0.8])
    out = apply_factor(reg, "q", "XZ")
    assert np.allclose(out.amps, [-0.8, 0.6])
    with pytest.raises(ValueError, match="unknown correction factor"):
        apply_factor(reg, "q", "ZX")


def test_apply_ops_acts_per_qubit():
    reg = _epr(0.6, 0.8)
    out = apply_ops(reg, ("u", "v"), "XX")
    assert out.amplitude("11") == pytest.approx(0.6)
    assert out.amplitude("00") == pytest.approx(0.8)
    out = apply_ops(reg, ("u", "v"), "ZI")
    assert out.amplitude("11") == pytest.approx(-0.8)


# ---------------------------------------------------------------------------
# minimal correction search
# ---------------------------------------------------------------------------

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
    fixed = apply_factor(apply_factor(state, "u", pair[0]), "v", pair[1])
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
    assert table == generate_correction_table()


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


#: A Pauli frame (x, z) on a receiver's two qubits, as a table ops string.
PAULI_FRAME_OPS = {(0, 0): "II", (0, 1): "ZI", (1, 0): "XX", (1, 1): "XXZ"}


def test_table_is_a_pauli_frame(table):
    # Reading 0 and "+" as bit 0, each receiver's correction is the frame
    # (x, z) of the sender's three results: Bob's (a1, A2 xor A1) and
    # Alice's (b3, B2 xor B1).
    bit = {0: 0, 1: 1, "+": 0, "-": 1}
    for key, ops in table.items():
        a1, A2, b3, B2, A1, B1 = (bit[o] for o in key)
        assert ops == (PAULI_FRAME_OPS[a1, A2 ^ A1], PAULI_FRAME_OPS[b3, B2 ^ B1]), key
    assert len(table) == 64


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
