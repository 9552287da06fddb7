"""Outcome-keyed Pauli corrections for the teleported payloads.

Each of the 64 measurement leaves maps to a pair of two-qubit correction
operators: Bob's acts on (b1, b2) to recover Alice's state, Alice's acts
on (a2, a3) to recover Bob's.  Per-qubit factors are drawn from
{I, Z, X, XZ} ("XZ" means Z first, then X).  Each entry is the Pauli
frame of the sender's three results (:func:`generate_correction_table`).
Run-time code applies the table's ops, not the rule's, so an edited table
takes effect.

Table asset schema ``bqtsim.correction-table/1``::

    {"schema": "bqtsim.correction-table/1",
     "entries": [{"a1": 0, "A2": "p", "b3": 0, "B2": "p",
                  "A1": "p", "B1": "p",
                  "bob_ops": "II", "alice_ops": "II"}, ...]}

Exactly 64 entries, one per outcome combination; "p"/"m" encode the +/-
conjugate-basis results.  An ops string is the concatenation of the two
per-qubit factors; because only I, Z, X and XZ are legal factors the split
is unique (e.g. "XXZ" can only read as X then XZ).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Mapping, Sequence

from .qsim import OUTCOMES, Register, _alphabet, apply_gate1

__all__ = [
    "FACTORS",
    "FRAME",
    "LEAF_KEYS",
    "MEASUREMENT_PLAN",
    "OUTCOMES",
    "PLAN_QUBITS",
    "TABLE_SCHEMA",
    "TABULATED_RULES",
    "apply_ops",
    "correction_key",
    "generate_correction_table",
    "leaf_index",
    "load_table",
    "parse_ops",
    "records_to_table",
    "table_to_records",
    "write_table",
]

TABLE_SCHEMA = "bqtsim.correction-table/1"

#: The protocol's six measurements as (qubit, basis): round one, then round
#: two.  Table keys, leaf indices and a session's six uniform draws all
#: follow this order.
MEASUREMENT_PLAN = (
    (("a1", "Z"), ("A2", "X"), ("b3", "Z"), ("B2", "X")),
    (("A1", "X"), ("B1", "X")),
)
_PLAN = MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]

#: The six measured qubits in plan order: the fields of a table key.
PLAN_QUBITS = tuple(q for q, _ in _PLAN)

#: Every leaf's outcomes, in plan order, listed in :func:`leaf_index` order.
LEAF_KEYS = tuple(product(*(OUTCOMES[basis] for _, basis in _PLAN)))

#: Legal per-qubit correction factors.
FACTORS = ("I", "Z", "X", "XZ")

#: A receiver's correction as the ops string of its Pauli frame (x, z).
FRAME = MappingProxyType({(0, 0): "II", (0, 1): "ZI", (1, 0): "XX", (1, 1): "XXZ"})

#: Announcement-keyed rules for the reference branch (a1=0, A2=+, b3=0, B2=+),
#: keyed by (A1, B1).  First entry acts on (b1, b2), second on (a2, a3).
#: Two of the rows use redundant Z factors: Z(x)Z fixes nothing on the span
#: of |00> and |11>, so these coincide with the minimal rules only as maps.
TABULATED_RULES: dict[tuple[str, str], tuple[str, str]] = {
    ("+", "+"): ("II", "II"),
    ("+", "-"): ("ZZ", "IZ"),
    ("-", "+"): ("IZ", "ZZ"),
    ("-", "-"): ("ZI", "ZI"),
}

_PM = {"+": "p", "-": "m"}
_MP = {"p": "+", "m": "-"}

#: Table keys in memory: outcomes in MEASUREMENT_PLAN order, with ints for Z
#: outcomes and "+"/"-" for X outcomes.
TableKey = tuple[int, str, int, str, str, str]
Table = Mapping[TableKey, tuple[str, str]]


def leaf_index(a1: int, A2: str, b3: int, B2: str, A1: str, B1: str) -> int:
    """Pack the six outcomes into 0..63 (plan order, 0/"+" = zero bit)."""
    idx = 0
    for (_, basis), outcome in zip(_PLAN, (a1, A2, b3, B2, A1, B1)):
        idx = (idx << 1) | _alphabet(basis, outcome).index(outcome)
    return idx


def correction_key(known: Mapping[str, int | str], owned: Collection[str] = ()) -> TableKey:
    """Table key from every result a party knows: its own and those announced to it.

    A missing second-round result of a qubit outside ``owned`` is a withheld
    announcement and defaults to "+"; any other missing result raises
    KeyError.
    """
    withholdable = {q for q, _ in MEASUREMENT_PLAN[1]}.difference(owned)
    return tuple(
        known.get(q, "+") if q in withholdable else known[q] for q in PLAN_QUBITS
    )


def parse_ops(ops: str) -> tuple[str, str]:
    """Split a concatenated two-qubit ops string into its unique factors."""
    for cut in (1, 2) if isinstance(ops, str) else ():
        first, second = ops[:cut], ops[cut:]
        if first in FACTORS and second in FACTORS:
            return first, second
    raise ValueError(f"cannot parse correction ops {ops!r}")


def apply_ops(reg: Register, qubits: Sequence[str], ops: str) -> Register:
    """Apply a two-qubit ops string, one factor per named qubit in order.

    One ``qsim.apply_gate1`` call per gate: the gate-level oracle of the row
    kernel (``protocol._row_groups``, ``protocol._correct_rows``), which turns
    the same ops into index permutations and sign flips.
    """
    for qubit, factor in zip(qubits, parse_ops(ops), strict=True):
        for gate in reversed(factor):
            if gate != "I":
                reg = apply_gate1(reg, qubit, gate)
    return reg


def generate_correction_table() -> dict[TableKey, tuple[str, str]]:
    """The 64 table entries from the Pauli-frame rule, in :func:`leaf_index` order.

    Reading 0 and "+" as bit 0, Bob's correction is the :data:`FRAME` of
    Alice's results (a1, A2 xor A1) and Alice's that of Bob's
    (b3, B2 xor B1).
    """
    table = {}
    for key in LEAF_KEYS:
        a1, A2, b3, B2, A1, B1 = (OUTCOMES[basis].index(o) for (_, basis), o in zip(_PLAN, key))
        table[key] = (FRAME[a1, A2 ^ A1], FRAME[b3, B2 ^ B1])
    return table


def table_to_records(table: Table) -> list[dict]:
    """Serializable, deterministically ordered records for a table."""
    records = []
    for key in sorted(table, key=lambda k: leaf_index(*k)):
        bob_ops, alice_ops = table[key]
        record = {q: o if basis == "Z" else _PM[o] for (q, basis), o in zip(_PLAN, key)}
        records.append({**record, "bob_ops": bob_ops, "alice_ops": alice_ops})
    return records


def records_to_table(records: list[Mapping]) -> dict[TableKey, tuple[str, str]]:
    """Validate and index raw records; raises ValueError on a malformed table.

    ``records`` must be a list of objects; a Z outcome must be the integer 0
    or 1 (not a bool, float or string).
    """
    if not isinstance(records, list):
        raise ValueError(f"correction entries must be a list, got {type(records).__name__}")
    table: dict[TableKey, tuple[str, str]] = {}
    for rec in records:
        if not isinstance(rec, Mapping):
            raise ValueError(f"malformed correction record {rec!r}")
        try:
            key = tuple(rec[q] if basis == "Z" else _MP[rec[q]] for q, basis in _PLAN)
            ops = (str(rec["bob_ops"]), str(rec["alice_ops"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed correction record {rec!r}") from exc
        if any(
            type(o) is not int or o not in (0, 1)
            for o, (_, basis) in zip(key, _PLAN)
            if basis == "Z"
        ):
            raise ValueError(f"bad Z outcome in record {rec!r}")
        for ops_str in ops:
            parse_ops(ops_str)
        if key in table:
            raise ValueError(f"duplicate correction key {key!r}")
        table[key] = ops
    if len(table) != 64:
        raise ValueError(f"correction table needs 64 entries, found {len(table)}")
    return table


def write_table(table: Table, path: str | Path) -> None:
    payload = {"schema": TABLE_SCHEMA, "entries": table_to_records(table)}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@lru_cache(maxsize=8)
def _parse_table(text: str) -> Table:
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("schema") != TABLE_SCHEMA:
        raise ValueError(f"not a {TABLE_SCHEMA} document")
    return MappingProxyType(records_to_table(payload.get("entries", [])))


@lru_cache(maxsize=1)
def _packaged_text() -> str:
    return resources.files("bqtsim").joinpath("assets/correction_table.json").read_text()


def load_table(path: str | Path | None = None) -> Table:
    """Load and validate a correction table (packaged asset by default).

    The packaged asset is read once; an explicit ``path`` is read on every
    call, so a later edit to the file is always seen.  Parsed tables are
    cached by content and returned read-only, so no caller can change what
    a later call sees.  The packaged asset holds the entries of
    :func:`generate_correction_table`.
    """
    return _parse_table(_packaged_text() if path is None else Path(path).read_text())
