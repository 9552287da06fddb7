"""Outcome-keyed Pauli corrections for the teleported payloads.

Each of the 64 measurement leaves maps to a pair of two-qubit correction
operators: Bob's acts on (b1, b2) to recover Alice's state, Alice's acts
on (a2, a3) to recover Bob's.  Per-qubit factors are drawn from
{I, Z, X, XZ} ("XZ" means Z first, then X); the table stores the minimal
choice under a documented preference order.

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

from .qsim import OUTCOMES, Register, apply_gate1, equal_up_to_global_phase

__all__ = [
    "FACTORS",
    "MEASUREMENT_PLAN",
    "OUTCOMES",
    "PLAN_QUBITS",
    "TABLE_SCHEMA",
    "TABULATED_RULES",
    "apply_factor",
    "apply_ops",
    "correction_key",
    "encode_ops",
    "leaf_index",
    "load_table",
    "minimal_correction",
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
_KEY_PLAN = MEASUREMENT_PLAN[0] + MEASUREMENT_PLAN[1]

#: The six measured qubits in plan order: the fields of a table key.
PLAN_QUBITS = tuple(q for q, _ in _KEY_PLAN)

#: Legal per-qubit correction factors, in preference order after identity.
FACTORS = ("I", "Z", "X", "XZ")

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
    for (_, basis), outcome in zip(_KEY_PLAN, (a1, A2, b3, B2, A1, B1)):
        idx = (idx << 1) | OUTCOMES[basis].index(outcome)
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


def apply_factor(reg: Register, qubit: str, factor: str) -> Register:
    """Apply one correction factor; "XZ" applies Z first, then X."""
    if factor not in FACTORS:
        raise ValueError(f"unknown correction factor {factor!r}")
    for gate in reversed(factor):
        if gate != "I":
            reg = apply_gate1(reg, qubit, gate)
    return reg


def parse_ops(ops: str) -> tuple[str, str]:
    """Split a concatenated two-qubit ops string into its unique factors."""
    for cut in (1, 2):
        first, second = ops[:cut], ops[cut:]
        if first in FACTORS and second in FACTORS:
            return first, second
    raise ValueError(f"cannot parse correction ops {ops!r}")


def encode_ops(pair: Sequence[str]) -> str:
    first, second = pair
    if first not in FACTORS or second not in FACTORS:
        raise ValueError(f"illegal correction factors {pair!r}")
    return first + second


def apply_ops(reg: Register, qubits: Sequence[str], ops: str) -> Register:
    """Apply a two-qubit ops string to the two named qubits."""
    q1, q2 = qubits
    f1, f2 = parse_ops(ops)
    return apply_factor(apply_factor(reg, q1, f1), q2, f2)


def _candidate_key(pair: tuple[str, str]) -> tuple:
    # Fewer non-identity factors first; then Z beats X beats XZ, with ties
    # resolved by placing the operator on the earlier qubit.
    rank = {"I": 4, "Z": 1, "X": 2, "XZ": 3}
    return (sum(f != "I" for f in pair), tuple(rank[f] for f in pair))


_CANDIDATES = sorted(product(FACTORS, repeat=2), key=_candidate_key)


def minimal_correction(state: Register, target: Register, tol: float = 1e-10) -> tuple[str, str]:
    """Smallest factor pair mapping ``state`` onto ``target`` up to phase.

    Both registers must hold the same two qubits; the first factor acts on
    ``state.labels[0]``.  Raises if no candidate works (the caller is
    expected to pass a payload that some Pauli product can repair).
    """
    if state.n_qubits != 2 or target.n_qubits != 2:
        raise ValueError("correction search expects two-qubit registers")
    q1, q2 = state.labels
    for pair in _CANDIDATES:
        candidate = apply_factor(apply_factor(state, q1, pair[0]), q2, pair[1])
        if equal_up_to_global_phase(candidate, target, tol=tol):
            return pair
    raise ValueError("no I/Z/X/XZ product repairs this payload")


def table_to_records(table: Table) -> list[dict]:
    """Serializable, deterministically ordered records for a table."""
    records = []
    for key in sorted(table, key=lambda k: leaf_index(*k)):
        bob_ops, alice_ops = table[key]
        record = {q: o if basis == "Z" else _PM[o] for (q, basis), o in zip(_KEY_PLAN, key)}
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
            key = tuple(rec[q] if basis == "Z" else _MP[rec[q]] for q, basis in _KEY_PLAN)
            ops = (str(rec["bob_ops"]), str(rec["alice_ops"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed correction record {rec!r}") from exc
        if any(
            type(o) is not int or o not in (0, 1)
            for o, (_, basis) in zip(key, _KEY_PLAN)
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
    a later call sees.

    The generator that derives the packaged table from the protocol itself
    lives in :func:`bqtsim.protocol.generate_correction_table`.
    """
    return _parse_table(_packaged_text() if path is None else Path(path).read_text())
