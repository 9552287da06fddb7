"""Command-line interface.

Four subcommands cover the library surface::

    bqtsim enumerate   enumerate all 64 measurement leaves and report fidelities
    bqtsim run         play seeded two-party sessions and tally leaf counts
    bqtsim swap        print the entanglement-swapping table for one channel pair
    bqtsim verify      execute the full self-verification battery

Input payloads are given either as amplitude pairs (``--alpha re,im,re,im``)
or in angle form (``--angles theta,phi`` meaning ``cos(theta)|00> +
exp(i*phi)*sin(theta)|11>``).  Amplitude pairs whose norm strays from 1 by
more than 1e-9 are rejected; accepted pairs are normalized exactly.

Reports (see ``_report``) are JSON by default (``--format text`` for a
human summary) and are byte-identical for identical configuration and
seed, except for the ``timestamp`` field.  Exit status: 0 when all checks
pass, 1 when a check fails, 2 for configuration errors, which are reported
on one ``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .corrections import load_table
from .ghz import entanglement_swap
from .parties import WITHHELD, run_sessions, session_seed
from .protocol import DIRECTIONS, FIDELITY_FLOOR, EprInput, enumerate_branches
from .qsim import ATOL
from .verify import DEFAULT_SEED, SIGMA_GATE, leaf_histogram_gate, run_all

__all__ = ["main", "entry"]

OUTPUT_DIR_ENV = "BQTSIM_OUTPUT_DIR"

#: Pre-normalization slack allowed on amplitude input pairs.
INPUT_NORM_TOL = 1e-9

#: ``--cooperation`` value -> mode: "full", or "withhold-" and the withheld qubit.
_COOPERATION_FLAGS = {f"withhold-{w.lower()}" if w else mode: mode for mode, w in WITHHELD.items()}

#: The fields of a ``run`` trial row that its leaf fixes; "seed" and "trial" sort after them.
_LEAF_FIELDS = ("leaf", "outcomes", "fidelity_alice_to_bob", "fidelity_bob_to_alice", "expected_fidelity")

_DEFAULT_ALPHA = EprInput(0.6, 0.8)
_DEFAULT_BETA = EprInput(math.sqrt(0.5), math.sqrt(0.5))


class ConfigError(Exception):
    """Invalid flag values (exit status 2)."""


class _Parser(argparse.ArgumentParser):
    """Argument parser, and parser of its subcommands, that raises its rejections as ConfigError."""

    def error(self, message: str):
        raise ConfigError(message)


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what}: values must be finite, got {text!r}")
    return values


def _parse_amplitudes(text: str, what: str) -> EprInput:
    re0, im0, re1, im1 = _parse_floats(text, 4, what)
    c0, c1 = complex(re0, im0), complex(re1, im1)
    norm = math.hypot(abs(c0), abs(c1))
    if abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ConfigError(
            f"{what}: |({c0}, {c1})| = {norm!r} deviates from 1 by more than "
            f"{INPUT_NORM_TOL} (angle form --angles is always normalized)"
        )
    return EprInput.normalized(c0, c1)


def _from_angles(theta: float, phi: float) -> EprInput:
    return EprInput(math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta))


def _resolve_inputs(args: argparse.Namespace) -> tuple[EprInput, EprInput]:
    if getattr(args, "angles", None) is not None:
        if args.alpha is not None or args.beta is not None:
            raise ConfigError("--angles cannot be combined with --alpha/--beta")
        values = _parse_floats(args.angles, 4, "--angles") if args.angles.count(",") == 3 \
            else _parse_floats(args.angles, 2, "--angles") * 2
        return _from_angles(values[0], values[1]), _from_angles(values[2], values[3])
    alpha = _parse_amplitudes(args.alpha, "--alpha") if args.alpha else _DEFAULT_ALPHA
    beta = _parse_amplitudes(args.beta, "--beta") if args.beta else _DEFAULT_BETA
    return alpha, beta


def _parse_seed(text: str) -> int:
    """``--seed`` as an integer literal (decimal, or prefixed 0x, 0o or 0b) that
    :func:`session_seed` accepts."""
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}; give an integer such as 2967 or 0xB97") from None
    try:
        return session_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _inputs_config(alpha: EprInput, beta: EprInput) -> dict:
    """The ``alpha``/``beta`` config entries: each amplitude as ``[re, im]``."""
    return {name: [[float(c.real), float(c.imag)] for c in (inp.c0, inp.c1)]
            for name, inp in (("alpha", alpha), ("beta", beta))}


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


class _Shared:
    """A value that many places in one report hold; rendered once per depth."""

    __slots__ = ("value", "_text")

    def __init__(self, value) -> None:
        self.value = value
        self._text: dict[str, str] = {}

    def text(self, indent: str) -> str:
        if indent not in self._text:
            self._text[indent] = "".join(_render(self.value, indent))
        return self._text[indent]


@dataclass(slots=True)
class _Row:
    """A dict that is a shared ``head`` dict plus its own ``tail`` fields,
    every one of which sorts after every key of the head."""

    head: _Shared
    tail: dict


def _render(obj, indent: str = "\n"):
    """Yield the chunks of ``json.dumps(obj, indent=2, sort_keys=True,
    default=_json_default)`` for ``obj`` at the depth whose line break and
    indentation are ``indent``.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set; this is the same walk with less bookkeeping.  Unlike ``json``, a
    non-string dict key raises TypeError instead of being stringified (no
    report has one), a :class:`_Shared` value renders from its cached text,
    and a :class:`_Row` renders as its head's cached text with its tail
    spliced in before the closing brace.
    """
    if isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, int):
        yield int.__repr__(obj)
    elif isinstance(obj, float):
        if obj != obj:
            yield "NaN"
        elif obj == math.inf:
            yield "Infinity"
        elif obj == -math.inf:
            yield "-Infinity"
        else:
            yield float.__repr__(obj)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        yield "["
        for i, value in enumerate(obj):
            yield "," + inner if i else inner
            yield from _render(value, inner)
        yield indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," + inner if i else inner) + encode_basestring_ascii(key) + ": "
            yield from _render(obj[key], inner)
        yield indent + "}"
    elif isinstance(obj, _Shared):
        yield obj.text(indent)
    elif isinstance(obj, _Row):
        if not obj.head.value or (obj.tail and min(obj.tail) <= max(obj.head.value)):
            raise ValueError("a row's tail keys must sort after its non-empty head's")
        inner = indent + "  "
        yield obj.head.text(indent)[: -len(indent) - 1]
        for key in sorted(obj.tail):
            yield "," + inner + encode_basestring_ascii(key) + ": "
            yield from _render(obj.tail[key], inner)
        yield indent + "}"
    else:
        yield from _render(_json_default(obj), indent)


def _report(
    args: argparse.Namespace, schema: str, config: dict, body: dict, ok: bool, lines: list[str]
) -> int:
    """Write one report to stdout or ``--out``; return the exit status, 0 when ``ok``.

    The JSON report is ``body`` plus the fields every report carries, which
    are set here only; the text report is ``lines``.
    """
    if args.format == "json":
        report = {
            "schema": schema,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": config,
            **body,
            "pass": ok,
        }
        rendered = "".join(_render(report)) + "\n"
    else:
        rendered = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        path = Path(args.out)
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base and not path.is_absolute():
            path = Path(base) / path
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {path}: {exc}") from None
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_enumerate(args: argparse.Namespace) -> int:
    alpha, beta = _resolve_inputs(args)
    leaves = enumerate_branches(alpha, beta)
    rows = [
        {
            "leaf": leaf.index,
            **leaf.outcomes(),
            "probability": leaf.probability,
            "bob_ops": leaf.bob_ops,
            "alice_ops": leaf.alice_ops,
            "fidelity_alice_to_bob": leaf.fidelity_alice_to_bob,
            "fidelity_bob_to_alice": leaf.fidelity_bob_to_alice,
        }
        for leaf in leaves
    ]
    total = sum(leaf.probability for leaf in leaves)
    ok = (
        len(leaves) == 64
        and abs(total - 1.0) <= ATOL
        and all(r[d.field] >= FIDELITY_FLOOR for r in rows for d in DIRECTIONS.values())
    )
    lines = [
        "leaf  a1 A2 b3 B2 A1 B1  prob      bob_ops alice_ops  fid(a->b)      fid(b->a)",
    ]
    for r in rows:
        lines.append(
            f"{r['leaf']:>4}  {r['a1']}  {r['A2']}  {r['b3']}  {r['B2']}  "
            f"{r['A1']}  {r['B1']}  {r['probability']:.6f}  {r['bob_ops']:<7}"
            f" {r['alice_ops']:<9} {r['fidelity_alice_to_bob']:.12f} "
            f"{r['fidelity_bob_to_alice']:.12f}"
        )
    lines.append(f"total probability {total:.12f}  ->  {'PASS' if ok else 'FAIL'}")
    body = {"leaves": rows, "total_probability": total}
    return _report(args, "bqtsim.leaf-report/1", _inputs_config(alpha, beta), body, ok, lines)


def _cmd_run(args: argparse.Namespace) -> int:
    alpha, beta = _resolve_inputs(args)
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    cooperation = _COOPERATION_FLAGS[args.cooperation]
    table = load_table()
    # only the cooperative directions are gated on perfect fidelity
    withheld = WITHHELD[cooperation]
    gated = [d.field for announcement, d in DIRECTIONS.items() if announcement != withheld]
    # the inputs, mode and table are fixed within one call, so a session's
    # leaf fixes its transcript and every field of its trial row but "seed"
    # and "trial": each leaf's are built and rendered once
    leaves, first = run_sessions(alpha, beta, args.seed, args.trials, cooperation, table)
    heads = {leaf: _Shared({f: getattr(r, f) for f in _LEAF_FIELDS}) for leaf, r in first.items()}
    trials = [_Row(heads[leaf], {"seed": session_seed(args.seed, i), "trial": i})
              for i, leaf in enumerate(leaves)]
    ok = all(getattr(r, f) >= FIDELITY_FLOOR for r in first.values() for f in gated)
    counts = np.bincount(leaves, minlength=64)
    max_z, within = leaf_histogram_gate(counts)
    expected_count = args.trials / 64
    chi_square = float(np.sum((counts - expected_count) ** 2 / expected_count))
    lines = [f"{args.trials} session(s), seed base {args.seed}, cooperation {cooperation}"]
    for t in ({**row.head.value, **row.tail} for row in trials[:20]):
        exp = "-" if t["expected_fidelity"] is None else f"{t['expected_fidelity']:.6f}"
        lines.append(
            f"  trial {t['trial']:>4}  leaf {t['leaf']:>2}  "
            f"fid(a->b) {t['fidelity_alice_to_bob']:.12f}  "
            f"fid(b->a) {t['fidelity_bob_to_alice']:.12f}  expected {exp}"
        )
    if len(trials) > 20:
        lines.append(f"  ... {len(trials) - 20} more trials elided ...")
    lines.append(
        f"leaf histogram: max |z| = {max_z:.3f}, within {SIGMA_GATE:g} sigma: "
        f"{'yes' if within else 'no'} (informational), "
        f"chi-square {chi_square:.1f} on 63 dof"
    )
    lines.append("PASS" if ok else "FAIL")
    config = {
        **_inputs_config(alpha, beta),
        "seed": args.seed,
        "trials": args.trials,
        "cooperation": cooperation,
    }
    body = {
        "trials": trials,
        "histogram": {
            "counts": [int(c) for c in counts],
            "expected_count": expected_count,
            "max_abs_z": max_z,
            "within_4_sigma": within,
            "chi_square": chi_square,
            "degrees_of_freedom": 63,
        },
    }
    if args.transcripts:
        shared = {leaf: _Shared(r.transcript.to_json_obj()) for leaf, r in first.items()}
        body["transcripts"] = [shared[leaf] for leaf in leaves]
    return _report(args, "bqtsim.session-report/1", config, body, ok, lines)


def _cmd_swap(args: argparse.Namespace) -> int:
    outcomes = entanglement_swap(args.i, args.j)
    total = sum(o.probability for o in outcomes)
    ok = (
        len(outcomes) == 4
        and abs(total - 1.0) <= ATOL
        and all(o.matched is not None for o in outcomes)
    )
    lines = [f"channel ({args.i}, {args.j})"]
    for o in outcomes:
        lines.append(
            f"  outcome {o.outcome} -> remainder index {o.matched}  p = {o.probability:.12f}"
        )
    lines.append(f"total probability {total:.12f}  ->  {'PASS' if ok else 'FAIL'}")
    body = {
        "outcomes": [
            {"outcome": o.outcome, "probability": o.probability, "matched": o.matched}
            for o in outcomes
        ],
        "total_probability": total,
    }
    return _report(args, "bqtsim.swap-report/1", {"i": args.i, "j": args.j}, body, ok, lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    table = None
    if args.correction_table is not None:
        try:
            table = load_table(args.correction_table)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"--correction-table: {exc}") from None
    results = run_all(seed=args.seed, table=table)
    ok = all(r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"{'PASS' if ok else 'FAIL'}  ({sum(r.passed for r in results)}/{len(results)} criteria)")
    config = {"seed": args.seed, "correction_table": args.correction_table}
    body = {
        "criteria": [
            {
                "name": r.name,
                "passed": r.passed,
                "elapsed_seconds": r.elapsed,
                "detail": r.detail,
            }
            for r in results
        ]
    }
    return _report(args, "bqtsim.verify-report/1", config, body, ok, lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", metavar="RE,IM,RE,IM",
                     help="Alice's payload amplitudes (default 0.6,0,0.8,0)")
    sub.add_argument("--beta", metavar="RE,IM,RE,IM",
                     help="Bob's payload amplitudes (default balanced)")
    sub.add_argument("--angles", metavar="THETA,PHI[,THETA,PHI]",
                     help="angle-form inputs; one pair sets both payloads")


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str = "json") -> None:
    sub.add_argument("--out", metavar="PATH",
                     help=f"write the report here (relative paths resolve against ${OUTPUT_DIR_ENV})")
    sub.add_argument("--format", choices=("json", "text"), default=default_format,
                     help=f"report format (default {default_format})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bqtsim",
        description="Bidirectional EPR-payload teleportation over two GHZ triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate all 64 leaves and check fidelities")
    _add_input_flags(enum)
    _add_output_flags(enum)
    enum.set_defaults(func=_cmd_enumerate)

    run = sub.add_parser("run", help="play seeded sessions")
    _add_input_flags(run)
    _add_output_flags(run)
    run.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                     help=f"base seed (default {hex(DEFAULT_SEED)}); trial i uses "
                          "(seed + i) mod 2**64")
    run.add_argument("--trials", type=int, default=1, help="number of sessions (default 1)")
    run.add_argument("--cooperation", choices=sorted(_COOPERATION_FLAGS), default="full",
                     help="withhold one second-round announcement")
    run.add_argument("--transcripts", action="store_true",
                     help="embed full transcripts in the JSON report")
    run.set_defaults(func=_cmd_run)

    swap = sub.add_parser("swap", help="entanglement-swapping table for one channel pair")
    swap.add_argument("i", type=int, choices=range(8), help="first triple's basis index")
    swap.add_argument("j", type=int, choices=range(8), help="second triple's basis index")
    _add_output_flags(swap)
    swap.set_defaults(func=_cmd_swap)

    verify = sub.add_parser("verify", help="run the self-verification battery")
    verify.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                        help=f"battery seed (default {hex(DEFAULT_SEED)}); session i of "
                             "the sampling criterion uses (seed + i) mod 2**64")
    verify.add_argument("--correction-table", metavar="PATH", default=None,
                        help="verify against a correction table loaded from PATH")
    _add_output_flags(verify, default_format="text")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
