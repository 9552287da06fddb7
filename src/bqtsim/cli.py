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
pass, 1 when a check fails, 2 for configuration errors and for a run too
large for memory, which are reported on one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .corrections import load_table
from .ghz import entanglement_swap
from .parties import WITHHELD, Transcript, _trial_seeds, run_sessions, session_seed
from .protocol import DIRECTIONS, FIDELITY_FLOOR, EprInput, enumerate_branches
from .qsim import ATOL
from .verify import DEFAULT_SEED, SIGMA_GATE, leaf_histogram_gate, run_all

__all__ = ["main", "entry"]

OUTPUT_DIR_ENV = "BQTSIM_OUTPUT_DIR"

#: Pre-normalization slack allowed on amplitude input pairs.
INPUT_NORM_TOL = 1e-9

#: Largest ``--trials``: trial seeds repeat after 2**64 trials, and numpy
#: refuses an array of 2**63 elements or more before it allocates one.
MAX_TRIALS = 2**63 - 1

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


def _parse_floats(text: str, counts: tuple[int, ...], what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) not in counts:
        raise ConfigError(f"{what} needs {' or '.join(map(str, counts))} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what}: values must be finite, got {text!r}")
    return values


def _parse_amplitudes(text: str, what: str) -> EprInput:
    re0, im0, re1, im1 = _parse_floats(text, (4,), what)
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
        values = _parse_floats(args.angles, (2, 4), "--angles")
        if len(values) == 2:
            values *= 2
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


def _dumps(value, depth: int = 0) -> str:
    """``value`` as report JSON, indented to sit ``depth`` levels deep.  Indenting
    each line break is exact: ``json`` escapes every line break inside a string."""
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * depth)


def _open(value: dict, later, depth: int) -> str:
    """The text of a dict ``depth`` levels deep that is ``value`` plus the
    fields named in ``later``, up to where the first of those goes: ``value``'s
    own text without its closing brace.  Every name in ``later`` must sort
    after every key of ``value``, which must not be empty (ValueError)."""
    if not value or later and min(later) <= max(value):
        raise ValueError("spliced fields must sort after every field of a non-empty dict")
    return _dumps(value, depth)[: -2 * depth - 2]


def _trial_rows(heads: dict[int, str], leaves: list[int], base: int) -> list[str]:
    """The rendered ``run`` trial rows: trial ``i`` is its leaf's head, rendered
    by :func:`_open` two levels deep, with its "seed" and "trial" spliced in."""
    seeds = _trial_seeds(base, len(leaves)).tolist()
    return [f'{heads[leaf]},\n      "seed": {seed},\n      "trial": {i}\n    }}'
            for i, (leaf, seed) in enumerate(zip(leaves, seeds))]


def _splice(value: dict, lists: dict[str, list[str]], depth: int) -> list[str]:
    """The text of a dict ``depth`` levels deep, as parts to join: ``value``,
    with each list named in ``lists`` holding the items given there, each
    already rendered ``depth + 2`` levels deep.

    ``value`` holds each of those lists empty, so ``json`` lays out every
    field in its sorted place, and the text is cut open at each.  The cut is
    exact: ``json`` escapes every line break inside a string, so a line that
    starts ``depth + 1`` levels deep with a quote is one of ``value``'s own
    keys.  A list that ``value`` does not hold empty raises ValueError.
    """
    pad = "\n" + "  " * (depth + 1)
    parts, rest = [], _dumps(value, depth)
    for name in sorted(lists):
        field = f"{pad}{json.dumps(name)}: ["
        head, rest = rest.split(field + "]")
        parts += head, field
        for i, text in enumerate(lists[name]):
            parts += f"{',' if i else ''}{pad}  ", text
        parts.append(f"{pad}]" if lists[name] else "]")
    parts.append(rest)
    return parts


def _transcript_texts(transcripts: Iterable[Transcript]) -> list[str]:
    """Each of ``transcripts`` as report JSON two levels deep, rendering each
    distinct event once: a transcript is :meth:`Transcript.to_json_obj` of no
    events, with its events' texts spliced in (:func:`_splice`).

    Events that are ``==`` can still render differently, since ``0.0 ==
    -0.0`` and ``1 == 1.0 == True``.  So each text is keyed on its event's
    ``repr``, which tells those apart: events with equal reprs render alike.
    """
    empty = Transcript().to_json_obj()
    texts: dict[str, str] = {}
    rendered = []
    for transcript in transcripts:
        events = []
        for e in transcript.events:
            key = repr(e)
            if key not in texts:
                texts[key] = _dumps(e.to_dict(), 4)
            events.append(texts[key])
        rendered.append("".join(_splice(empty, {"events": events}, 2)))
    return rendered


def _report(
    args: argparse.Namespace, schema: str, config: dict, body: dict, ok: bool, lines: list[str],
    spliced: dict[str, list[str]] = {},
) -> int:
    """Write one report to stdout or ``--out``; return the exit status, 0 when ``ok``.

    The JSON report is ``body`` plus the fields every report carries, which
    are set here only, plus ``spliced``: lists whose items are already
    rendered two levels deep (:func:`_splice`).  The text report is
    ``lines``.  The report is built as parts.  stdout gets them joined, in
    one write: a reader that closes the pipe early then ends the program
    quietly, where ``writelines`` prints a BrokenPipeError traceback.  A
    file gets them unjoined, through a 1 MiB buffer, so a large report is
    written in writes of about 1 MiB and never copied whole, in place: ext4
    flushes a file truncated to zero on close.  A failed write leaves its tail.
    """
    if args.format == "json":
        report = {
            "schema": schema,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": config,
            **body,
            "pass": ok,
            **{name: [] for name in spliced},
        }
        parts = _splice(report, spliced, 0) + ["\n"]
    else:
        parts = ["\n".join(lines) + "\n"]
    if args.out is None:
        sys.stdout.write("".join(parts))
    else:
        path = Path(args.out)
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base and not path.is_absolute():
            path = Path(base) / path
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", buffering=1 << 20) as fh:
                fh.writelines(parts)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a pipe or a tty
                    fh.truncate()
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
    lines = ["leaf  a1 A2 b3 B2 A1 B1  prob      bob_ops alice_ops  fid(a->b)      fid(b->a)"]
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
    if args.trials > MAX_TRIALS:
        raise ConfigError(f"--trials must be at most 2**63 - 1 ({MAX_TRIALS})")
    cooperation = _COOPERATION_FLAGS[args.cooperation]
    table = load_table()
    # only the cooperative directions are gated on perfect fidelity
    withheld = WITHHELD[cooperation]
    gated = [d.field for announcement, d in DIRECTIONS.items() if announcement != withheld]
    leaves, first = run_sessions(alpha, beta, args.seed, args.trials, cooperation, table)
    ok = all(getattr(r, f) >= FIDELITY_FLOOR for r in first.values() for f in gated)
    counts = np.bincount(leaves, minlength=64)
    max_z, within = leaf_histogram_gate(counts)
    expected_count = args.trials / 64
    chi_square = float(np.sum((counts - expected_count) ** 2 / expected_count))
    lines = [f"{args.trials} session(s), seed base {args.seed}, cooperation {cooperation}"]
    for i, leaf in enumerate(leaves[:20]):
        r = first[leaf]
        exp = "-" if r.expected_fidelity is None else f"{r.expected_fidelity:.6f}"
        lines.append(
            f"  trial {i:>4}  leaf {r.leaf:>2}  "
            f"fid(a->b) {r.fidelity_alice_to_bob:.12f}  "
            f"fid(b->a) {r.fidelity_bob_to_alice:.12f}  expected {exp}"
        )
    if len(leaves) > 20:
        lines.append(f"  ... {len(leaves) - 20} more trials elided ...")
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
        "histogram": {
            "counts": [int(c) for c in counts],
            "expected_count": expected_count,
            "max_abs_z": max_z,
            "within_4_sigma": within,
            "chi_square": chi_square,
            "degrees_of_freedom": 63,
        },
    }
    spliced = {}
    if args.format == "json":
        # the inputs, mode and table are fixed within one call, so a session's
        # leaf fixes its transcript and every field of its trial row but "seed"
        # and "trial": each leaf's are rendered once, and each row splices its two in
        heads = {leaf: _open({f: getattr(r, f) for f in _LEAF_FIELDS}, ("seed", "trial"), 2)
                 for leaf, r in first.items()}
        spliced["trials"] = _trial_rows(heads, leaves, args.seed)
        if args.transcripts:
            texts = dict(zip(first, _transcript_texts(r.transcript for r in first.values())))
            spliced["transcripts"] = [texts[leaf] for leaf in leaves]
    return _report(args, "bqtsim.session-report/1", config, body, ok, lines, spliced)


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
    body = {"criteria": [{"name": r.name, "passed": r.passed, "elapsed_seconds": r.elapsed, "detail": r.detail}
                         for r in results]}
    return _report(args, "bqtsim.verify-report/1", config, body, ok, lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", metavar="RE,IM,RE,IM",
                     help="Alice's payload amplitudes (default 0.6,0,0.8,0); "
                          "a negative first value needs the = form, --alpha=-0.6,0,0.8,0")
    sub.add_argument("--beta", metavar="RE,IM,RE,IM",
                     help="Bob's payload amplitudes (default balanced); "
                          "a negative first value needs the = form, --beta=-0.6,0,0.8,0")
    sub.add_argument("--angles", metavar="THETA,PHI[,THETA,PHI]",
                     help="angle-form inputs; one pair sets both payloads; "
                          "a negative first value needs the = form, --angles=-1,0")


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
    except MemoryError as exc:  # numpy's names the allocation it refused
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
