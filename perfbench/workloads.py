"""The benchmark's three workloads, each a closed loop with one client.

Every workload runs single-threaded in the benchmark process, calls only
the public bqtsim API, checks each output against the repository's fixed
tolerances, and counts an op whose check fails as failed; nothing is
skipped or retried.  All inputs come from the run's generator: seeds are
drawn uniformly from ``[0, 2**64)`` and payloads uniformly from the unit
sphere (or, in angle form, uniformly in both angles).

* ``battery``: in-process ``bqtsim verify`` over the nine criteria.  A
  request is one battery; an op is one criterion.
* ``sessions``: in-process ``bqtsim run --trials 4096 --transcripts``
  cycling through the three cooperation modes in whole rounds.  A request
  is one ``run`` call; an op is one trial.
* ``leaf-tree``: ``enumerate_branches`` plus both non-cooperation
  fidelities for a fresh payload pair.  A request and an op are one pair.
  Once per run, before timing, the regenerated correction table is
  compared with the one in use (one more op).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bqtsim
from bqtsim import cli

from spans import CRITERIA

FIDELITY_FLOOR = 1.0 - 1e-10
EXACT_TOL = 1e-12
#: Trials per ``run`` call: the ``run --trials 4096`` case that ROADMAP item 1
#: names, and the trial count of the battery's sampling criterion.  At this
#: size per-trial work and the held trial list dominate each call.
SESSION_TRIALS = 4096
SESSION_MODES = ("full", "withhold-a1", "withhold-b1")
#: Leaf-tree ops every run completes; the fingerprint covers exactly these.
LEAF_FINGERPRINT_OPS = 8


@dataclass
class Context:
    rng: np.random.Generator
    seconds: float
    scratch: Path
    table_path: str | None = None
    tracer: object | None = None

    def begin(self, request: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request


@dataclass
class Outcome:
    requests: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    ops: int = 0  # ops inside timed requests
    attempted: int = 0
    failed: int = 0
    report_bytes: list[int] = field(default_factory=list)
    fingerprint: str = ""
    failures: list[str] = field(default_factory=list)  # the first few, for the run record
    info: dict = field(default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if count and len(self.failures) < 20:
            self.failures.append(what)


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def draw_payload(rng: np.random.Generator) -> bqtsim.EprInput:
    v = rng.normal(size=4)
    return bqtsim.EprInput.normalized(complex(v[0], v[1]), complex(v[2], v[3]))


def _bound(c0: complex, c1: complex) -> float:
    """Expected deprived fidelity |c0|^4 + |c1|^4."""
    return abs(c0) ** 4 + abs(c1) ** 4


def _read_report(text: str) -> dict:
    """Parse a report with each ``run`` transcript replaced by its sha256.

    The check then holds far less than ``bqtsim run --transcripts`` did, so
    the peak resident memory stays that of the program.
    """

    def digest_transcript(obj: dict):
        if obj.keys() == {"events", "schema"}:
            return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        return obj

    return json.loads(text, object_hook=digest_transcript)


def _call_cli(out: Outcome, argv: list[str], report: Path) -> tuple[int | None, dict | None]:
    """Run ``bqtsim`` in-process as one request; return (exit code, parsed report)."""
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crashed request is a failed request
        traceback.print_exc(file=sys.stderr)
        code = None
    out.requests.append((start, time.perf_counter()))
    if not report.is_file():
        out.report_bytes.append(0)
        return code, None
    out.report_bytes.append(report.stat().st_size)
    return code, _read_report(report.read_text())


def battery(ctx: Context) -> Outcome:
    out = Outcome()
    report_path = ctx.scratch / "verify.json"
    argv = ["verify", "--seed", str(draw_seed(ctx.rng)), "--format", "json",
            "--out", str(report_path)]
    if ctx.table_path is not None:
        argv += ["--correction-table", ctx.table_path]
    names = tuple(CRITERIA.values())
    elapsed: dict[str, list[float]] = {name: [] for name in names}
    start = time.perf_counter()
    while not out.requests or time.perf_counter() - start < ctx.seconds:
        ctx.begin(len(out.requests))
        code, report = _call_cli(out, argv, report_path)
        out.ops += len(names)
        out.attempted += len(names)
        criteria = report["criteria"] if report else []
        passed = {c["name"] for c in criteria if c["passed"] is True}
        bad = [name for name in names if name not in passed]
        if not bad and code != 0:
            bad = list(names)
        out.fail(len(bad), f"battery {len(out.requests) - 1} (exit {code}): failed {bad}; "
                 + "; ".join(c["detail"] for c in criteria if c["name"] in bad))
        for c in criteria:
            elapsed.setdefault(c["name"], []).append(c["elapsed_seconds"])
        if not out.fingerprint:
            rows = [[c["name"], c["passed"], c["detail"]] for c in criteria]
            out.fingerprint = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    out.info["verify_seed"] = int(argv[2])
    out.info["criterion_elapsed_s"] = {
        name: float(np.median(v)) for name, v in elapsed.items() if v
    }
    return out


def _session_failures(code: int | None, report: dict | None, mode: str, trials: int) -> int:
    """Trials of one ``run`` report that miss a check."""
    if report is None or len(report["trials"]) != trials or len(report["transcripts"]) != trials:
        return trials
    deprived = {"withhold-a1": "alice_to_bob", "withhold-b1": "bob_to_alice"}.get(mode)
    bound = None
    if deprived is not None:
        sender = report["config"]["alpha" if mode == "withhold-a1" else "beta"]
        bound = _bound(complex(*sender[0]), complex(*sender[1]))
    bad = 0
    for t in report["trials"]:
        ok = all(
            t[f"fidelity_{d}"] >= FIDELITY_FLOOR
            for d in ("alice_to_bob", "bob_to_alice")
            if d != deprived
        )
        expected = t["expected_fidelity"]
        if bound is None:
            ok = ok and expected is None
        else:
            ok = ok and expected is not None and abs(expected - bound) <= EXACT_TOL
        bad += not ok
    if bad == 0 and (code != 0 or report["pass"] is not True):
        bad = trials
    return bad


def sessions(ctx: Context) -> Outcome:
    out = Outcome()
    report_path = ctx.scratch / "run.json"
    digest = hashlib.sha256()
    per_round = len(SESSION_MODES)
    start = time.perf_counter()
    k = 0
    # Whole rounds only, so every cooperation mode runs equally often; the
    # first round always runs, and a later one only if it should end in time.
    while k == 0 or k % per_round or (time.perf_counter() - start) * (1 + per_round / k) <= ctx.seconds:
        mode = SESSION_MODES[k % per_round]
        seed = draw_seed(ctx.rng)
        # (theta, phi) for each payload, uniform in both angles
        angles = ",".join(repr(float(x)) for x in ctx.rng.uniform(0, (math.pi / 2, 2 * math.pi) * 2))
        argv = ["run", "--trials", str(SESSION_TRIALS), "--seed", str(seed), "--angles", angles,
                "--cooperation", mode, "--transcripts", "--format", "json",
                "--out", str(report_path)]
        ctx.begin(k)
        code, report = _call_cli(out, argv, report_path)
        out.ops += SESSION_TRIALS
        out.attempted += SESSION_TRIALS
        out.fail(_session_failures(code, report, mode, SESSION_TRIALS),
                 f"request {k} (exit {code}): {' '.join(argv[:-2])}")
        if k < per_round and report is not None:
            report.pop("timestamp", None)
            digest.update(json.dumps(report, sort_keys=True).encode())
        k += 1
    out.fingerprint = digest.hexdigest()
    return out


def _leaf_ok(leaves, fid_a: float, fid_b: float, alice, bob) -> bool:
    return (
        len(leaves) == 64
        and all(abs(leaf.probability - 1 / 64) <= EXACT_TOL for leaf in leaves)
        and all(
            leaf.fidelity_alice_to_bob >= FIDELITY_FLOOR
            and leaf.fidelity_bob_to_alice >= FIDELITY_FLOOR
            for leaf in leaves
        )
        and abs(fid_a - _bound(alice.c0, alice.c1)) <= EXACT_TOL
        and abs(fid_b - _bound(bob.c0, bob.c1)) <= EXACT_TOL
    )


def leaf_tree(ctx: Context) -> Outcome:
    out = Outcome()
    table = bqtsim.load_table(ctx.table_path) if ctx.table_path is not None else None
    digest = hashlib.sha256()
    ctx.begin(-1)
    generated = bqtsim.generate_correction_table()
    in_use = table if table is not None else bqtsim.load_table()
    out.attempted += 1
    out.fail(int(generated != dict(in_use)), "generated correction table differs from the one in use")
    digest.update(repr(sorted(generated.items())).encode())
    start = time.perf_counter()
    k = 0
    while k < LEAF_FINGERPRINT_OPS or time.perf_counter() - start < ctx.seconds:
        alice, bob = draw_payload(ctx.rng), draw_payload(ctx.rng)
        ctx.begin(k)
        t0 = time.perf_counter()
        try:
            leaves = bqtsim.enumerate_branches(alice, bob, table)
            fid_a = bqtsim.noncooperation_fidelity(alice, "A1")
            fid_b = bqtsim.noncooperation_fidelity(bob, "B1")
        except Exception:  # a crashed op is a failed op
            traceback.print_exc(file=sys.stderr)
            leaves = None
        out.requests.append((t0, time.perf_counter()))
        out.ops += 1
        out.attempted += 1
        if leaves is None or not _leaf_ok(leaves, fid_a, fid_b, alice, bob):
            out.fail(1, f"op {k}: alice {alice}, bob {bob}")
        if k < LEAF_FINGERPRINT_OPS and leaves is not None:
            rows = [
                (leaf.index, leaf.probability.hex(), leaf.bob_ops, leaf.alice_ops,
                 leaf.fidelity_alice_to_bob.hex(), leaf.fidelity_bob_to_alice.hex())
                for leaf in leaves
            ]
            digest.update(repr((rows, fid_a.hex(), fid_b.hex())).encode())
        k += 1
    out.fingerprint = digest.hexdigest()
    return out


WORKLOADS = {"battery": battery, "sessions": sessions, "leaf-tree": leaf_tree}
#: Workloads that take an external correction table (for fault injection).
TAKES_TABLE = ("battery", "leaf-tree")
