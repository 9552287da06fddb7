"""bqtsim benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload battery|sessions|leaf-tree \
        --seed N --seconds S --trace 0|1 [--correction-table PATH]

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.  The workload runs in
this process, single-threaded, with BLAS/OpenMP pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layer boundaries (see ``spans.py``) and reports the per-layer metrics.
Every time is calibrated against the machine's current speed (see
``calibrate.py``); the raw request times are kept in the run record.  The
last line of standard output is the result object.  Each run also writes
``.perfbench/<workload>-trace<T>.json`` (environment record, output
fingerprint, error rate and, for traced runs, the tracing overhead against
the last untraced run of the same workload) and, when traced, the spans to
``.perfbench/<workload>-spans.npz``.  ``--correction-table`` injects an
external table (battery and leaf-tree only); the smoke test uses it to
check that a corrupted table shows up as failed ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
#: Timed in a fresh interpreter, then calibrated by a probe in the same one.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import bqtsim
bqtsim.load_table()
t = time.perf_counter() - t
from calibrate import probe
print(repr(t), repr(probe(5)), bqtsim.__file__)
"""
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _setup_seconds(reference_s: float) -> tuple[float, float]:
    """Median calibrated and raw time of ``import bqtsim`` plus the first ``load_table()``."""
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, probe_s, origin = done.stdout.split()
        if not _in_src(origin):
            raise RuntimeError(f"setup imported bqtsim from {origin}, not {SRC}")
        raw.append(float(seconds))
        calibrated.append(float(seconds) * reference_s / float(probe_s))
    return statistics.median(calibrated), statistics.median(raw)


def _environment(bqtsim, numpy) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    table = (SRC / "bqtsim" / "assets" / "correction_table.json").read_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bqtsim": bqtsim.__version__,
        "correction_table_sha256": hashlib.sha256(table).hexdigest(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def _end_to_end(latencies: list[float], ops: int, setup_s: float) -> dict[str, float]:
    import numpy as np

    ms = np.array(latencies) * 1e3
    return {
        "setup_s": setup_s,
        "ops_per_s": ops / sum(latencies),
        "request_p50_ms": float(np.percentile(ms, 50)),
        "request_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _overhead(workload: str, traced: dict[str, float]) -> dict | None:
    """Traced minus untraced end-to-end values, against this checkout's last untraced run."""
    path = OUT / f"{workload}-trace0.json"
    if not path.is_file():
        return None
    untraced = json.loads(path.read_text())
    return {
        "untraced_seed": untraced["seed"],
        **{name: traced[name] - untraced["end_to_end"][name] for name in END_TO_END_UNITS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("battery", "sessions", "leaf-tree"))
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--correction-table", metavar="PATH", default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be non-negative and --seconds positive")
    if not (SRC / "bqtsim" / "__init__.py").is_file():
        return _fail(f"no bqtsim package under {SRC}; run from the root of a checkout")

    # Pin thread pools before numpy loads: the largest matrix is 1024x1, so
    # extra threads only add scheduler noise on a small shared machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import bqtsim

    if not _in_src(bqtsim.__file__):
        return _fail(f"imported bqtsim from {bqtsim.__file__}, not from {SRC}")
    import calibrate
    import workloads
    from spans import Tracer, per_layer_units

    if args.correction_table is not None and args.workload not in workloads.TAKES_TABLE:
        return _fail(f"--correction-table is not accepted by the {args.workload} workload")
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    setup_s, setup_raw_s = _setup_seconds(calibrate.REFERENCE_S)
    ctx = workloads.Context(
        rng=numpy.random.default_rng(args.seed),
        seconds=args.seconds,
        scratch=scratch,
        table_path=None if args.correction_table is None else str(Path(args.correction_table).resolve()),
    )
    tracer = None
    if args.trace:
        tracer = ctx.tracer = Tracer()
        tracer.install()
    try:
        with calibrate.Sampler() as sampler:
            outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
    shutil.rmtree(scratch, ignore_errors=True)

    raw, calibrated = sampler.calibrate(outcome.requests)
    e2e = _end_to_end(calibrated, outcome.ops, setup_s)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(outcome.requests),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "fingerprint": outcome.fingerprint,
        "failures": outcome.failures,
        "end_to_end": e2e,
        "raw": {
            **_end_to_end(raw, outcome.ops, setup_raw_s),
            "requests_s": raw,
            "request_at_s": [start for start, _ in outcome.requests],
            "calibrated_requests_s": calibrated,
            "kernel_s": sampler.durations,
            "kernel_at_s": sampler.starts,
        },
        "environment": _environment(bqtsim, numpy),
        **outcome.info,
    }
    if tracer is None:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        layers = tracer.metrics(sampler, len(outcome.requests), outcome.report_bytes)
        metrics = {name: (layers[name], unit) for name, unit in per_layer_units().items()}
        tracer.write(OUT / f"{args.workload}-spans.npz")
        record["per_layer"] = layers
        record["untraced_functions"] = tracer.missing
        record["untimed_calls"] = tracer.untimed_calls()
        record["tracing_overhead"] = _overhead(args.workload, e2e)
        if args.workload == "battery":
            record["criteria_sum_s"] = sum(v for k, v in layers.items() if k.startswith("verify."))
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {record['error_rate']!r} (failed {outcome.failed} of {outcome.attempted} ops)")
    print(f"fingerprint {outcome.fingerprint}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
