"""Smoke test of the benchmark itself: a tiny run of each workload.

Run from the root of a checkout (about three minutes; the battery and the
4096-trial sessions dominate)::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench" / "smoke"
SEED = 1


def _run(*extra: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", str(SEED), "--seconds", "1", *extra],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def _fingerprint(done: subprocess.CompletedProcess) -> str:
    return next(ln.split()[1] for ln in done.stdout.splitlines() if ln.startswith("fingerprint "))


@pytest.fixture(scope="module")
def corrupt_table() -> str:
    """The packaged table with one leaf's correction changed to a legal, wrong one."""
    doc = json.loads((ROOT / "src" / "bqtsim" / "assets" / "correction_table.json").read_text())
    entry = doc["entries"][0]
    entry["bob_ops"] = "XI" if entry["bob_ops"] != "XI" else "ZI"
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "corrupt_table.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_present_with_units(workload: str) -> None:
    fingerprints = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run("--workload", workload, "--trace", trace)
        result = _result(done)
        assert result["correct"] and result["failed"] == 0, done.stdout
        metrics = result["metrics"]
        assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
            name: m["unit"] for name, m in metrics.items()
        }
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in metrics.values())
        fingerprints.append(_fingerprint(done))
    # tracing must not change what the program computes
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("workload", ["battery", "leaf-tree"])
def test_corrupted_table_counts_as_failed_ops(workload: str, corrupt_table: str) -> None:
    done = _run("--workload", workload, "--trace", "0", "--correction-table", corrupt_table)
    result = _result(done)
    assert result["failed"] > 0 and not result["correct"]
    if workload == "leaf-tree":
        # the per-op checks must fire too, not only the one table comparison
        record = json.loads((ROOT / ".perfbench" / "leaf-tree-trace0.json").read_text())
        assert any(f.startswith("op ") for f in record["failures"]), record["failures"]


def test_sessions_reject_a_correction_table(corrupt_table: str) -> None:
    done = _run("--workload", "sessions", "--trace", "0", "--correction-table", corrupt_table)
    assert done.returncode == 2 and not done.stdout


def test_fails_without_the_package() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "leaf-tree", "--trace", "0", root=bare)
    assert done.returncode != 0 and not done.stdout
