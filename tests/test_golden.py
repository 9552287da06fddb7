"""Golden reports: ``run``, ``enumerate`` and ``swap`` output pinned byte for byte.

Each ``.json`` file under ``tests/golden`` is a JSON report with its
``timestamp`` line removed; each ``.txt`` file is a whole text report, which
has no timestamp.  The files were produced by the released code before the
code they pin was consolidated, and are never regenerated to make a change
pass: a difference here is a behaviour change.  The ``0xFFFFFFFFFFFFFFF8``
runs wrap past ``2**64`` after eight trials.  ``verify-criteria.json``
(checked in ``tests/test_cli.py``) holds the battery's name/passed/detail
rows for the default seed.
"""

from pathlib import Path

import pytest

from bqtsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

MODES = ("full", "withhold-a1", "withhold-b1")

CASES = {
    **{
        f"run-{seed}-{mode}.json": [
            "run", "--trials", "16", "--transcripts", "--seed", seed, "--cooperation", mode,
        ]
        for seed in ("0xB97", "0xFFFFFFFFFFFFFFF8")
        for mode in MODES
    },
    **{
        f"run-0xB97-{mode}.txt": ["run", "--trials", "16", "--seed", "0xB97", "--cooperation", mode]
        for mode in MODES
    },
    "enumerate-default.json": ["enumerate"],
    "enumerate-default.txt": ["enumerate"],
    "enumerate-complex.json": [
        "enumerate", "--alpha", "0.36,0.48,0.64,-0.48", "--beta", "0.48,0.36,0,0.8",
    ],
    **{
        f"swap-{i}-{j}.{ext}": ["swap", i, j]
        for i, j in (("0", "0"), ("3", "5"))
        for ext in ("json", "txt")
    },
}


def _without_timestamp(text: str) -> str:
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "timestamp": ')]
    assert len(kept) == len(lines) - 1
    return "".join(kept)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    fmt = "json" if name.endswith(".json") else "text"
    assert main(CASES[name] + ["--format", fmt, "--out", str(out)]) == 0
    report = out.read_text()
    if fmt == "json":
        report = _without_timestamp(report)
    assert report == (GOLDEN / name).read_text()
