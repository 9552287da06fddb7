"""Golden reports: ``run`` and ``enumerate`` output pinned byte for byte.

Each file under ``tests/golden`` is a JSON report with its ``timestamp``
line removed.  The files were produced by the released code before the
leaf walk, correction key and seed rule were consolidated, and are never
regenerated to make a change pass: a difference here is a behaviour
change.  The ``0xFFFFFFFFFFFFFFF8`` runs wrap past ``2**64`` after eight
trials.  ``verify-criteria.json`` (checked in ``tests/test_cli.py``) holds
the battery's name/passed/detail rows for the default seed.
"""

from pathlib import Path

import pytest

from bqtsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{
        f"run-{seed}-{mode}.json": [
            "run", "--trials", "16", "--transcripts", "--seed", seed, "--cooperation", mode,
        ]
        for seed in ("0xB97", "0xFFFFFFFFFFFFFFF8")
        for mode in ("full", "withhold-a1", "withhold-b1")
    },
    "enumerate-default.json": ["enumerate"],
    "enumerate-complex.json": [
        "enumerate", "--alpha", "0.36,0.48,0.64,-0.48", "--beta", "0.48,0.36,0,0.8",
    ],
}


def _without_timestamp(text: str) -> str:
    lines = text.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith('  "timestamp": ')]
    assert len(kept) == len(lines) - 1
    return "".join(kept)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--format", "json", "--out", str(out)]) == 0
    assert _without_timestamp(out.read_text()) == (GOLDEN / name).read_text()
