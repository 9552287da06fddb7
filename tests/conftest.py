"""Where the suite imports ``bqtsim`` from.

Tier-1 puts the checkout's ``src/`` on the path.  With
``BQTSIM_TEST_INSTALLED`` set, the run refuses to start unless ``bqtsim``
comes from somewhere else, so that a run meant for the installed package
cannot test the checkout through a stray ``PYTHONPATH`` or an editable
install.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    if os.environ.get("BQTSIM_TEST_INSTALLED"):
        import bqtsim

        if SRC in Path(bqtsim.__file__).resolve().parents:
            raise pytest.UsageError(f"BQTSIM_TEST_INSTALLED is set, but bqtsim was imported from {bqtsim.__file__}")
