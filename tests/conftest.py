"""Where the suite imports ``bqtsim`` from, and the arithmetic it ran on.

Tier-1 puts the checkout's ``src/`` on the path.  With
``BQTSIM_TEST_INSTALLED`` set, the run refuses to start unless ``bqtsim``
comes from somewhere else, so that a run meant for the installed package
cannot test the checkout through a stray ``PYTHONPATH`` or an editable
install.

Every run ends with one line naming the numpy version, the Python version
and the OpenBLAS kernel set (``SkylakeX``, ``Haswell``, ...).  The pinned
bytes of the golden tests depend on all three, so a golden failure in a
log can be matched against the kernel it ran on.
"""

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    if os.environ.get("BQTSIM_TEST_INSTALLED"):
        import bqtsim

        if SRC in Path(bqtsim.__file__).resolve().parents:
            raise pytest.UsageError(f"BQTSIM_TEST_INSTALLED is set, but bqtsim was imported from {bqtsim.__file__}")


def _openblas_core() -> str:
    """The kernel set the OpenBLAS bundled in numpy's ``numpy.libs`` runs, or ``unknown``."""
    try:
        libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
        corename = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*")))).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except Exception:  # no wheel OpenBLAS, or one without the symbol
        return "unknown"


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"arithmetic: numpy {np.__version__}, Python {platform.python_version()}, OpenBLAS {_openblas_core()}"
    )
