"""In-memory span recorder for traced benchmark runs.

A :class:`Tracer` wraps the public functions that each bqtsim module calls
in the layer below.  It rebinds every module global (and class attribute)
that refers to one of them, in every loaded ``bqtsim`` module, so each call
made through a module global records one span: name, start, end, parent
span and the request it belongs to.  Spans live in flat arrays while the
run lasts and are written out once at the end.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores the original objects.

A function that a later version of the package no longer has is skipped
and listed in :attr:`Tracer.missing`; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: The nine battery criteria: ``verify`` function name -> criterion name.
CRITERIA = {
    "criterion_swap_reference": "swap-reference-pairing",
    "criterion_swap_exhaustive": "swap-exhaustive",
    "criterion_branch_uniformity": "branch-uniformity",
    "criterion_reference_branches": "reference-branch-content",
    "criterion_reconstruction": "bidirectional-reconstruction",
    "criterion_correction_rules": "correction-rules",
    "criterion_noncooperation": "non-cooperation-bound",
    "criterion_sampling": "sampling-consistency",
    "criterion_engine_properties": "engine-properties",
}

#: Traced layer boundaries: span name -> (defining module, attribute path).
#: ``qsim.Register`` times the constructor, which validates every register.
TRACED: dict[str, tuple[str, str]] = {
    **{
        f"qsim.{name}": ("bqtsim.qsim", name)
        for name in (
            "measure",
            "apply_cnot",
            "apply_gate1",
            "reduced_density",
            "fidelity_pure",
            "permute",
            "tensor",
            "make_register",
            "outcome_probabilities",
        )
    },
    "qsim.Register": ("bqtsim.qsim", "Register.__init__"),
    **{
        f"protocol.{name}": ("bqtsim.protocol", name)
        for name in (
            "prepare_full_state",
            "encode",
            "step3_measure",
            "step4_measure",
            "correct",
            "enumerate_branches",
            "noncooperation_fidelity",
            "generate_correction_table",
        )
    },
    "parties.run_session": ("bqtsim.parties", "run_session"),
    "parties.Transcript.to_json_obj": ("bqtsim.parties", "Transcript.to_json_obj"),
    **{
        f"corrections.{name}": ("bqtsim.corrections", name)
        for name in ("load_table", "apply_ops", "minimal_correction")
    },
    "ghz.entanglement_swap": ("bqtsim.ghz", "entanglement_swap"),
    "ghz.ghz_state": ("bqtsim.ghz", "ghz_state"),
    **{f"verify.{crit}": ("bqtsim.verify", fn) for fn, crit in CRITERIA.items()},
    "cli.main": ("bqtsim.cli", "main"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: dict[str, str] = {}
    for span in TRACED:
        if span.startswith("verify."):
            units[f"{span}.s"] = "s"
            continue
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
        units[f"{span}.self_s"] = "s"
        if span == "parties.run_session":
            units[f"{span}.p50_ms"] = "ms"
            units[f"{span}.p90_ms"] = "ms"
    units["cli.report_bytes"] = "bytes"
    return units


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = -1  # set by the workload before each request
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        nid = len(self.names) - 1
        names, parents, requests = self.name, self.parent, self.request_of
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bqtsim" or n.startswith("bqtsim.")]
        for span, (module_name, path) in TRACED.items():
            self.names.append(span)
            owner = importlib.import_module(module_name)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(original)
            if cls:
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "request": np.frombuffer(self.request_of, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, **self.arrays())

    def metrics(self, sampler, requests: int, report_bytes: list[int]) -> dict[str, float]:
        """Per-layer metrics of a run of ``requests`` requests.

        Only spans inside timed requests count; :meth:`untimed_calls`
        lists the rest.  ``.calls`` is calls per request, the run's total
        over its request count; ``.s`` and ``.self_s`` are the median
        inclusive and self seconds per call, where self time is the span
        minus the time its child spans cover.  Span times exclude the
        ``sampler``'s kernel runs and are calibrated like request times.
        """
        a = self.arrays()
        timed = a["request"] >= 0
        dur = a["end"] - a["start"] - sampler.inside(a["start"], a["end"])
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        factor = sampler.factors(a["start"], a["end"])
        dur, own = dur * factor, (dur - child) * factor
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            hit = (a["name"] == nid) & timed
            d = dur[hit]
            if span.startswith("verify."):
                out[f"{span}.s"] = _median(d)
                continue
            out[f"{span}.calls"] = d.size / requests
            out[f"{span}.s"] = _median(d)
            out[f"{span}.self_s"] = _median(own[hit])
            if span == "parties.run_session":
                out[f"{span}.p50_ms"] = _median(d) * 1e3
                out[f"{span}.p90_ms"] = float(np.percentile(d, 90)) * 1e3 if d.size else 0.0
        out["cli.report_bytes"] = _median(np.array(report_bytes))
        return out

    def untimed_calls(self) -> dict[str, int]:
        """Calls made outside timed requests, such as leaf-tree's table check."""
        a = self.arrays()
        counts = np.bincount(a["name"][a["request"] < 0], minlength=len(self.names))
        return {span: int(n) for span, n in zip(self.names, counts) if n}


def _median(x: np.ndarray) -> float:
    return float(np.median(x)) if x.size else 0.0
