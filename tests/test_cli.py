"""Command-line interface tests: argument handling, exit codes, report
schemas, determinism, and file output.

All invocations but one go through ``main(argv)`` in-process; the
closed-pipe test starts a subprocess.  Exit status 2 covers configuration
problems (including argparse usage errors), 1 covers failed checks, 0
success.
"""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqtsim
from bqtsim import cli
from bqtsim.cli import INPUT_NORM_TOL, OUTPUT_DIR_ENV, _dumps, _transcript_texts, main
from bqtsim.corrections import LEAF_KEYS, load_table, table_to_records, write_table
from bqtsim.parties import COOPERATION_MODES, Event, Transcript, _records, run_session, session_seed
from bqtsim.protocol import EprInput, Tree
from bqtsim.verify import leaf_histogram_gate

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    """The parsed report, which must be written exactly as ``json.dumps`` writes it."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err or out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return report


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    code, _out, _err = run_cli(capsys)
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _out, _err = run_cli(capsys, "teleport")
    assert code == 2


def test_bad_swap_index_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, "swap", "0", "9")
    assert code == 2
    assert "invalid choice" in err


def test_alpha_norm_gate(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "--alpha", "1,0,1,0")
    assert code == 2
    assert "deviates from 1" in err
    # within tolerance: accepted and renormalized exactly
    inside = 0.6 + 0.4 * INPUT_NORM_TOL
    report = run_json(capsys, "enumerate", "--alpha", f"{inside!r},0,0.8,0")
    assert report["pass"] is True


def test_alpha_needs_four_numbers(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "--alpha", "0.6,0.8")
    assert code == 2
    assert "4 comma-separated" in err
    code, _out, err = run_cli(capsys, "enumerate", "--alpha", "0.6,x,0.8,0")
    assert code == 2
    for argv in (("enumerate", "--alpha", "nan,0,0,0"), ("run", "--angles", "0.5,inf")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "must be finite" in err


def test_a_negative_first_amplitude_needs_the_equals_form(capsys):
    code, _out, err = run_cli(capsys, "run", "--trials", "1", "--alpha=-0.6,0,0.8,0", "--format", "text")
    assert code == 0, err
    code, out, err = run_cli(capsys, "run", "--trials", "1", "--alpha", "-0.6,0,0.8,0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--alpha" in err, err


def test_angles_exclusive_with_amplitudes(capsys):
    code, _out, err = run_cli(
        capsys, "run", "--angles", "0.5,0", "--alpha", "0.6,0,0.8,0"
    )
    assert code == 2
    assert "cannot be combined" in err


def test_angles_one_pair_sets_both_inputs(capsys):
    report = run_json(capsys, "enumerate", "--angles", "0.7,0.3")
    assert report["config"]["alpha"] == report["config"]["beta"]
    four = run_json(capsys, "enumerate", "--angles", "0.7,0.3,0.2,0.0")
    assert four["config"]["alpha"] != four["config"]["beta"]
    assert four["config"]["alpha"] == report["config"]["alpha"]


@pytest.mark.parametrize("angles", ["1,2,3", "1", "1,2,3,4,5"])
def test_angles_needs_two_or_four_numbers(capsys, angles):
    code, out, err = run_cli(capsys, "run", "--angles", angles)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "needs 2 or 4 comma-separated numbers" in err


def test_trials_must_be_positive(capsys):
    code, _out, err = run_cli(capsys, "run", "--trials", "0")
    assert code == 2
    assert "at least 1" in err


# Only counts of 2**63 or more: numpy refuses those before it allocates, so a
# missing bound shows as a traceback here, never as a huge allocation.
@pytest.mark.parametrize("trials", [str(2**63), "99999999999999999999"])
def test_trials_beyond_the_bound_are_one_error_line(capsys, trials):
    code, out, err = run_cli(capsys, "run", "--trials", trials)
    assert code == 2 and out == ""
    assert err == "error: --trials must be at most 2**63 - 1 (9223372036854775807)\n"


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # a run too large for memory, as numpy reports it, without allocating anything
    def refuse(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type uint64")

    monkeypatch.setattr(cli, "run_sessions", refuse)
    code, out, err = run_cli(capsys, "run", "--trials", "10000000000", "--format", "text")
    assert code == 2 and out == ""
    assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type uint64\n"


def test_seed_accepts_hex(capsys):
    report = run_json(capsys, "run", "--trials", "1", "--seed", "0x10")
    assert report["config"]["seed"] == 16


@pytest.mark.parametrize("command", ["run", "verify"])
def test_seed_that_is_not_an_integer_is_named(capsys, command):
    code, _out, err = run_cli(capsys, command, "--seed", "abc")
    assert code == 2
    assert "argument --seed: invalid seed 'abc'" in err
    assert "lambda" not in err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("teleport",),
        ("swap", "0", "9"),
        ("run", "--seed", "abc"),
        ("run", "--trials", "abc"),
        ("run", "--format", "xml"),
        ("run", "--seed", "-1"),
        ("verify", "--seed", "0x10000000000000000"),
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_every_rejection_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv", [("--help",), ("run", "--help")], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: bqtsim")


def test_seed_range_checked(capsys):
    code, _out, err = run_cli(capsys, "run", "--seed", "-1", "--trials", "1")
    assert code == 2
    assert "--seed" in err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_report(capsys):
    report = run_json(capsys, "enumerate")
    assert report["schema"] == "bqtsim.leaf-report/1"
    assert report["pass"] is True
    assert len(report["leaves"]) == 64
    assert report["total_probability"] == pytest.approx(1.0, abs=1e-12)
    first = report["leaves"][0]
    assert first["leaf"] == 0
    assert first["bob_ops"] == "II" and first["alice_ops"] == "II"
    assert first["probability"] == pytest.approx(1 / 64, abs=1e-12)
    assert first["fidelity_alice_to_bob"] >= 1.0 - 1e-10


def test_enumerate_text_format(capsys):
    code, out, _err = run_cli(capsys, "enumerate", "--format", "text")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert len(out.splitlines()) == 66  # header + 64 leaves + summary


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_report_structure(capsys):
    report = run_json(capsys, "run", "--trials", "8", "--seed", "3")
    assert report["schema"] == "bqtsim.session-report/1"
    assert report["pass"] is True
    assert [t["trial"] for t in report["trials"]] == list(range(8))
    assert [t["seed"] for t in report["trials"]] == list(range(3, 11))
    hist = report["histogram"]
    assert sum(hist["counts"]) == 8
    assert hist["degrees_of_freedom"] == 63
    assert "transcripts" not in report
    for t in report["trials"]:
        assert t["expected_fidelity"] is None
        assert t["fidelity_alice_to_bob"] >= 1.0 - 1e-10


def test_run_deterministic_modulo_timestamp(capsys):
    first = run_json(capsys, "run", "--trials", "4", "--seed", "9")
    second = run_json(capsys, "run", "--trials", "4", "--seed", "9")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_run_with_transcripts(capsys):
    report = run_json(
        capsys, "run", "--trials", "2", "--seed", "1", "--transcripts"
    )
    assert len(report["transcripts"]) == 2
    for doc in report["transcripts"]:
        assert doc["schema"] == "bqtsim.transcript/1"
        assert any(e["kind"] == "correct" for e in doc["events"])


def test_run_withholding_mode(capsys):
    report = run_json(
        capsys, "run", "--trials", "6", "--seed", "2",
        "--cooperation", "withhold-a1",
    )
    assert report["pass"] is True  # only the cooperative direction is gated
    assert report["config"]["cooperation"] == "alice_withholds_A1"
    for t in report["trials"]:
        assert t["expected_fidelity"] == pytest.approx(0.5392, abs=1e-12)
        assert t["fidelity_bob_to_alice"] >= 1.0 - 1e-10


def test_run_text_format(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--trials", "2", "--seed", "4", "--format", "text"
    )
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "leaf histogram" in out


def _expected_run_report(config: dict, mode: str, trials: int, seed: int, transcripts: bool = True) -> str:
    """A run report, timestamp line dropped, built from the library and rendered by json."""
    alpha, beta = (EprInput(*(complex(*amp) for amp in config[name])) for name in ("alpha", "beta"))
    results = [run_session(alpha, beta, seed=session_seed(seed, i), cooperation=mode) for i in range(trials)]
    counts = np.bincount([r.leaf for r in results], minlength=64)
    expected_count = trials / 64
    max_z, within = leaf_histogram_gate(counts)
    report = {
        "schema": "bqtsim.session-report/1",
        "config": {**config, "seed": seed, "trials": trials, "cooperation": mode},
        "trials": [
            {
                "trial": i,
                "seed": r.seed,
                "leaf": r.leaf,
                "outcomes": r.outcomes,
                "fidelity_alice_to_bob": r.fidelity_alice_to_bob,
                "fidelity_bob_to_alice": r.fidelity_bob_to_alice,
                "expected_fidelity": r.expected_fidelity,
            }
            for i, r in enumerate(results)
        ],
        "histogram": {
            "counts": counts.tolist(),
            "expected_count": expected_count,
            "max_abs_z": max_z,
            "within_4_sigma": within,
            "chi_square": float(np.sum((counts - expected_count) ** 2 / expected_count)),
            "degrees_of_freedom": 63,
        },
        "pass": True,
    }
    if transcripts:
        report["transcripts"] = [r.transcript.to_json_obj() for r in results]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _lines_without_timestamp(text: str) -> list[str]:
    # lines, not one string: pytest reports the first differing line at once
    return [line for line in text.splitlines(keepends=True) if not line.startswith('  "timestamp": ')]


@pytest.mark.parametrize("flag, mode", [
    ("full", "full"),
    ("withhold-a1", "alice_withholds_A1"),
    ("withhold-b1", "bob_withholds_B1"),
])
def test_many_trial_report_matches_json_dumps(tmp_path, capsys, flag, mode):
    # 300 trials over 64 leaves: most transcripts recur, so the report reuses their text
    argv = ["run", "--trials", "300", "--transcripts", "--seed", "0xB97", "--cooperation", flag]
    target = tmp_path / "run.json"
    assert main(argv + ["--out", str(target)]) == 0
    text = target.read_text()
    config = json.loads(text)["config"]
    expected = _expected_run_report(config, mode, 300, 0xB97)
    assert _lines_without_timestamp(text) == expected.splitlines(keepends=True)
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0
    assert _lines_without_timestamp(out) == _lines_without_timestamp(text)


@pytest.mark.parametrize("transcripts", [False, True], ids=["rows", "transcripts"])
@pytest.mark.parametrize("flag, mode", [
    ("full", "full"),
    ("withhold-a1", "alice_withholds_A1"),
    ("withhold-b1", "bob_withholds_B1"),
])
@pytest.mark.parametrize("trials", [1, 63, 300])
def test_run_report_is_json_dumps_of_its_sessions(capsys, trials, flag, mode, transcripts):
    # the spliced report, byte for byte, against json of a report rebuilt from per-trial sessions;
    # the base seed wraps past 2**64 at trial 8
    argv = ["run", "--trials", str(trials), "--seed", "0xFFFFFFFFFFFFFFF8", "--cooperation", flag]
    code, out, _err = run_cli(capsys, *argv, *(["--transcripts"] if transcripts else []))
    assert code == 0
    expected = _expected_run_report(json.loads(out)["config"], mode, trials, 0xFFFFFFFFFFFFFFF8, transcripts)
    assert _lines_without_timestamp(out) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("mode", COOPERATION_MODES)
@pytest.mark.parametrize("edited", [False, True], ids=["packaged", "edited"])
def test_transcript_texts_match_json_of_each_transcript(mode, edited):
    # every leaf's transcript, rendered from its events' shared texts, against json of the whole
    table = load_table()
    if edited:
        table = dict(table)
        table[LEAF_KEYS[37]] = ("XI", table[LEAF_KEYS[37]][1])  # legal, but no Pauli frame
    tree = Tree(EprInput.normalized(0.6, 0.8j), EprInput.normalized(1 - 2j, 0.5))
    transcripts = [r.transcript for r in _records(tree, list(range(64)), [0] * 64, mode, table)]
    assert _transcript_texts(transcripts) == [_dumps(t.to_json_obj(), 2) for t in transcripts]


def test_transcript_texts_tell_equal_events_apart():
    # == events that json writes differently must not share a text
    events = [Event(4, "Bob", "fidelity", ("B1", "B2"), outcome=f) for f in (0.0, -0.0, 1, 1.0, True)]
    events += [Event(3, "Alice", "measure", ("a1",), "Z", outcome=o, probability=0.5) for o in (1, True, 1.0)]
    events += [Event(3, "Alice", "measure", ("a1",), "Z", outcome=0, probability=p) for p in (0.0, -0.0)]
    assert len(set(events)) == 4
    transcripts = [Transcript([e]) for e in events] + [Transcript(events)]
    texts = _transcript_texts(transcripts)
    assert texts == [_dumps(t.to_json_obj(), 2) for t in transcripts]
    assert len(set(texts)) == len(texts)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("run", "--trials", "4096", "--transcripts"), ("swap", "0", "0")],
                         ids=lambda argv: argv[0])
def test_out_that_fills_up_mid_write_exits_2(capsys, argv):
    # the large report fails while it streams, the small one when the file closes
    code, out, err = run_cli(capsys, *argv, "--out", "/dev/full")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --out: cannot write /dev/full"), err


def test_closed_stdout_pipe_is_quiet():
    src = str(Path(bqtsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bqtsim.cli", "run", "--trials", "2000", "--transcripts"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "confi'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""


# ---------------------------------------------------------------------------
# swap
# ---------------------------------------------------------------------------

def test_swap_report(capsys):
    report = run_json(capsys, "swap", "0", "0")
    assert report["schema"] == "bqtsim.swap-report/1"
    assert report["pass"] is True
    table = {o["outcome"]: o["matched"] for o in report["outcomes"]}
    assert table == {0: 0, 1: 1, 6: 2, 7: 3}


def test_swap_text_format(capsys):
    code, out, _err = run_cli(capsys, "swap", "3", "5", "--format", "text")
    assert code == 0
    assert "channel (3, 5)" in out
    assert out.strip().endswith("PASS")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_reports(capsys):
    code, out, _err = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # nine criteria + summary
    assert all(line.startswith("PASS") for line in lines[:9])
    assert lines[-1].startswith("PASS  (9/9")


def test_verify_json_format(capsys):
    report = run_json(capsys, "verify", "--format", "json")
    assert report["schema"] == "bqtsim.verify-report/1"
    assert report["pass"] is True
    assert [c["name"] for c in report["criteria"]] == [
        "swap-reference-pairing",
        "swap-exhaustive",
        "branch-uniformity",
        "reference-branch-content",
        "bidirectional-reconstruction",
        "correction-rules",
        "non-cooperation-bound",
        "sampling-consistency",
        "engine-properties",
    ]
    # name/passed/detail are pinned by a golden file (see tests/test_golden.py)
    golden = json.loads((GOLDEN / "verify-criteria.json").read_text())
    assert [
        {k: c[k] for k in ("name", "passed", "detail")} for c in report["criteria"]
    ] == golden


def test_verify_detects_corrupted_table(tmp_path, capsys):
    table = dict(load_table())
    table[(0, "+", 0, "+", "+", "+")] = ("XX", "XX")
    path = tmp_path / "corrupt.json"
    write_table(table, path)
    code, out, _err = run_cli(capsys, "verify", "--correction-table", str(path))
    assert code == 1
    assert "FAIL  bidirectional-reconstruction" in out


def test_verify_rejects_unreadable_table(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"schema\": \"wrong/0\"}")
    code, _out, err = run_cli(capsys, "verify", "--correction-table", str(path))
    assert code == 2
    assert "--correction-table" in err


@pytest.mark.parametrize("entries", [5, None], ids=["int", "null"])
def test_verify_rejects_malformed_table_entries(tmp_path, capsys, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "bqtsim.correction-table/1", "entries": entries}))
    code, out, err = run_cli(capsys, "verify", "--correction-table", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --correction-table:")


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe\x80{}"], ids=["text", "not-utf8"])
def test_verify_rejects_a_table_that_is_not_json(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", "--correction-table", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --correction-table:")


def test_verify_rejects_non_integer_z_outcomes(tmp_path, capsys):
    payload = {"schema": "bqtsim.correction-table/1",
               "entries": table_to_records(load_table())}
    payload["entries"][0]["a1"] = 0.9
    path = tmp_path / "float.json"
    path.write_text(json.dumps(payload))
    code, _out, err = run_cli(capsys, "verify", "--correction-table", str(path))
    assert code == 2
    assert err.count("\n") == 1 and "bad Z outcome" in err


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _err = run_cli(capsys, "swap", "0", "0", "--out", str(target))
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    assert json.loads(target.read_text())["schema"] == "bqtsim.swap-report/1"


def test_out_relative_resolves_against_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code, _out, _err = run_cli(capsys, "swap", "1", "1", "--out", "nested/s.json")
    assert code == 0
    assert (tmp_path / "nested" / "s.json").exists()


def test_out_absolute_ignores_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "unused"))
    target = tmp_path / "direct.json"
    code, _out, _err = run_cli(capsys, "swap", "2", "2", "--out", str(target))
    assert code == 0
    assert target.exists()
    assert not (tmp_path / "unused").exists()


def test_out_unwritable_exits_2(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    for target in (blocker / "report.json", tmp_path):
        code, out, err = run_cli(capsys, "swap", "0", "0", "--out", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: --out")


def test_out_over_a_longer_file_leaves_exactly_the_new_report(tmp_path, capsys):
    # the file is rewritten in place, so its inode and hard links see the new report
    target, alias = tmp_path / "report.txt", tmp_path / "alias.txt"
    target.write_text("an older, longer report\n" * 4000)
    os.link(target, alias)
    inode = target.stat().st_ino
    code, want, _err = run_cli(capsys, "swap", "3", "5", "--format", "text")
    assert code == 0
    code, out, _err = run_cli(capsys, "swap", "3", "5", "--format", "text", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == alias.read_bytes() == want.encode()
    assert target.stat().st_ino == inode


def test_out_through_a_symlink_writes_its_target_and_keeps_the_link(tmp_path, capsys):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("an older, longer report\n" * 100)
    link.symlink_to(real)
    code, want, _err = run_cli(capsys, "swap", "0", "0", "--format", "text")
    code, _out, _err = run_cli(capsys, "swap", "0", "0", "--format", "text", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == want


def test_out_keeps_the_file_mode(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("{}\n")
    target.chmod(0o640)
    code, _out, _err = run_cli(capsys, "swap", "0", "0", "--out", str(target))
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert json.loads(target.read_text())["schema"] == "bqtsim.swap-report/1"


@pytest.mark.skipif(not Path(os.devnull).exists(), reason="needs a null device")
def test_out_to_the_null_device_exits_0(capsys):
    # not a regular file, so it is written but never truncated
    code, out, err = run_cli(capsys, "run", "--trials", "64", "--transcripts", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")
