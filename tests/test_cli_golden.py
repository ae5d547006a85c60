"""Golden-file test for the command line interface.

Each case below runs main(argv) in-process and compares its exit code,
its stdout (with the timing_ms value masked) and its stderr byte for
byte against tests/data/cli_golden.txt, one JSON object per line.  The
file pins the exact output of every subcommand in both formats and of
the usage errors, so a refactor of the layers below the CLI cannot
change what a user sees without this test failing.  The same records
are required of a second pass in one process (main reuses one parser)
and of a few cases run as a real `python -m malmsten.cli` process.

After an intended output change, regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from malmsten import cli
from malmsten.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"
SRC = Path(__file__).parent.parent / "src"

CASES = [
    # eval and quad: every selector in both formats
    ["eval", "--which", "a", "--a", "0.5"],
    ["eval", "--which", "a", "--a", "-3.25", "--format", "csv"],
    ["eval", "--which", "b"],
    ["eval", "--which", "b", "--format", "csv"],
    ["eval", "--which", "c", "--a", "2", "--b", "3"],
    ["eval", "--which", "c", "--a", "0.1", "--b", "0.5", "--format", "csv"],
    ["quad", "--which", "a", "--a", "0"],
    ["quad", "--which", "a", "--a", "1.5", "--format", "csv"],
    ["quad", "--which", "b", "--rel-tol", "1e-10"],
    ["quad", "--which", "b", "--format", "csv"],
    ["quad", "--which", "c", "--a", "2", "--b", "3"],
    ["quad", "--which", "c", "--a", "0.1", "--b", "0.5", "--format", "csv"],
    # verify: a passing grid with skips, a point just above the z-domain
    # cutoff, a passing chain at the tolerance floor, a point past the t
    # the sech cosine transform resolves (a skip), and a failing chain
    # (exit 1): at a = 1e-300 the p_integral quadrature does not converge
    ["verify", "--grid", "0,-1,0.5"],
    ["verify", "--grid", "0,-1,0.5", "--format", "csv"],
    ["verify", "--grid", "0.005", "--tol", "1e-6"],
    ["verify", "--grid", "0.005", "--format", "csv"],
    ["verify", "--grid", "1.0", "--tol", "1e-14"],
    ["verify", "--grid", "1.0", "--tol", "1e-14", "--format", "csv"],
    ["verify", "--grid", "1e6"],
    ["verify", "--grid", "1e-300"],
    # table
    ["table", "--a-min=-1", "--a-max", "1", "--steps", "3", "--format", "json"],
    ["table", "--a-min", "0", "--a-max", "2", "--steps", "4"],
    # usage errors: bad flags and flag combinations
    ["eval"],
    ["eval", "--which", "z", "--a", "1"],
    ["eval", "--which", "a"],
    ["eval", "--which", "b", "--a", "1"],
    ["eval", "--which", "c", "--a", "1"],
    ["eval", "--which", "c", "--a", "0", "--b", "1"],
    ["eval", "--which", "a", "--a", "x"],
    ["quad", "--which", "c", "--a", "-2", "--b", "1"],
    # --rel-tol is checked before the positivity of a and b
    ["quad", "--which", "c", "--a", "-2", "--b", "1", "--rel-tol", "nan"],
    ["verify", "--grid", ""],
    ["verify", "--grid", "abc"],
    ["verify", "--grid", "1.0,,2.0"],
    ["table", "--a-min", "1", "--a-max", "0", "--steps", "5"],
    ["table", "--a-min", "0", "--a-max", "1", "--steps", "1"],
    # usage errors: non-finite values
    ["eval", "--which", "a", "--a", "nan"],
    ["eval", "--which", "c", "--a", "1", "--b", "inf"],
    ["quad", "--which", "a", "--a=-inf"],
    ["quad", "--which", "b", "--rel-tol", "nan"],
    ["verify", "--grid", "1,nan"],
    ["verify", "--grid", "1", "--tol", "inf"],
    ["table", "--a-min", "nan", "--a-max", "1", "--steps", "3"],
    ["table", "--a-min", "0", "--a-max", "inf", "--steps", "3"],
    # usage errors: tolerances below the floor
    ["quad", "--which", "b", "--rel-tol", "1e-15"],
    ["quad", "--which", "b", "--rel-tol", "-1"],
    ["verify", "--grid", "1", "--tol", "1e-15"],
    ["verify", "--grid", "1", "--tol", "0"],
    # usage errors: no or unknown command
    [],
    ["frobnicate"],
]

_TIMING = re.compile(r'"timing_ms":[^,}]+')


def _record(argv, code, stdout, stderr):
    return {"argv": argv, "exit": code,
            "stdout": _TIMING.sub('"timing_ms":"*"', stdout), "stderr": stderr}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return _record(argv, code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open(encoding="utf-8") as fh:
        return {tuple(g["argv"]): g for g in map(json.loads, fh)}


@pytest.fixture(autouse=True)
def _fixed_terminal_width(monkeypatch):
    # argparse wraps its usage text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "<none>")
def test_cli_output_matches_golden(golden, argv):
    assert run_case(argv) == golden[tuple(argv)]


# An argparse usage error: its usage line is wrapped to the terminal width.
USAGE_ERROR = ["eval", "--which", "z", "--a", "1"]


def test_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # Every subcommand in both formats, usage errors, an unknown command,
    # no command and --help.
    for argv in [
        ["eval", "--which", "a", "--a", "0.5"],
        ["eval", "--which", "a", "--a", "-3.25", "--format", "csv"],
        ["quad", "--which", "b", "--rel-tol", "1e-10"],
        ["quad", "--which", "c", "--a", "0.1", "--b", "0.5", "--format", "csv"],
        ["verify", "--grid", "0.005", "--tol", "1e-6"],
        ["verify", "--grid", "0.005", "--format", "csv"],
        ["table", "--a-min=-1", "--a-max", "1", "--steps", "3", "--format", "json"],
        ["table", "--a-min", "0", "--a-max", "2", "--steps", "4"],
        ["eval"],
        ["eval", "--which", "a"],
        USAGE_ERROR,
        ["table", "--a-min", "1", "--a-max", "0", "--steps", "5"],
        ["quad", "--which", "b", "--rel-tol", "nan"],
        ["frobnicate"],
        [],
        ["--help"],
        ["eval", "--help"],
        ["quad", "--help"],
        ["verify", "--help"],
        ["table", "--help"],
    ]:
        run_case(argv)
    assert built == []


def test_no_state_carries_over_between_calls(golden):
    help_record = run_case(["--help"])
    assert help_record["exit"] == 0 and help_record["stdout"].startswith("usage: malmsten")
    for argv in CASES + CASES:
        assert run_case(argv) == golden[tuple(argv)]
        assert run_case(["--help"]) == help_record
        assert run_case(USAGE_ERROR) == golden[tuple(USAGE_ERROR)]


def test_usage_error_wraps_to_the_width_at_call_time(monkeypatch):
    shown = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = io.StringIO()
        with contextlib.redirect_stderr(fresh), pytest.raises(SystemExit):
            cli._build_parser().parse_args(USAGE_ERROR)
        shown[columns] = run_case(USAGE_ERROR)["stderr"]
        assert shown[columns] == fresh.getvalue()
    assert shown["40"] != shown["200"]


@pytest.mark.parametrize("argv", [
    ["eval", "--which", "b"],
    ["quad", "--which", "c", "--a", "0.1", "--b", "0.5", "--format", "csv"],
    USAGE_ERROR,
], ids=" ".join)
def test_cli_process_matches_golden(golden, argv):
    # Bytes, not text: universal newlines would turn the CSV's CRLF into LF.
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "malmsten.cli", *argv], env=env,
                          capture_output=True, timeout=60, check=False)
    got = _record(argv, proc.returncode, proc.stdout.decode("utf-8"),
                  proc.stderr.decode("utf-8"))
    assert got == golden[tuple(argv)]


def test_module_run_matches_in_process_main():
    # `python -m malmsten.cli` runs the module as __main__, with the parser
    # it builds at import and the handlers bound to it.  -I drops
    # PYTHONPATH, so src/ goes on sys.path first and runpy runs the module
    # the way -m does.
    argv = ["eval", "--which", "b"]
    code = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
            "runpy.run_module('malmsten.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC), *argv],
                          capture_output=True, timeout=60, check=False)
    got = _record(argv, proc.returncode, proc.stdout.decode("utf-8"),
                  proc.stderr.decode("utf-8"))
    assert got == run_case(argv)


def _loaded_after_import(module, names):
    """Which of `names` are in sys.modules after a fresh `python -I -S`
    imports `module` from src/ alone (-S keeps site's .pth files out)."""
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            f"print(sorted({set(names)!r} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_cli_import_loads_no_record_machinery_and_no_csv():
    # Start-up cost: the records come from collections.namedtuple, so
    # importing the CLI pulls in none of dataclasses, inspect (with its
    # ast, dis and tokenize) or typing (with its re); csv loads only when
    # a command reads or writes CSV.
    names = ("dataclasses", "inspect", "typing", "csv")
    assert _loaded_after_import("malmsten.cli", names) == "[]\n"


def test_package_import_leaves_the_cli_out():
    # `import malmsten` pays for the library only: the CLI and the
    # argparse, json and csv it needs load when malmsten.cli is imported,
    # and typing not at all.
    names = ("malmsten.cli", "argparse", "json", "csv", "typing")
    assert _loaded_after_import("malmsten", names) == "[]\n"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for argv in CASES:
            fh.write(json.dumps(run_case(argv)) + "\n")
