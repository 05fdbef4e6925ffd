"""The scripts in scripts/: the scoreboard and the shift-toy writer, run as a user runs them."""

import importlib.util
import json
import os
import subprocess
import sys

from paradoxlab import cli

from conftest import REPO_ROOT, run_cli

SCRIPTS = REPO_ROOT / "scripts"


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_run_all_checks_passes_every_check():
    proc = _run_script("run_all_checks.py", "--seed", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "12/12 checks pass"


def test_a_dirac_shift_toy_breaks_the_chain_at_invariance(tmp_path):
    path = tmp_path / "toy.json"
    proc = _run_script("make_shift_toy.py", "--measure", "dirac", "--max-len", "4", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    result = run_cli("paradox", "contradiction", "--input", str(path))
    assert result.code == 1
    assert result.report["details"]["first_failure"] == "invariance"


def _load(path, monkeypatch):
    """Import a file as a module, registered in sys.modules while the test runs (dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_the_scoreboard_runs_every_subcommand(monkeypatch):
    module = _load(SCRIPTS / "run_all_checks.py", monkeypatch)
    # run_all_checks.main appends the contradiction run, whose input it writes on the fly.
    scored = {tuple(argv[:2]) for argv in module.CHECKS} | {("paradox", "contradiction")}
    assert scored == {(group, action) for group, _, action, _, _ in cli.COMMANDS}


def _without_seed_and_input(argv):
    """argv with its --seed option dropped and its --input path replaced by a placeholder."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg == "--seed":
            next(rest)
        elif arg == "--input":
            next(rest)
            out += [arg, "<input>"]
        else:
            out.append(arg)
    return out


def test_the_benchmark_scoreboard_runs_the_scoreboard_checks(monkeypatch):
    # perfbench's cli-scoreboard workload keeps its own list of commands; it
    # must run the scoreboard's checks at the scoreboard's sizes, plus the
    # contradiction run.  The module is only read: no bytecode is written.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load(REPO_ROOT / "perfbench" / "workloads.py", monkeypatch)
    checks = _load(SCRIPTS / "run_all_checks.py", monkeypatch).CHECKS
    bench = workloads.scoreboard_commands(workloads.SIZES["full"]["cli-scoreboard"], 7)
    expected = checks + [["paradox", "contradiction", "--input", "<input>"]]
    assert list(map(_without_seed_and_input, bench)) == expected
