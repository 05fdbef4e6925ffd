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


def test_the_scoreboard_runs_every_subcommand():
    spec = importlib.util.spec_from_file_location("run_all_checks", SCRIPTS / "run_all_checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # run_all_checks.main appends the contradiction run, whose input it writes on the fly.
    scored = {tuple(argv[:2]) for argv in module.CHECKS} | {("paradox", "contradiction")}
    assert scored == {(group, action) for group, _, action, _, _ in cli.COMMANDS}
