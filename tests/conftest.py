"""Shared test helpers: an in-process CLI runner and the report schema."""

import io
import json
import pathlib
import types
from contextlib import redirect_stderr, redirect_stdout

import pytest

from paradoxlab import cli

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class CliResult:
    def __init__(self, code: int, stdout: bytes, stderr: str):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    @property
    def report(self) -> dict:
        return json.loads(self.stdout.decode("utf-8"))


def run_cli(*argv: str) -> CliResult:
    """Run the CLI in-process, capturing streams and the would-be exit code."""
    out = io.BytesIO()
    err = io.StringIO()
    # cli.main writes its report to sys.stdout.buffer.
    with redirect_stdout(types.SimpleNamespace(buffer=out)), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse error paths call sys.exit
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def report_schema() -> dict:
    path = REPO_ROOT / "schema" / "report-v1" / "report.schema.json"
    return json.loads(path.read_text())
