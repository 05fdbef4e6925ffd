#!/usr/bin/env python3
"""Run every CLI verification in sequence and print a one-line scoreboard.

Exercises the same entry points a user would: each check is a full CLI
invocation producing a JSON report, and the script only inspects exit codes
and outcomes.  Exits nonzero if any check does not pass.
"""

import argparse
import io
import json
import sys
import tempfile
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from paradoxlab import cli, measures, paradox

CHECKS = [
    ["words", "verify", "--depth", "6"],
    ["freeness", "exhaustive", "--depth", "8"],
    ["freeness", "certify"],
    ["sphere", "fixed-points", "--depth", "2"],
    ["sphere", "absorb", "--depth", "2", "--iters", "5"],
    ["smp", "verify", "--deg", "6", "--coef", "3"],
    ["measures", "demo", "--which", "finite-group"],
    ["measures", "demo", "--which", "density"],
    ["measures", "demo", "--which", "induced-measure"],
    ["measures", "demo", "--which", "ergodic"],
    ["cauchy", "demo", "--rank", "2"],
]


def run_one(argv: list[str]) -> tuple[int, dict]:
    out = io.BytesIO()
    err = io.StringIO()
    # cli.main writes its report to sys.stdout.buffer.
    with redirect_stdout(types.SimpleNamespace(buffer=out)), redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed passed through to every check")
    args = parser.parse_args()

    checks = [argv + ["--seed", str(args.seed)] for argv in CHECKS]

    # The contradiction run needs an input file; build the shift toy on the fly.
    model, space, witness, interior = paradox.two_to_one_shift_model(6)
    nu = measures.PointMeasure.uniform(space)
    data = measures.contradiction_input_to_json(model, space, witness, nu, False, interior)
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        toy = handle.name
    checks.append(["paradox", "contradiction", "--input", toy])

    def label(argv: list[str]) -> str:
        name = " ".join(argv[:2])
        if "--which" in argv:
            name += " " + argv[argv.index("--which") + 1]
        return name

    width = max(len(label(c)) for c in checks)
    failures = 0
    try:
        for argv in checks:
            name = label(argv)
            started = time.perf_counter()
            code, report = run_one(argv)
            elapsed = time.perf_counter() - started
            print(f"{name:<{width}}  {report['outcome']:<12} exit {code}  {elapsed:6.2f}s")
            failures += code != 0
    finally:
        Path(toy).unlink(missing_ok=True)

    print(f"{len(checks) - failures}/{len(checks)} checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
