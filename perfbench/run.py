#!/usr/bin/env python3
"""paradoxlab benchmark: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload exact-ball --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads are ``exact-ball``, ``certified-intervals`` and ``cli-scoreboard``
(see ``workloads.py``); ``all`` runs the three in turn.  A run starts a few
set-up-only children, then full children one at a time, each a fresh
interpreter (``child.py``), until the next one would end after ``--seconds``.
At least one full child always runs.  Metrics are medians over children;
``ok_share`` is the share of verdicts, over all children, that match the
known answer.  Times are in reference seconds, rescaled by a speed probe
that runs inside each child (see ``child.py``); the raw times are in the
results file.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced children alternate, and the per-layer metrics come from
the traced ones, together with the tracing overhead (median traced wall
time minus median untraced wall time).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run also writes a results file under
``perfbench/results/`` with the environment, every child's record and, when
traced, every span.  If a child fails, the run exits with code 1 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import PER_LAYER, ROOT, SIZES, WHY, WORKLOADS, layer_metrics, now

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "slowest_verdict_s": "s",
    "ok_share": "ratio",
}

#: Extra children per run that only set up, so set-up time is a median of several.
SETUP_ONLY_CHILDREN = 4

#: Wall-clock budget of one run, inside the 180 s every run must end within.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion and return its record."""
    spec = dict(spec, spawned_at=now())
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - now(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {spec['run_id']} passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise ChildError(f"child {spec['run_id']} exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        record = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"child {spec['run_id']} printed no record:\n{proc.stderr.strip()}") from None
    return dict(record, run_id=spec["run_id"], trace=spec["trace"], setup_only=spec["setup_only"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: str = "full") -> dict:
    """Measure one workload; returns the full results record."""
    start = now()
    deadline = start + DEADLINE_S
    base = {"workload": workload, "seed": seed, "sizes": sizes}
    records = []
    for i in range(SETUP_ONLY_CHILDREN):
        records.append(spawn(dict(base, run_id=f"{seed}-setup{i}", trace=False, setup_only=True), deadline))
    batch = [False, True] if trace else [False]
    while True:
        began = now()
        for traced in batch:
            run_id = f"{seed}-{len(records)}{'t' if traced else ''}"
            records.append(spawn(dict(base, run_id=run_id, trace=traced, setup_only=False), deadline))
        if now() - start + (now() - began) > seconds:
            break

    full = [r for r in records if not r["setup_only"]]
    untraced = [r for r in full if not r["trace"]]
    attempted = sum(r["attempted"] for r in full)
    failed = sum(r["failed"] for r in full)
    if trace:
        traced = [r for r in full if r["trace"]]
        layers = [layer_metrics(r["spans"], r["counts"]) for r in traced]
        values = {name: median(layer[name] for layer in layers) for name in PER_LAYER}
        values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {name: median(r[name] for r in untraced) for name in ("wall_s", "cpu_s", "peak_rss_mib", "slowest_verdict_s")}
        values["setup_s"] = median(r["setup_s"] for r in records)
        values["ok_share"] = 1 - failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": SIZES[sizes][workload],
        "environment": environment(records[0]),
        "correct": not any(r["unexpected"] for r in full),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": {
            "wall_s": median(r["raw_wall_s"] for r in untraced),
            "cpu_s": median(r["raw_cpu_s"] for r in untraced),
            "setup_s": median(r["raw_setup_s"] for r in records),
        },
        "children": records,
    }


def environment(child: dict) -> dict:
    """Where the numbers were taken; compare.py refuses to mix versions."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT)]
        try:
            head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        else:
            if head.returncode == 0 and status.returncode == 0:
                sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": child["python"],
        "mpmath": child["mpmath"],
        "mpmath_backend": child["mpmath_backend"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def save(record: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except ChildError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        path = save(record)
        print(f"{name} (seed {args.seed}, {sum(not r['setup_only'] for r in record['children'])} runs) -> {path.relative_to(ROOT)}")
        for metric, m in record["metrics"].items():
            print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
        print("  as measured, before rescaling: " + ", ".join(f"{k} {v:.6g} s" for k, v in record["raw"].items()))
        for child in record["children"]:
            for problem in child.get("unexpected", []):
                print(f"  WRONG {child['run_id']}: {problem}")
            if child.get("known_defects"):
                print(f"  known defect {child['run_id']}: {len(child['known_defects'])} failed verdict(s)")
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in record["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
