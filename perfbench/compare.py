#!/usr/bin/env python3
"""Summarise or compare benchmark results files written by run.py.

    python3 perfbench/compare.py perfbench/results/exact-ball-*.json
    python3 perfbench/compare.py --base OLD/*.json -- NEW/*.json

Files are grouped by workload and trace mode.  For each metric it prints the
median over the files and the quartile spread (Q3 - Q1) / median.  With
``--base`` it also prints the change of the median against the base files
and marks end-to-end metrics that got worse by more than their bound in
BENCHMARK.json.  Results taken under different Python or mpmath versions
are refused (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in BENCHMARK["end_to_end"]}


def load(paths: list[str]) -> dict:
    groups: dict = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", default=[], help="results files of the parent commit")
    parser.add_argument("files", nargs="+", help="results files to summarise")
    args = parser.parse_args(argv)

    base, new = load(args.base), load(args.files)
    versions = {
        (r["environment"]["python"], r["environment"]["mpmath"])
        for groups in (base, new)
        for records in groups.values()
        for r in records
    }
    if len(versions) > 1:
        print(f"refusing to compare results from different Python/mpmath versions: {sorted(versions)}", file=sys.stderr)
        return 2

    worse = 0
    for key in sorted(new):
        workload, trace = key
        records = new[key]
        print(f"{workload} (trace {int(trace)}): {len(records)} run(s), {sum(r['failed'] for r in records)} failed verdicts")
        for metric, first in records[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in records]
            line = f"  {metric:<36} {median(values):>14.6g} {first['unit']:<6} spread {spread(values):6.3f}"
            if key in base:
                was = median(r["metrics"][metric]["value"] for r in base[key])
                change = (median(values) - was) / was if was else 0.0
                line += f"   base {was:>12.6g}  change {change:+.3f}"
                bound, better = BOUNDS.get(metric, (None, None))
                if bound is not None and (change if better == "lower" else -change) > bound:
                    line += "  WORSE THAN BOUND"
                    worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
