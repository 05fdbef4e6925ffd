"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run emits exactly the metrics BENCHMARK.json names, that
the seed code grades correct, that a wrong expected value is counted as a
failure, that the oracles agree with the library where both exist, and
that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = workloads.ROOT
sys.path.insert(0, str(ROOT / "src"))  # for the in-process checks below

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes="tiny")
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert record["correct"], [c["unexpected"] for c in record["children"] if not c["setup_only"]]
    assert record["attempted"] > 0
    spurious = sum(len(c.get("known_defects", [])) for c in record["children"])
    assert record["failed"] == spurious
    if workload == "exact-ball":
        assert spurious > 0  # the seed defect shows at its population rate
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == list(workloads.WHY.values())
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_wrong_expected_value_fails_the_verdict(workload, monkeypatch):
    prepare, body = workloads.WORKLOADS[workload]
    sizes = workloads.SIZES["tiny"][workload]
    wrong = {depth: count + 1 for depth, count in workloads.RECORDED_DIRECTIONS.items()}
    monkeypatch.setattr(workloads, "RECORDED_DIRECTIONS", wrong)
    inputs = prepare(3, sizes)
    ledger = workloads.Run("smoke", trace=False)
    body(ledger, inputs, sizes)
    assert ledger.failed > 0 and ledger.unexpected


def test_word_at_follows_the_ball_order():
    from paradoxlab import words

    assert [workloads.word_at(i) for i in range(workloads.census(4))] == [str(w) for w in words.ball(4)]


def test_residue_automaton_matches_the_certificates():
    from paradoxlab import freeness

    for base in freeness.CANDIDATE_BASE_VECTORS:
        cert = freeness.build_certificate(base)
        assert workloads.residue_automaton(base) == (True, len(cert.states))
    assert workloads.residue_automaton((0, 0, 0))[0] is False


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-ball", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
