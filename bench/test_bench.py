"""Tests of the benchmark itself: its checks catch wrong answers, its counts repeat.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root
(about two minutes: every workload runs a few passes).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run  # puts src/ on sys.path
import qcjkls.invariant
import workloads

EXACT = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "ratio")]


def test_planted_wrong_state_sum_raises_fail_ratio(monkeypatch):
    clean = run.run_workload("scan", 7, 0, trace=False)
    assert clean["failed"] == 0, clean["failures"]

    original = qcjkls.invariant.cjkls_state_sum

    def flipped(*args, **kwargs):
        z = original(*args, **kwargs)
        return type(z)(z.group, z.coeffs[:-1] + (z.coeffs[-1] + 1,))

    monkeypatch.setattr(qcjkls.invariant, "cjkls_state_sum", flipped)
    planted = run.run_workload("scan", 7, 0, trace=False)
    assert planted["fail_ratio"]["value"] > clean["fail_ratio"]["value"]
    assert any("exit code 1" in reason for reason in planted["failures"])  # family --verify says differ
    assert any("sum of Z" in reason or "disagree" in reason for reason in planted["failures"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_for_the_same_seed(name):
    first = run.run_workload(name, 3, 0, trace=True)
    second = run.run_workload(name, 3, 0, trace=True)
    assert first["failed"] == second["failed"] == 0, first["failures"]
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["counts_repeat"] and second["counts_repeat"]
    assert {m: first["metrics"][m]["value"] for m in EXACT} == {m: second["metrics"][m]["value"] for m in EXACT}


def test_inputs_depend_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first, again, other = (
            run.inputs_digest(workloads.build(name, seed, tmp_path / f"{name}-{k}"))
            for k, seed in enumerate((1, 1, 2))
        )
        assert first == again != other, name


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
