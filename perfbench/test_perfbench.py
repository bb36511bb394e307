"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def tiny(workload, trace, seed=1):
    return run.run(workload, seed, 0, trace, size="tiny")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_with_its_unit(workload):
    for trace, units in ((False, run.END_TO_END_UNITS), (True, dict(run.PER_LAYER))):
        facts, result = tiny(workload, trace)
        assert result["correct"], facts["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace:
            assert facts["absent"] == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        _, result = tiny(workload, True)
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "count"}
    assert counts() == counts()


def test_wrong_recorded_value_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.CERTIFIED_MINIMA, 0, (6, 7))
    facts, result = tiny("certify", False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert any("certified minimum" in name for name in facts["failures"])


def test_wrong_vector_count_is_a_failure(monkeypatch):
    monkeypatch.setitem(workloads.ADMISSIBLE_VECTORS, 0, 7)
    facts, result = tiny("disc-search", True)
    assert not result["correct"]
    assert any("search.vectors" in name for name in facts["failures"])


def test_search_is_not_reached_by_tower_or_census():
    for workload in ("tower", "curve-census"):
        _, result = tiny(workload, True)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["search.busy_s"] == 0 and metrics["search.enumerations"] == 0


def test_tower_work_hardly_depends_on_the_seed():
    import random
    sums = set()
    for seed in range(20):
        idx = workloads.tower_indices(random.Random(seed), 10)
        assert [i // 10 for i in sorted(idx)] == list(range(10))
        sums.add(sum(idx))
    assert sums == {sum(10 * d + 4.5 for d in range(10))}


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tower",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
