"""Smoke run of the benchmark on tiny inputs.

    python3 -m pytest perfbench

Every workload runs once untraced and once traced at ``--size smoke``; the
result must be correct and carry exactly the metrics BENCHMARK.json names,
with their units, and no tracing wrapper may stay installed afterwards.
"""

import json
import shutil
import subprocess
import sys

import pytest

import metrics as M
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2].split(": ", 1)[1])


def test_tables_match_benchmark_json():
    run.load_library()
    from workloads import WORKLOADS

    assert [tuple(m.values()) for m in BENCHMARK["end_to_end"]] == list(M.END_TO_END)
    assert [tuple(m.values()) for m in BENCHMARK["per_layer"]] == [m[:3] for m in M.PER_LAYER]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_and_tracing_is_removed(capsys, workload):
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        code, result, _ = _run(capsys, workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCHMARK[table]}
        assert spans.leftover_wrappers() == []

    from gradsurf import gradient, neighbors, model
    assert gradient.enumerate_combinations is neighbors.enumerate_combinations
    assert not hasattr(model.MeshIndex.point_at, spans.MARKER)


def test_a_missing_function_is_reported_absent(capsys, monkeypatch):
    run.load_library()
    from gradsurf import neighbors

    monkeypatch.delattr(neighbors, "is_extrapolation")
    code, result, notes = _run(capsys, "mesh-s1-20", 1)
    assert code == 0 and result["correct"]
    assert notes["absent"] == ["neighbors.is_extrapolation"]
    assert result["metrics"]["neighbors.is_extrapolation.self_us_per_query"]["value"] == 0.0


def test_without_the_library_it_fails_without_a_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mesh-s1-20",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
