"""Smoke tests for the benchmark itself: every workload at a tiny size, in
both modes, reports every metric BENCHMARK.json names with its unit and a
finite value, and the traced run passes its span-count and closure checks.

    python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_engine()

import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY_TRAIN = workloads.TrainSize(n_samples=10, init_points=300, iterations=30,
                                 densify_interval=20, eval_interval=10)
TINY_RENDER = workloads.RenderSize(points=300, check_samples=5, min_requests=3)
TINY = {
    "train-512": lambda seed, trace, work: workloads.run_train(seed, 0.2, trace, work, TINY_TRAIN),
    "render-512": lambda seed, trace, work: workloads.run_render(seed, 0.2, trace, work,
                                                                 TINY_RENDER),
    "render-32768": lambda seed, trace, work: workloads.run_render(seed, 0.2, trace, work,
                                                                   TINY_RENDER),
}
# a 30-iteration model need not beat the energy baseline yet
QUALITY_CHECK = "val_mag finite and below the mono_energy baseline"


def test_tiny_table_covers_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_reports_every_metric(workload, trace, tmp_path):
    result = TINY[workload](3, trace, str(tmp_path))
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
    failed = {name for name, ok in result.checks.items() if not ok} - {QUALITY_CHECK}
    assert not failed


def test_same_seed_repeats_validation_figures(tmp_path):
    first = TINY["train-512"](5, False, str(tmp_path)).metrics
    second = TINY["train-512"](5, False, str(tmp_path)).metrics
    assert first["val_mag"] == second["val_mag"] and first["val_env"] == second["val_env"]


@pytest.mark.parametrize("workload", ["train-512", "render-512"])
def test_same_seed_repeats_counts(workload, tmp_path):
    first = TINY[workload](5, True, str(tmp_path)).metrics
    second = TINY[workload](5, True, str(tmp_path)).metrics
    counts = {name for name, (_, unit) in first.items()
              if unit in ("count", "ratio") and name != "trace.overhead_ratio"}
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_without_engine_sources_exits_nonzero_without_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "render-512",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
