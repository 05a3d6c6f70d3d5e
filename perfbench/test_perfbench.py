"""Smoke tests of the benchmark on tiny corpora.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the smallest run of each workload shape that still reaches every layer
TINY = dict(n_val=3, n_test=1, eval_articles=2, scan_articles=1,
            pretrain_epochs=1, planner_epochs=1, planner_patience=1,
            finetune_epochs=1, finetune_patience=1, hmm_iters=2)


def tiny(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(workload, articles=12,
                               config={**workload.config, **TINY})


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_record(request, tmp_path_factory):
    record = bench.measure(tiny(request.param), seed=3, seconds=0,
                           traced=True, work_root=tmp_path_factory.mktemp("w"))
    return record


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracing.PER_LAYER


def test_run_is_correct_and_emits_every_metric(traced_record):
    record = traced_record
    assert record["problems"] == []
    assert record["failed"] == 0
    assert record["attempted"] == 3 * len(
        workloads.WORKLOADS[record["workload"]].timed) + len(
            workloads.WORKLOADS[record["workload"]].setup)
    stage = record["stage_metrics"]
    for name in run.END_TO_END:
        assert stage[name] > 0, name
    for name, unit in tracing.PER_LAYER.items():
        assert record["layers"][name]["unit"] == unit, name
    assert record["warmup"]["fingerprint"] == \
        record["passes"][0]["fingerprint"] == record["traced"]["fingerprint"]


def test_self_times_fit_in_the_traced_wall_time(traced_record):
    layers = {n: m["value"] for n, m in traced_record["layers"].items()}
    wall = traced_record["traced"]["metrics"]["wall_s"]
    self_times = [v for n, v in layers.items() if n.endswith("_s")
                  and not n.startswith(("pipeline.", "trace."))]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) <= wall
    steps = sum(v for n, v in layers.items() if n.startswith("pipeline."))
    assert steps <= wall
    assert steps == pytest.approx(wall, rel=1e-2)


def test_tracer_patches_every_import_site_and_restores_them():
    from planlm import autodiff, evaluation, pipeline

    original = evaluation.hmm_fit
    assert pipeline.hmm_fit is original
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert pipeline.hmm_fit is evaluation.hmm_fit is not original
        a = autodiff.Tensor([1.0, 2.0])
        (a + a) @ autodiff.Tensor([[1.0], [1.0]])
        assert tracer.calls() == {"autodiff.elementwise": 1,
                                  "autodiff.matmul": 1}
    finally:
        tracer.uninstall()
    assert pipeline.hmm_fit is evaluation.hmm_fit is original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.names += ["outer", "inner", "inner"]
    tracer.parents += [-1, 0, 0]
    tracer.starts += [0.0, 1.0, 3.0]
    tracer.ends += [10.0, 2.0, 5.0]
    assert tracer.self_times() == {"outer": 7.0, "inner": 3.0}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-adapter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
