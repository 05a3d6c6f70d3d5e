"""The scripts under scripts/ still import and run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planlm.synthdata import load_labels

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_make_synthetic_corpus_writes_corpus_and_labels(tmp_path):
    out = tmp_path / "corpus.jsonl"
    done = run_script("make_synthetic_corpus.py", "--out", str(out),
                      "--articles", "3")
    assert done.returncode == 0, done.stderr
    articles = [json.loads(line) for line in out.read_text().splitlines()]
    labels = load_labels(tmp_path / "corpus_labels.jsonl")
    assert len(articles) == 3
    assert list(labels) == [a["id"] for a in articles]
    assert all(a["text"] and labels[a["id"]] for a in articles)


def test_run_regime_comparison_help_exits_zero():
    done = run_script("run_regime_comparison.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--work-dir" in done.stdout


def test_run_regime_comparison_refuses_unknown_regime_before_any_work(
        tmp_path):
    done = run_script("run_regime_comparison.py", "--work-dir",
                      str(tmp_path / "work"), "--regimes", "fixed,bogus")
    assert done.returncode != 0
    assert "bogus" in done.stderr and "insert_internal_oracle" in done.stderr
    assert not (tmp_path / "work").exists()


def test_bench_pairs_pairs_head_with_itself(tmp_path):
    """One pair of the cheapest workload, HEAD against this checkout (the
    same outputs), gives a well-formed record and no verdict."""
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    done = run_script("bench_pairs.py", "--parent", "HEAD", "--workload",
                      "infer-adapter", "--seed", "3", "--pairs", "1",
                      "--seconds", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    [path] = tmp_path.glob("BENCH_*_infer-adapter.json")
    [record] = json.loads(path.read_text())["comparisons"]
    assert record["correct"] and record["fingerprints_equal"]
    assert len(record["runs"]) == 1 and record["runs"][0]["first"] == "parent"
    metrics = record["metrics"]
    assert {"wall_s", "setup_s", "step.scan_oracle"} <= metrics.keys()
    for m in metrics.values():
        assert m["wins"] + m["losses"] + m["ties"] == 1
        assert m["parent_q1"] == m["parent_q3"] == m["parent_median"] > 0
        assert m["verdict"] == "unresolved"
    assert record["env"]["numpy"] and record["env"]["blas_threads"] >= 1
