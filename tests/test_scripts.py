"""The scripts under scripts/ still import and run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
