import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from planlm import storage
from planlm.cli import main
from planlm.corpus import save_articles_jsonl
from planlm.synthdata import default_grammar, generate_corpus

CFG_SETS = [
    "--set", "n_val=6", "--set", "n_test=6", "--set", "vocab_size=512",
    "--set", "encoder_dim=32", "--set", "hash_buckets=4096", "--set", "k=8",
    "--set", "planner_layers=1", "--set", "planner_heads=2",
    "--set", "planner_context=8", "--set", "planner_epochs=1",
    "--set", "lm_dim=32", "--set", "lm_layers=2", "--set", "lm_heads=2",
    "--set", "context_window=32", "--set", "pretrain_epochs=1",
    "--set", "finetune_epochs=1", "--set", "adapted_layers=1",
    "--set", "gen_max_tokens=32", "--set", "lengths=16,32",
    "--set", "edit_base_len=16", "--set", "eval_articles=3",
    "--set", "hmm_states=4", "--set", "hmm_iters=5",
    "--set", "scan_articles=2", "--set", "noise_variants=4",
]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    articles, _ = generate_corpus(default_grammar(seed=0), 40, 5)
    path = root / "raw.jsonl"
    save_articles_jsonl(articles, path)
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("run")
    base = ["--out-dir", str(out)] + CFG_SETS
    assert main(["ingest", "--input", str(corpus_file)] + base) == 0
    assert main(["embed"] + base) == 0
    assert main(["cluster"] + base) == 0
    assert main(["actions"] + base) == 0
    return out


def args(out, *extra):
    return list(extra) + ["--out-dir", str(out)] + CFG_SETS


def test_pipeline_through_evaluation(run_dir):
    assert main(args(run_dir, "pretrain-lm")) == 0
    assert main(args(run_dir, "train-planner")) == 0
    assert main(args(run_dir, "finetune", "--regime", "fixed")) == 0
    assert main(args(run_dir, "finetune", "--regime", "predicted_pa")) == 0
    assert main(args(run_dir, "generate", "--regime", "fixed")) == 0
    assert main(args(run_dir, "evaluate", "--regimes",
                     "none,fixed,predicted_pa")) == 0
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert set(report["regimes"]) == {"none", "fixed", "predicted_pa"}
    for entry in report["regimes"].values():
        assert entry["ppl"] > 0


def test_fixed_regime_evaluation_never_calls_planner(run_dir):
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert report["regimes"]["fixed"]["planner_invocations"] == 0


def test_missing_artifact_exit_code_names_producer(tmp_path, capsys):
    out = tmp_path / "fresh"
    code = main(["cluster", "--out-dir", str(out)] + CFG_SETS)
    assert code == 2
    err = capsys.readouterr().err
    assert "embed" in err


def test_config_mismatch_refused_then_forced(run_dir, capsys):
    other = ["--out-dir", str(run_dir)] + CFG_SETS + ["--set", "k=4"]
    code = main(["cluster"] + other)
    assert code == 1
    assert "force" in capsys.readouterr().err
    assert main(["cluster"] + other + ["--force"]) == 0
    # restore the original clustering for other tests
    assert main(args(run_dir, "cluster", "--force")) == 0
    assert main(args(run_dir, "actions", "--force")) == 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    code = main(["ingest", "--input", "x", "--out-dir", str(tmp_path),
                 "--set", "bogus=1"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_cluster_rerun_is_bit_identical(corpus_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        base = ["--out-dir", str(out)] + CFG_SETS
        assert main(["ingest", "--input", str(corpus_file)] + base) == 0
        assert main(["embed"] + base) == 0
        assert main(["cluster"] + base) == 0
        outs.append(out)
    assert (outs[0] / "centroids.plmb").read_bytes() == \
        (outs[1] / "centroids.plmb").read_bytes()
    assert (outs[0] / "embeddings.plmb").read_bytes() == \
        (outs[1] / "embeddings.plmb").read_bytes()


def test_inspect_cluster_reports_sizes(run_dir, capsys):
    assert main(args(run_dir, "inspect-cluster", "--action-id", "0",
                     "--top-n", "3")) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["nearest"]) == 3
    dists = [h["distance"] for h in out["nearest"]]
    assert dists == sorted(dists)
    assert len(out["ten_largest_clusters"]) <= 10


def test_inspect_cluster_unknown_id(run_dir, capsys):
    assert main(args(run_dir, "inspect-cluster", "--action-id", "99")) == 1


def test_external_embeddings_escape_hatch(corpus_file, tmp_path, run_dir):
    out = tmp_path / "ext"
    base = ["--out-dir", str(out)] + CFG_SETS
    assert main(["ingest", "--input", str(corpus_file)] + base) == 0
    external = run_dir / "embeddings.plmb"
    assert main(["embed", "--external-embeddings", str(external)] + base) == 0
    assert (out / "embeddings.plmb").exists()
    manifest = json.loads((out / "embeddings.plmb.manifest.json").read_text())
    assert manifest["extra"]["external"] is True


def test_inspect_cluster_ranks_in_external_embedding_space(corpus_file, tmp_path,
                                                          run_dir, capsys):
    # 16-dim external embeddings under encoder_dim=32: the centroids live in
    # the external space, so the built-in encoder must not be used to rank
    rows = storage.read_matrix(run_dir / "embeddings.plmb").shape[0]
    matrix = np.random.default_rng(0).normal(size=(rows, 16))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    external = tmp_path / "external16.plmb"
    storage.write_matrix(external, matrix)
    out = tmp_path / "ext16"
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    assert main(args(out, "embed", "--external-embeddings", str(external))) == 0
    for command in ("cluster", "actions"):
        assert main(args(out, command)) == 0
    capsys.readouterr()
    assert main(args(out, "inspect-cluster", "--action-id", "0",
                     "--top-n", "3")) == 0
    nearest = json.loads(capsys.readouterr().out)["nearest"]
    centroid = storage.read_matrix(out / "centroids.plmb")[0].astype(np.float64)
    stored = storage.read_matrix(out / "embeddings.plmb").astype(np.float64)
    want = np.sort(((stored - centroid) ** 2).sum(axis=1))[:3]
    np.testing.assert_allclose([h["distance"] for h in nearest], want,
                               rtol=1e-9)


def test_predicted_oa_finetunes_without_a_planner(corpus_file, tmp_path,
                                                  capsys):
    out = tmp_path / "no_planner"
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    for command in ("embed", "cluster", "actions", "pretrain-lm"):
        assert main(args(out, command)) == 0
    # trains on oracle actions: the planner is neither read nor recorded
    assert main(args(out, "finetune", "--regime", "predicted_oa")) == 0
    manifest = json.loads(
        (out / "lm_predicted_oa.plmc.manifest.json").read_text())
    assert "planner.plmc" not in {Path(p).name for p in manifest["inputs"]}
    assert main(args(out, "finetune", "--regime", "predicted_pa")) == 2
    # evaluated on planned actions: the planner is required
    capsys.readouterr()
    assert main(args(out, "evaluate", "--regimes", "predicted_oa")) == 1
    assert "train-planner" in capsys.readouterr().err


def test_scan_oracle_outputs_curves(run_dir):
    assert main(args(run_dir, "finetune", "--regime", "oracle")) == 0
    assert main(args(run_dir, "scan-oracle")) == 0
    lines = (run_dir / "oracle_scan.csv").read_text().splitlines()
    assert lines[0] == "rank,ppl"
    assert len(lines) == 1 + 8  # k ranks
    summary = json.loads((run_dir / "scan_summary.json").read_text())
    assert summary["mean_oracle_rank"] >= 1.0
    ppls = [float(l.split(",")[1]) for l in lines[1:]]
    assert ppls == sorted(ppls)  # non-decreasing in rank


def test_insert_style_finetune_and_evaluate(run_dir):
    assert main(args(run_dir, "finetune", "--regime", "oracle", "--style",
                     "insert", "--locus", "internal")) == 0
    assert main(args(run_dir, "evaluate", "--regimes", "oracle", "--style",
                     "insert", "--locus", "internal")) == 0
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert "insert_internal_oracle" in report["regimes"]


def test_train_planner_without_val_articles_refused_before_training(
        corpus_file, tmp_path, capsys):
    out = tmp_path / "no_val"
    no_val = ["--out-dir", str(out)] + CFG_SETS + ["--set", "n_val=0"]
    assert main(["ingest", "--input", str(corpus_file)] + no_val) == 0
    for command in ("embed", "cluster", "actions"):
        assert main([command] + no_val) == 0
    capsys.readouterr()
    assert main(["train-planner"] + no_val) == 1
    assert "n_val" in capsys.readouterr().err
    assert not (out / "planner.plmc").exists()


def test_evaluate_refuses_checkpoints_of_another_config(corpus_file, tmp_path,
                                                        capsys):
    out = tmp_path / "stale"
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    for command in ("embed", "cluster", "actions", "pretrain-lm",
                    "train-planner"):
        assert main(args(out, command)) == 0
    assert main(args(out, "finetune", "--regime", "oracle")) == 0
    # config B re-derives the actions but not the checkpoints
    other = ["--out-dir", str(out)] + CFG_SETS + ["--set", "k=4"]
    assert main(["embed", "--force"] + other) == 0
    assert main(["cluster"] + other) == 0
    assert main(["actions"] + other) == 0
    capsys.readouterr()
    evaluate = ["evaluate", "--regimes", "none,oracle"] + other
    assert main(evaluate) == 1
    assert "force" in capsys.readouterr().err
    assert not (out / "eval_report.json").exists()
    assert main(evaluate + ["--force"]) == 0
    manifest = json.loads((out / "eval_report.json.manifest.json").read_text())
    assert {"base_lm.plmc", "lm_oracle.plmc", "planner.plmc"} <= \
        {Path(p).name for p in manifest["inputs"]}
