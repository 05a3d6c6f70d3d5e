import argparse
import dataclasses
import itertools
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from planlm import corpus, generation, pipeline, storage
from planlm.cli import build_parser, effective_config, main
from planlm.config import RunConfig
from planlm.corpus import load_articles, save_articles_jsonl
from planlm.encoder import SentenceEncoder
from planlm.lm import BaseLM, Regime
from planlm.planner import PlannerModel
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


def test_missing_input_files_exit_2(corpus_file, tmp_path, capsys):
    out = tmp_path / "missing_inputs"
    assert main(args(out, "ingest", "--input", str(tmp_path / "no.jsonl"))) \
        == 2
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    assert main(args(out, "embed", "--external-embeddings",
                     str(tmp_path / "no.plmb"))) == 2
    assert "no.plmb" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    # the regime is a command flag, never configuration
    for key in ("bogus", "regime"):
        code = main(["ingest", "--input", "x", "--out-dir", str(tmp_path),
                     "--set", f"{key}=fixed"])
        assert code == 1
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("given, names", [
    pytest.param("k=abc", ["k:", "'abc'"], id="--set int"),
    pytest.param("planner_lr=fast", ["planner_lr:", "'fast'"], id="--set float"),
    pytest.param("lengths=8,x", ["lengths:", "'8,x'"], id="--set list"),
    pytest.param(b"k = 4.5\n", ["run.cfg", "k:", "'4.5'"], id="--config int"),
    pytest.param(b"k = 4\nk = 5\n", ["run.cfg", "line 2", "'k'"],
                 id="--config duplicate key"),
    pytest.param(b"seed = 1\n# \xff\n", ["run.cfg"], id="--config not UTF-8"),
])
def test_bad_config_input_refused_with_one_error_line(tmp_path, capsys, given,
                                                      names):
    if isinstance(given, str):
        flags = ["--set", given]
    else:
        (tmp_path / "run.cfg").write_bytes(given)
        flags = ["--config", str(tmp_path / "run.cfg")]
    capsys.readouterr()
    assert main(["ingest", "--input", "x", "--out-dir", str(tmp_path / "out")]
                + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(name in err[0] for name in names), err[0]


@pytest.mark.parametrize("given, command, names", [
    ("lm_heads=3", "pretrain-lm", ["model dim 32", "3 heads"]),
    ("planner_heads=3", "train-planner", ["model dim 32", "3 heads"]),
    ("lm_batch=0", "pretrain-lm", ["lm_batch"]),
    ("planner_batch=0", "train-planner", ["planner_batch"]),
    ("pretrain_epochs=0", "pretrain-lm", ["pretrain_epochs"]),
    ("context_window=1", "pretrain-lm", ["context_window"]),
    ("eval_articles=-1", "generate", ["eval_articles"]),
    ("scan_articles=-2", "scan-oracle", ["scan_articles"]),
    ("noise_variants=-1", "scan-oracle", ["noise_variants"]),
    ("finetune_epochs=0", "finetune", ["finetune_epochs"]),
    ("planner_epochs=0", "train-planner", ["planner_epochs"]),
    ("hmm_iters=0", "evaluate", ["hmm_iters"]),
    ("hmm_states=0", "evaluate", ["hmm_states"]),
    ("edit_base_len=0", "evaluate", ["edit_base_len"]),
    ("lengths=0,32", "evaluate", ["lengths", "got 0"]),
    ("ngram_order=0", "embed", ["ngram_order"]),
    ("lm_dim=0", "pretrain-lm", ["lm_dim"]),
    ("kmeans_max_iters=0", "cluster", ["kmeans_max_iters"]),
    ("top_k=-3", "generate", ["top_k"]),
    ("lm_lr=0", "finetune", ["lm_lr"]),
    ("lm_lr=-1", "finetune", ["lm_lr"]),
    ("lm_lr=nan", "finetune", ["lm_lr"]),
    ("planner_lr=-0.5", "train-planner", ["planner_lr"]),
    ("vocab_size=0", "pretrain-lm", ["vocab_size", "got 0"]),
    ("vocab_size=2", "finetune", ["vocab_size", "got 2"]),
    ("finetune_patience=0", "finetune", ["finetune_patience"]),
    ("planner_patience=-1", "train-planner", ["planner_patience"]),
])
def test_bad_config_value_refused_with_one_error_line(run_dir, tmp_path,
                                                      capsys, given, command,
                                                      names):
    out = copy_of(run_dir, tmp_path)
    capsys.readouterr()
    assert main(args(out, command, "--force") + ["--set", given]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert all(name in err[0] for name in names), err[0]


def test_only_the_common_flags_set_the_run_config():
    # one home per setting: a subcommand's own flags select variants within
    # a run and never change its identity, which --seed/--set/--config own
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    common = {"--seed", "--set", "--config"}
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if common.isdisjoint(action.option_strings):
                assert action.dest not in fields, (name, action.dest)


def test_directory_corpus_ingests_like_its_jsonl(corpus_file, tmp_path):
    # one file per article: the id is the file stem, the title the first
    # line, the text the rest; files are read in file-name order, here the
    # reverse of the corpus order
    articles = load_articles(corpus_file)
    articles = [dataclasses.replace(a, id=f"a{len(articles) - i:03d}")
                for i, a in enumerate(articles)]
    txt_dir = tmp_path / "txt"
    txt_dir.mkdir()
    for article in articles:
        (txt_dir / f"{article.id}.txt").write_text(
            f"{article.title}\n{article.text}", encoding="utf-8")
    ordered = articles[::-1]
    jsonl = tmp_path / "ordered.jsonl"
    save_articles_jsonl(ordered, jsonl)
    assert load_articles(txt_dir) == ordered
    runs = {}
    for name, source in (("dir", txt_dir), ("jsonl", jsonl)):
        runs[name] = tmp_path / f"run_{name}"
        assert main(args(runs[name], "ingest", "--input", str(source))) == 0
    for artifact in ("corpus.jsonl", "splits.json", "vocab.txt"):
        assert (runs["dir"] / artifact).read_bytes() == \
            (runs["jsonl"] / artifact).read_bytes(), artifact


def test_non_utf8_corpus_file_refused_with_one_error_line(tmp_path, capsys):
    txt_dir = tmp_path / "txt"
    txt_dir.mkdir()
    (txt_dir / "a.txt").write_text("Title\nOne sentence.", encoding="utf-8")
    (txt_dir / "b.txt").write_bytes(b"Title\nCaf\xe9 sentence.")
    capsys.readouterr()
    assert main(args(tmp_path / "out", "ingest", "--input", str(txt_dir))) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "b.txt" in err[0]
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


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
    assert main(args(run_dir, "finetune", "--regime",
                     "insert_internal_oracle")) == 0
    assert main(args(run_dir, "evaluate", "--regimes",
                     "insert_internal_oracle")) == 0
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert "insert_internal_oracle" in report["regimes"]


def test_one_evaluate_scores_none_and_both_insert_regimes(run_dir):
    assert main(args(run_dir, "finetune", "--regime",
                     "insert_external_predicted_pa")) == 0
    regimes = ["none", "insert_external_predicted_pa", "insert_internal_oracle"]
    assert main(args(run_dir, "evaluate", "--regimes", ",".join(regimes))) == 0
    report = json.loads((run_dir / "eval_report.json").read_text())
    assert set(regimes) <= set(report["regimes"])
    # each entry was scored by this call, not carried over
    inputs = storage.read_manifest(run_dir / "eval_report.json")["inputs"]
    assert {"base_lm.plmc", "lm_insert_external_predicted_pa.plmc",
            "lm_insert_internal_oracle.plmc"} <= set(inputs)


@pytest.mark.parametrize("flag, value", [("--style", "insert"),
                                         ("--locus", "internal")])
def test_regime_fields_are_no_flags(run_dir, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(args(run_dir, "evaluate", "--regimes", "oracle", flag, value))
    assert exc.value.code == 2


def test_unknown_regime_key_refused_with_one_error_line(run_dir, capsys):
    capsys.readouterr()
    assert main(args(run_dir, "evaluate", "--regimes", "insert_bogus")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "insert_bogus" in err[0] and "insert_internal_oracle" in err[0]


def test_free_generation_with_oracle_regime_rejected(run_dir, capsys):
    capsys.readouterr()
    assert main(args(run_dir, "generate", "--regime", "oracle")) == 1
    assert "oracle" in capsys.readouterr().err
    assert not (run_dir / "generations_oracle.jsonl").exists()


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
    assert main(["ingest", "--input", str(corpus_file), "--force"]
                + other) == 0
    assert main(["embed"] + other) == 0
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


def test_unconditional_generation_starts_from_bos(corpus_file, tmp_path):
    out = tmp_path / "unconditional"
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    for command in ("embed", "cluster", "actions", "pretrain-lm"):
        assert main(args(out, command)) == 0
    assert main(args(out, "finetune", "--regime", "fixed")) == 0
    assert main(args(out, "generate", "--regime", "fixed", "--mode",
                     "unconditional")) == 0
    lines = (out / "generations_fixed.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 3  # eval_articles
    for record in records:
        assert record["prefix_len"] == 1
        assert len(record["token_ids"]) == 32  # gen_max_tokens


def test_sweep_k_writes_one_row_and_one_run_per_k(corpus_file, tmp_path):
    out = tmp_path / "sweep"
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    for command in ("embed", "pretrain-lm"):
        assert main(args(out, command)) == 0
    assert main(args(out, "sweep-k", "--ks", "4,8")) == 0
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0] == "k,ppl,planner_accuracy,planner_average_rank"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]
    for k in (4, 8):
        assert storage.read_matrix(out / f"k{k}" / "centroids.plmb").shape[0] \
            == k
        assert (out / f"k{k}" / "lm_predicted_pa.plmc").exists()
        # the copied inputs are published with manifests like any output
        copied = storage.read_manifest(out / f"k{k}" / "corpus.jsonl")
        assert copied["subcommand"] == "sweep-k" and copied["inputs"] == {}
    # the regime flags choose what each k finetunes
    assert main(args(out, "sweep-k", "--ks", "4", "--regime", "fixed")) == 0
    assert (out / "k4" / "lm_fixed.plmc").exists()
    report = json.loads((out / "k4" / "eval_report.json").read_text())
    assert "fixed" in report["regimes"]


def test_cluster_refuses_embeddings_of_a_replaced_corpus(corpus_file, tmp_path,
                                                         capsys):
    out = tmp_path / "replaced"
    other, _ = generate_corpus(default_grammar(seed=1), 40, 5)
    other_file = tmp_path / "other.jsonl"
    save_articles_jsonl(other, other_file)
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    assert main(args(out, "embed")) == 0
    assert main(args(out, "ingest", "--input", str(other_file))) == 0
    capsys.readouterr()
    assert main(args(out, "cluster")) == 1
    err = capsys.readouterr().err
    # names the artifact, the changed input and the producing subcommand
    assert "stale" in err and "corpus.jsonl" in err
    assert "embeddings" in err and "planlm embed" in err
    assert not (out / "centroids.plmb").exists()


PREPARED = {"corpus.jsonl", "splits.json", "vocab.txt", "embeddings.plmb",
            "embeddings.idx", "actions.tsv"}
# artifact -> the run-directory files its step reads
READ_BY_STEP = {
    "corpus.jsonl": set(), "splits.json": set(), "vocab.txt": set(),
    "embeddings.plmb": {"corpus.jsonl"}, "embeddings.idx": {"corpus.jsonl"},
    "centroids.plmb": {"corpus.jsonl", "embeddings.plmb", "embeddings.idx",
                       "splits.json"},
    "actions.tsv": {"centroids.plmb", "embeddings.plmb", "embeddings.idx",
                    "corpus.jsonl"},
    "base_lm.plmc": {"corpus.jsonl", "splits.json", "vocab.txt"},
    "planner.plmc": PREPARED | {"centroids.plmb"},
    "lm_fixed.plmc": PREPARED | {"centroids.plmb", "base_lm.plmc"},
    "lm_predicted_pa.plmc": PREPARED | {"centroids.plmb", "base_lm.plmc",
                                       "planner.plmc"},
    "generations_fixed.jsonl": PREPARED | {"centroids.plmb", "lm_fixed.plmc"},
    "eval_report.json": PREPARED | {
        "centroids.plmb", "planner.plmc", "base_lm.plmc", "lm_fixed.plmc",
        "lm_predicted_pa.plmc", "generations_fixed.jsonl"},
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("full")
    assert main(args(out, "ingest", "--input", str(corpus_file))) == 0
    for command in ("embed", "cluster", "actions", "pretrain-lm",
                    "train-planner"):
        assert main(args(out, command)) == 0
    for regime in ("fixed", "predicted_pa"):
        assert main(args(out, "finetune", "--regime", regime)) == 0
    assert main(args(out, "generate", "--regime", "fixed")) == 0
    assert main(args(out, "evaluate", "--regimes",
                     "none,fixed,predicted_pa")) == 0
    return out


def copy_of(run, tmp_path, name="copy"):
    return Path(shutil.copytree(run, tmp_path / name))


# `full_run`'s outputs as last recorded; rewrite it after a change that moves
# outputs on purpose, and quote the diff in CHANGES.md:
#   PLANLM_REWRITE_FINGERPRINT=1 python -m pytest tests/test_cli.py -k fingerprint
FINGERPRINT = Path(__file__).with_name("quality_fingerprint.json")


def quality_fingerprint(run: Path) -> dict:
    """Each regime's val and test ppl, the planner's accuracy and rank, and
    the sha256 of `actions.tsv` and of each generations file."""
    fp = {}
    planner = storage.read_manifest(run / "planner.plmc")["extra"]
    fp["planner.val_accuracy"] = planner["val_accuracy"]
    fp["planner.val_average_rank"] = planner["val_average_rank"]
    for path in sorted(run.glob("lm_*.plmc")):
        history = storage.read_manifest(path)["extra"]["history"]
        fp[f"finetune.{path.stem}.best_val_ppl"] = history["best_val_metric"]
    report = json.loads((run / "eval_report.json").read_text())
    for key, entry in sorted(report["regimes"].items()):
        fp[f"evaluate.{key}.ppl"] = entry["ppl"]
    fp["evaluate.planner.accuracy"] = report["planner"]["accuracy"]
    fp["evaluate.planner.average_rank"] = report["planner"]["average_rank"]
    for path in [run / "actions.tsv"] + sorted(run.glob("generations_*.jsonl")):
        fp[f"sha256.{path.name}"] = storage.file_sha256(path)
    return fp


def test_quality_fingerprint_matches_the_checked_in_one(full_run):
    """Outputs move only on purpose: floats must have the same `repr`, and
    every moved key is listed, old -> new."""
    fp = quality_fingerprint(full_run)
    if os.environ.get("PLANLM_REWRITE_FINGERPRINT") == "1":
        FINGERPRINT.write_text(json.dumps(fp, indent=1, sort_keys=True) + "\n")
    recorded = json.loads(FINGERPRINT.read_text())
    moved = [f"{key}: {recorded.get(key)!r} -> {fp.get(key)!r}"
             for key in sorted(recorded.keys() | fp.keys())
             if repr(recorded.get(key)) != repr(fp.get(key))]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


def test_fixed_regime_evaluation_never_calls_planner(full_run, tmp_path,
                                                     monkeypatch):
    out = copy_of(full_run, tmp_path)
    assert main(args(out, "finetune", "--regime", "oracle")) == 0

    def refuse(self, context):
        raise AssertionError("the planner was called")

    monkeypatch.setattr(PlannerModel, "predict_next_action", refuse)
    assert main(args(out, "evaluate", "--regimes", "none,fixed,oracle")) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert {"none", "fixed", "oracle"} <= set(report["regimes"])
    # the planned regime does call it
    with pytest.raises(AssertionError, match="planner was called"):
        main(args(out, "evaluate", "--regimes", "predicted_pa"))


def test_manifests_record_exactly_the_files_each_step_read(full_run):
    for artifact, read in READ_BY_STEP.items():
        manifest = storage.read_manifest(full_run / artifact)
        assert set(manifest["inputs"]) == read, artifact
        for name, sha256 in manifest["inputs"].items():
            assert storage.file_sha256(full_run / name) == sha256


def test_copied_run_directory_still_evaluates(full_run, tmp_path):
    out = copy_of(full_run, tmp_path, "moved")
    assert main(args(out, "evaluate", "--regimes",
                     "none,fixed,predicted_pa")) == 0
    manifest = storage.read_manifest(out / "eval_report.json")
    assert set(manifest["inputs"]) == READ_BY_STEP["eval_report.json"]


def test_finetune_refuses_centroids_of_another_config(full_run, tmp_path,
                                                      capsys):
    out = copy_of(full_run, tmp_path)
    assert main(args(out, "cluster", "--force") + ["--set", "k=4"]) == 0
    # re-pin config A without touching the centroids
    assert main(args(out, "pretrain-lm", "--force")) == 0
    (out / "lm_fixed.plmc").unlink()
    capsys.readouterr()
    assert main(args(out, "finetune", "--regime", "fixed")) == 1
    err = capsys.readouterr().err
    assert "centroids.plmb" in err and "force" in err
    assert not (out / "lm_fixed.plmc").exists()


def test_inspect_cluster_refuses_another_config_and_pins_nothing(run_dir,
                                                                 capsys):
    pinned = (run_dir / "config.txt").read_bytes()
    command = args(run_dir, "inspect-cluster", "--action-id", "0")
    other = command + ["--set", "hmm_iters=3"]
    capsys.readouterr()
    assert main(other) == 1
    assert "force" in capsys.readouterr().err
    assert main(other + ["--force"]) == 0
    assert (run_dir / "config.txt").read_bytes() == pinned
    # --force skips the staleness checks, not the range of the actions
    assert main(command + ["--set", "k=4", "--force"]) == 1
    assert "outside [0, 4)" in capsys.readouterr().err
    assert (run_dir / "config.txt").read_bytes() == pinned


def test_evaluate_scores_generations_as_they_were_made(full_run, tmp_path):
    out = copy_of(full_run, tmp_path)

    def fixed_entry(*extra):
        assert main(args(out, "evaluate", "--regimes", "fixed", *extra)) == 0
        report = json.loads((out / "eval_report.json").read_text())
        return report["regimes"]["fixed"]

    # no reference continuation: no rouge2 or edit, the rest is scored
    assert main(args(out, "generate", "--regime", "fixed", "--mode",
                     "unconditional")) == 0
    entry = fixed_entry()
    assert "rouge2" not in entry and "edit" not in entry
    assert "latent_ppl" in entry and "plan_following_rate" in entry
    # generated for the val split: not scored on test, scored on val
    assert main(args(out, "generate", "--regime", "fixed", "--split",
                     "val")) == 0
    entry = fixed_entry()
    assert set(entry) == {"ppl"}
    entry = fixed_entry("--split", "val")
    assert "rouge2" in entry and "edit" in entry and "latent_ppl" in entry


@pytest.mark.parametrize("damage", ["truncate", "not an object",
                                    "regimes not an object"])
def test_corrupt_previous_report_refused_with_one_error_line(full_run, tmp_path,
                                                            capsys, damage):
    out = copy_of(full_run, tmp_path)
    report = out / "eval_report.json"
    if damage == "truncate":
        raw = report.read_bytes()
        report.write_bytes(raw[:len(raw) // 2])
    elif damage == "not an object":
        report.write_text("[]\n")
    else:
        previous = json.loads(report.read_text())
        report.write_text(json.dumps(previous | {"regimes": []}) + "\n")
    capsys.readouterr()
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "eval_report.json" in err[0]


def test_truncated_centroids_refused_with_one_error_line(full_run, tmp_path,
                                                         capsys):
    out = copy_of(full_run, tmp_path)
    raw = (out / "centroids.plmb").read_bytes()
    (out / "centroids.plmb").write_bytes(raw[:len(raw) // 2])
    capsys.readouterr()
    assert main(args(out, "actions")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "centroids.plmb" in err[0]


def test_evaluate_carries_over_only_entries_whose_inputs_are_unchanged(
        full_run, tmp_path):
    out = copy_of(full_run, tmp_path)

    def evaluate(*extra):
        assert main(args(out, "evaluate", "--regimes", *extra)) == 0
        report = json.loads((out / "eval_report.json").read_text())
        return set(report["regimes"]), set(
            storage.read_manifest(out / "eval_report.json")["inputs"])

    # a current report's entries carry over with the inputs they came from
    regimes, inputs = evaluate("none")
    assert regimes == {"none", "fixed", "predicted_pa"}
    assert inputs == READ_BY_STEP["eval_report.json"]
    # under a replaced corpus, the old entries are dropped
    other, _ = generate_corpus(default_grammar(seed=1), 40, 5)
    save_articles_jsonl(other, tmp_path / "other.jsonl")
    assert main(args(out, "ingest", "--input", str(tmp_path / "other.jsonl"))) \
        == 0
    for command in ("embed", "cluster", "actions", "pretrain-lm",
                    "train-planner"):
        assert main(args(out, command)) == 0
    assert main(args(out, "finetune", "--regime", "oracle")) == 0
    regimes, inputs = evaluate("oracle")
    assert regimes == {"oracle"}
    assert inputs == PREPARED | {"centroids.plmb", "planner.plmc",
                                 "lm_oracle.plmc"}


def test_path_reads_each_manifest_once(full_run, monkeypatch):
    config = effective_config(build_parser().parse_args(args(full_run,
                                                             "evaluate")))
    data = pipeline.RunData(full_run, config)
    read = []
    read_manifest = storage.read_manifest

    def spy(path):
        read.append(Path(path).name)
        return read_manifest(path)

    monkeypatch.setattr(storage, "read_manifest", spy)
    data.path("lm_fixed.plmc")
    data.path("lm_fixed.plmc")
    assert read == ["lm_fixed.plmc"]


def test_a_step_hashes_each_file_once(full_run, tmp_path, monkeypatch):
    out = copy_of(full_run, tmp_path)
    assert main(args(out, "finetune", "--regime", "oracle")) == 0
    hashed = []
    file_sha256 = storage.file_sha256

    def spy(path):
        hashed.append(Path(path).name)
        return file_sha256(path)

    monkeypatch.setattr(storage, "file_sha256", spy)
    assert main(args(out, "scan-oracle")) == 0
    assert "corpus.jsonl" in hashed
    assert len(hashed) == len(set(hashed)), Counter(hashed)


def test_a_step_splits_every_article_once(full_run, tmp_path, monkeypatch,
                                          capsys):
    """The decoder splits the text it generates, but no step splits an
    article of the corpus more than once."""
    out = copy_of(full_run, tmp_path)
    every_article_once = Counter(
        article.text for article in load_articles(out / "corpus.jsonl"))
    split = corpus.split_sentences
    calls = []

    def spy(text):
        calls.append(text)
        return split(text)

    monkeypatch.setattr(pipeline, "split_sentences", spy)
    monkeypatch.setattr(corpus, "split_sentences", spy)
    for command in (["embed"], ["cluster"], ["actions"],
                    ["inspect-cluster", "--action-id", "0"], ["pretrain-lm"],
                    ["train-planner"], ["finetune", "--regime", "oracle"],
                    ["generate", "--regime", "fixed"],
                    ["evaluate", "--regimes", "fixed,oracle"],
                    ["scan-oracle"]):
        calls.clear()
        assert main(args(out, *command)) == 0
        assert Counter(calls) == every_article_once, command
    capsys.readouterr()


def split_then_tokenize(article, vocab):
    """Reference for `tokenize`: split the article's text, then map each
    sentence's tokens, tagged with the sentence's index, after one <bos>."""
    ids, sentence_index = [corpus.BOS_ID], [0]
    for j, span in enumerate(corpus.split_sentences(article.text)):
        tokens = [vocab.id_of(t)
                  for t in corpus.word_tokens(span.text(article.text))]
        ids += tokens
        sentence_index += [j] * len(tokens)
    return ids, sentence_index


def test_tokenize_maps_the_sentences_run_data_split(run_dir):
    config = effective_config(build_parser().parse_args(args(run_dir,
                                                             "embed")))
    data = pipeline.RunData(run_dir, config)
    for article in data.by_id.values():
        stream = corpus.tokenize(article, data.vocab,
                                 data.sentences[article.id])
        assert (stream.token_ids.tolist(),
                stream.sentence_index_of_token.tolist()) == \
            split_then_tokenize(article, data.vocab), article.id


@pytest.mark.parametrize("regime", ["none", "fixed"])
def test_scoring_items_pass_the_streams_ids_without_a_copy(full_run, regime):
    config = effective_config(build_parser().parse_args(args(full_run,
                                                             "evaluate")))
    data = pipeline.RunData(full_run, config)
    items = pipeline.scoring_items(data, "val", Regime.named(regime),
                                   training=False, planner=None)
    for item, prepared in zip(items, data.prepared("val"), strict=True):
        assert np.shares_memory(item.ids, prepared.stream.token_ids)


def test_artifact_without_manifest_refused_unless_forced(full_run, tmp_path,
                                                         capsys):
    out = copy_of(full_run, tmp_path)
    (out / "actions.tsv.manifest.json").unlink()
    capsys.readouterr()
    assert main(args(out, "finetune", "--regime", "fixed")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "actions.tsv" in err[0] and "planlm actions" in err[0]
    assert main(args(out, "finetune", "--regime", "fixed", "--force")) == 0


def test_fixed_regime_makes_no_planner_calls(full_run, tmp_path, monkeypatch):
    out = copy_of(full_run, tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the planner was called")

    monkeypatch.setattr(PlannerModel, "logits_batch", refuse)
    assert main(args(out, "generate", "--regime", "fixed")) == 0


def test_generate_decodes_the_split_in_lockstep(full_run, tmp_path,
                                                monkeypatch):
    """One one-token forward per step for all rows, not one per row."""
    out = copy_of(full_run, tmp_path)
    widths = []
    forward = BaseLM.forward

    def spy(self, ids, *args, **kwargs):
        widths.append(np.asarray(ids).shape[1])
        return forward(self, ids, *args, **kwargs)

    monkeypatch.setattr(BaseLM, "forward", spy)
    assert main(args(out, "generate", "--regime", "fixed", "--force")) == 0
    records = read_records(out / "generations_fixed.jsonl")
    assert len(records) >= 3
    assert sum(len(r["token_ids"]) for r in records) == 32 * len(records)
    assert widths.count(1) <= 32  # gen_max_tokens


def test_generate_without_articles_writes_no_records(full_run, tmp_path):
    out = copy_of(full_run, tmp_path)
    no_articles = ["--force", "--set", "eval_articles=0"]
    assert main(args(out, "generate", "--regime", "fixed") + no_articles) == 0
    assert read_records(out / "generations_fixed.jsonl") == []
    assert main(args(out, "evaluate", "--regimes", "fixed") + no_articles) \
        == 0
    entry = json.loads((out / "eval_report.json").read_text())["regimes"]
    assert entry["fixed"]["plan_following_rate"] is None


def test_only_a_planners_actions_are_planned(full_run, tmp_path,
                                             monkeypatch):
    """`fixed` conditions on FIXED_ACTION_ID, which no planner planned, so
    it reports no plan-following rate."""
    out = copy_of(full_run, tmp_path)
    config = effective_config(build_parser().parse_args(args(out, "generate")))
    dot = pipeline.RunData(out, config).vocab.id_of(".")
    sample, steps = generation.sample_tokens, itertools.count(1)

    def every_eighth_token_a_full_stop(logits, *rest):
        tokens = sample(logits, *rest)
        return [dot] * len(tokens) if next(steps) % 8 == 0 else tokens

    # the barely trained LM closes no sentence by itself
    monkeypatch.setattr(generation, "sample_tokens",
                        every_eighth_token_a_full_stop)
    for regime in ("fixed", "predicted_pa"):
        assert main(args(out, "generate", "--regime", regime,
                         "--force")) == 0
    assert main(args(out, "evaluate", "--regimes", "fixed,predicted_pa")) == 0
    fixed = read_records(out / "generations_fixed.jsonl")
    assert all(r["sentence_ends"] for r in fixed)
    assert all(r["planned_actions"] == [] and r["plan_following_rate"] is None
               for r in fixed)
    planned = read_records(out / "generations_predicted_pa.jsonl")
    assert all(len(r["planned_actions"]) == len(r["sentence_ends"]) > 0
               for r in planned)
    report = json.loads((out / "eval_report.json").read_text())["regimes"]
    assert report["fixed"]["plan_following_rate"] is None
    assert isinstance(report["predicted_pa"]["plan_following_rate"], float)


def test_failed_step_pins_nothing(full_run, tmp_path, capsys):
    out = copy_of(full_run, tmp_path)
    pinned = (out / "config.txt").read_bytes()
    planner = (out / "planner.plmc").read_bytes()
    assert main(args(out, "train-planner", "--force")
                + ["--set", "planner_context=0"]) == 1
    assert (out / "config.txt").read_bytes() == pinned
    assert (out / "planner.plmc").read_bytes() == planner
    capsys.readouterr()
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 0


def test_failed_write_leaves_no_partial_artifact(full_run, tmp_path,
                                                 monkeypatch):
    out = copy_of(full_run, tmp_path)
    names = ("lm_fixed.plmc", "lm_fixed.plmc.manifest.json", "config.txt")
    before = {name: (out / name).read_bytes() for name in names}
    write_checkpoint = storage.write_checkpoint

    def write_half_then_fail(path, sections, meta=None):
        write_checkpoint(path, sections, meta)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:len(raw) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(storage, "write_checkpoint", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        main(args(out, "finetune", "--regime", "fixed"))
    assert {name: (out / name).read_bytes() for name in names} == before
    assert not list(out.glob(".*.tmp"))


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_records(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records))


def test_evaluate_embeds_no_generated_text(full_run, tmp_path, monkeypatch):
    out = copy_of(full_run, tmp_path)

    def refuse(self, text):
        raise AssertionError("evaluate embedded a sentence")

    monkeypatch.setattr(SentenceEncoder, "embed_sentence", refuse)
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 0


def test_latent_ppl_scores_the_decoders_realized_actions(full_run, tmp_path,
                                                         monkeypatch):
    out = copy_of(full_run, tmp_path)
    records = read_records(out / "generations_fixed.jsonl")
    seen = []
    score = pipeline.corpus_latent_perplexity

    def spy(critic, sequences):
        seen.append([list(s) for s in sequences])
        return score(critic, sequences)

    monkeypatch.setattr(pipeline, "corpus_latent_perplexity", spy)
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 0
    assert seen == [[r["realized_actions"] for r in records]]


@pytest.mark.parametrize("case", ["every sentence", "none", "one late"])
def test_edit_compares_the_complete_sentences_of_both_sides(full_run, tmp_path,
                                                            case):
    """CFG_SETS score lengths 16 and 32 with edit_base_len=16; each
    generation is 32 tokens, so edit@L = distance * 16 / L."""
    out = copy_of(full_run, tmp_path)
    config = effective_config(build_parser().parse_args(args(out, "evaluate")))
    article = pipeline.RunData(out, config).prepared("test")[0]
    stream, m = article.stream, len(article.oracle)
    h = m // 2
    # the continuation's sentences close after these counts of its tokens
    lengths = np.bincount(stream.sentence_index_of_token[1:], minlength=m)
    ends = np.cumsum(lengths[h:]).tolist()
    oracle = article.oracle[h:]
    closed = {L: sum(end <= L for end in ends) for L in (16, 32)}
    # one sentence ends within 16 tokens, and another between 17 and 32
    assert 1 <= closed[16] < closed[32]
    realized, sentence_ends, distance = {
        "every sentence": (oracle, ends, {16: 0, 32: 0}),
        "none": ([], [], closed),
        # closes at token 17: outside the first 16 tokens, inside 32
        "one late": (oracle[:1], [17], {16: closed[16], 32: closed[32] - 1}),
    }[case]
    write_records(out / "generations_fixed.jsonl", [{
        "article_id": article.article.id, "prefix_len": 1, "text": "",
        "planned_actions": [], "realized_actions": realized,
        "sentence_ends": sentence_ends, "token_ids": [2] * 32,
        "plan_following_rate": None}])
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 0
    report = json.loads((out / "eval_report.json").read_text())
    edit = report["regimes"]["fixed"]["edit"]
    assert edit["16"] == pytest.approx(distance[16] * 16 / 16)
    assert edit["32"] == pytest.approx(distance[32] * 16 / 32)


def test_generations_without_sentence_ends_refused_with_one_error_line(
        full_run, tmp_path, capsys):
    out = copy_of(full_run, tmp_path)
    path = out / "generations_fixed.jsonl"
    records = read_records(path)
    del records[0]["sentence_ends"]
    write_records(path, records)
    capsys.readouterr()
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "generations_fixed.jsonl" in err[0] and "planlm generate" in err[0]


@pytest.mark.parametrize("realized, ends", [
    pytest.param([99], [4], id="action past k"),
    pytest.param([-1], [4], id="negative action"),
    pytest.param(["x"], [4], id="not a number"),
    pytest.param([1.5], [4], id="not an integer"),
    pytest.param([0, 1], [4], id="sentence_ends short"),
])
def test_hand_edited_generations_refused_with_one_error_line(
        full_run, tmp_path, capsys, realized, ends):
    out = copy_of(full_run, tmp_path)
    path = out / "generations_fixed.jsonl"
    records = read_records(path)
    records[0]["realized_actions"], records[0]["sentence_ends"] = realized, ends
    write_records(path, records)
    capsys.readouterr()
    assert main(args(out, "evaluate", "--regimes", "fixed")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert str(path) in err[0], err[0]


@pytest.mark.parametrize("damage, command", [
    ("embeddings without the article", "cluster"),
    ("embeddings without the article", "actions"),
    ("embeddings without the article", "finetune"),
    ("embeddings without the article", "generate"),
    ("embeddings without the article", "evaluate"),
    ("actions.tsv without its line", "finetune"),
    ("actions.tsv without its line", "generate"),
    ("actions.tsv with an empty line", "finetune"),
    ("actions.tsv with an empty line", "evaluate"),
])
def test_article_without_a_row_per_sentence_refused_with_one_error_line(
        full_run, tmp_path, capsys, damage, command):
    out = copy_of(full_run, tmp_path)
    article_id = json.loads((out / "splits.json").read_text())["test"][0]
    if damage.startswith("embeddings"):
        index = storage.read_matrix_index(out / "embeddings.idx")
        keep = [i for i, (aid, _) in enumerate(index) if aid != article_id]
        matrix = storage.read_matrix(out / "embeddings.plmb")
        storage.write_matrix(out / "embeddings.plmb", matrix[keep])
        storage.write_matrix_index(out / "embeddings.idx",
                                   [index[i] for i in keep])
        name, producer = "embeddings.idx", "planlm embed"
    else:
        sequences = storage.read_action_sequences(out / "actions.tsv")
        if "empty" in damage:
            sequences[article_id] = []  # written as `<id>\t`
        else:
            del sequences[article_id]
        storage.write_action_sequences(out / "actions.tsv", sequences)
        name, producer = "actions.tsv", "planlm actions"
    flags = {"cluster": [], "actions": [], "finetune": ["--regime", "fixed"],
             "generate": ["--regime", "fixed"],
             "evaluate": ["--regimes", "fixed"]}[command]
    capsys.readouterr()
    # --force: the edit also leaves downstream artifacts stale, which would
    # be refused first
    assert main(args(out, command, *flags, "--force")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert repr(article_id) in err[0] and name in err[0] \
        and producer in err[0], err[0]


@pytest.mark.parametrize("command", [
    ["finetune", "--regime", "oracle"], ["train-planner"],
    ["evaluate", "--regimes", "fixed"]],
    ids=["finetune", "train-planner", "evaluate"])
@pytest.mark.parametrize("action", [99, -1])
def test_action_outside_the_clusters_refused_with_one_error_line(
        full_run, tmp_path, capsys, command, action):
    out = copy_of(full_run, tmp_path)
    article_id = json.loads((out / "splits.json").read_text())["train"][0]
    sequences = storage.read_action_sequences(out / "actions.tsv")
    sequences[article_id][-1] = action
    storage.write_action_sequences(out / "actions.tsv", sequences)
    capsys.readouterr()
    assert main(args(out, *command, "--force")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert all(word in err[0] for word in (
        "actions.tsv", repr(article_id), f"action {action} outside [0, 8)",
        "planlm actions")), err[0]


@pytest.mark.parametrize("damage, name", [
    ("two articles swapped", "embeddings.idx"),
    ("one row short", "embeddings.plmb"),
])
def test_embeddings_off_the_corpus_layout_refused_with_one_error_line(
        full_run, tmp_path, capsys, damage, name):
    out = copy_of(full_run, tmp_path)
    if damage == "two articles swapped":
        index = storage.read_matrix_index(out / "embeddings.idx")
        first, last = index[0][0], index[-1][0]
        storage.write_matrix_index(out / "embeddings.idx", (
            [row for row in index if row[0] == last]
            + [row for row in index if row[0] not in (first, last)]
            + [row for row in index if row[0] == first]))
    else:
        matrix = storage.read_matrix(out / "embeddings.plmb")
        storage.write_matrix(out / "embeddings.plmb", matrix[:-1])
    capsys.readouterr()
    assert main(args(out, "cluster")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert name in err[0] and "planlm embed" in err[0], err[0]


def test_run_directory_holds_only_published_artifacts(full_run):
    # config.txt, manifests of existing artifacts, and artifacts with a
    # manifest: no staged file is left behind
    for path in full_run.iterdir():
        if path.name.endswith(".manifest.json"):
            artifact = json.loads(path.read_text())["artifact"]
            assert (full_run / artifact).is_file(), path.name
        elif path.name != "config.txt":
            assert storage.manifest_path(path).is_file(), path.name
