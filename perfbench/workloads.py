"""The benchmark's workloads: inputs, pipeline steps, output checks, metrics.

Each workload drives the pipeline through the public `planlm.pipeline.step_*`
functions, the ones the CLI subcommands call. The run configuration is
frozen here rather than imported, so a change to the program cannot change
the work it is measured on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from planlm import pipeline
from planlm.config import RunConfig
from planlm.corpus import save_articles_jsonl
from planlm.lm import Regime, insert_style_sequence, window_examples
from planlm.synthdata import default_grammar, generate_corpus

# section-advance probability of the synthetic grammar, as in
# scripts/run_regime_comparison.py; skip and stay share the remainder
P_NEXT = 0.7

# desk_config() of scripts/run_regime_comparison.py, the ROADMAP's desk run
DESK = dict(
    n_val=60, n_test=60, vocab_size=512, encoder_dim=64, hash_buckets=16384,
    k=8, planner_layers=1, planner_heads=2, planner_context=16,
    planner_epochs=8, planner_lr=1e-3, lm_dim=64, lm_layers=2, lm_heads=2,
    context_window=64, lm_lr=3e-3, pretrain_epochs=3, finetune_epochs=6,
    adapted_layers=2, gen_max_tokens=64, lengths=[32, 64], edit_base_len=32,
    eval_articles=30, hmm_states=8, scan_articles=10, noise_variants=8)
DESK_ARTICLES = 400

# Every seed does the same work: patience equals the epoch budget, so early
# stopping never cuts training short, and Baum-Welch always runs its cap.
FIXED_WORK = dict(planner_patience=8, finetune_patience=6, hmm_iters=30)

TRAIN_STAGES = ("pretrain_lm", "train_planner", "finetune")
INFER_STAGES = ("generate", "evaluate", "scan_oracle")

FIXED, ORACLE, PREDICTED = Regime("fixed"), Regime("oracle"), Regime("predicted_pa")
INSERT_EXTERNAL = Regime("predicted_pa", style="insert", locus="external")
INSERT_INTERNAL = Regime("oracle", style="insert", locus="internal")


@dataclass(frozen=True)
class Step:
    """One pipeline step call: one operation of the benchmark."""

    stage: str
    regimes: tuple[Regime, ...] = ()

    @property
    def label(self) -> str:
        if not self.regimes:
            return self.stage
        return self.stage + ":" + ",".join(pipeline.regime_key(r)
                                           for r in self.regimes)

    def run(self, config: RunConfig, out_dir: Path, corpus: Path) -> dict:
        if self.stage == "ingest":
            return pipeline.step_ingest(config, out_dir, corpus)
        if self.stage == "finetune":
            return pipeline.step_finetune(config, out_dir, self.regimes[0])
        if self.stage == "generate":
            return pipeline.step_generate(config, out_dir, self.regimes[0],
                                          split="val")
        if self.stage == "evaluate":
            return pipeline.step_evaluate(config, out_dir, list(self.regimes),
                                          split="val")
        if self.stage == "scan_oracle":
            return pipeline.step_scan_oracle(config, out_dir, split="val")
        return getattr(pipeline, f"step_{self.stage}")(config, out_dir)


def _prepare(*finetunes: Regime) -> tuple[Step, ...]:
    return (Step("ingest"), Step("embed"), Step("cluster"), Step("actions"),
            Step("pretrain_lm"), Step("train_planner"),
            *(Step("finetune", (r,)) for r in finetunes))


@dataclass(frozen=True)
class Workload:
    name: str
    articles: int
    sentences: int
    config: dict               # RunConfig fields set over DESK
    setup: tuple[Step, ...]    # run once; builds the directory each pass copies
    timed: tuple[Step, ...]
    idle: frozenset[str]       # traced spans the timed steps never reach

    def run_config(self, seed: int) -> RunConfig:
        return RunConfig(seed=seed, **{**DESK, **self.config})

    def write_corpus(self, seed: int, path: Path) -> None:
        remainder = (1.0 - P_NEXT) / 2.0
        grammar = default_grammar(seed=seed, p_next=P_NEXT, p_skip=remainder,
                                  p_stay=remainder)
        articles, _ = generate_corpus(grammar, self.articles, self.sentences)
        save_articles_jsonl(articles, path)


_ADAPTER_TRAINING = _prepare(FIXED, ORACLE, PREDICTED)
_ADAPTER_SIZE = dict(n_val=12, n_test=4, eval_articles=8, scan_articles=4)

WORKLOADS = {w.name: w for w in (
    Workload(
        "train-adapter", articles=56, sentences=8,
        config={**_ADAPTER_SIZE, **FIXED_WORK},
        setup=(), timed=_ADAPTER_TRAINING,
        idle=frozenset({"generation.generate", "evaluation.hmm_fit",
                        "evaluation.oracle_scan", "evaluation.noise_scan"})),
    Workload(
        "infer-adapter", articles=56, sentences=8,
        config={**_ADAPTER_SIZE, **FIXED_WORK},
        setup=_ADAPTER_TRAINING,
        timed=(Step("generate", (FIXED,)), Step("generate", (PREDICTED,)),
               Step("evaluate", (Regime("none"), FIXED, ORACLE, PREDICTED)),
               Step("scan_oracle")),
        idle=frozenset({"lm.train", "planner.train", "autodiff.backward",
                        "autodiff.adam", "autodiff.cross_entropy",
                        "actions.kmeans", "encoder.embed"})),
    Workload(
        "long-insert", articles=22, sentences=24,
        config=dict(n_val=6, n_test=2, k=32, **FIXED_WORK),
        setup=(),
        timed=(*_prepare(INSERT_EXTERNAL, INSERT_INTERNAL),
               Step("evaluate", (Regime("none"), INSERT_EXTERNAL,
                                 INSERT_INTERNAL))),
        idle=frozenset({"generation.generate", "evaluation.oracle_scan",
                        "evaluation.noise_scan"})),
)}


def desk(workload: Workload) -> Workload:
    """The same steps on the ROADMAP's 400-article desk corpus and config."""
    if workload.sentences != 8:
        raise ValueError(f"{workload.name} has no desk-corpus variant")
    return dataclasses.replace(workload, articles=DESK_ARTICLES, config={})


# -- outputs --------------------------------------------------------------------

SCAN_SUMMARY_KEYS = ("oracle_ppl", "mean_oracle_rank", "nearest_rank",
                     "best_action_ppl", "best_noise_ppl", "noise_sigma",
                     "n_sentences")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(out_dir: Path, done: list[tuple[Step, float, dict]]) -> dict:
    """Deterministic outputs of one pass: equal on every pass of a seed.

    `done` holds (step, seconds, step result) for each timed step.
    """
    fp: dict = {}
    for step, _, extra in done:
        if step.stage == "train_planner":
            fp["planner_acc"] = extra["val_accuracy"]
            fp["planner_rank"] = extra["val_average_rank"]
        elif step.stage == "finetune":
            fp[f"val_ppl.{extra['regime']}"] = \
                extra["history"]["best_val_metric"]
        elif step.stage == "evaluate":
            for key, entry in extra["regimes"].items():
                fp[f"val_ppl.{key}"] = entry["ppl"]
            fp["planner_acc"] = extra["planner"]["accuracy"]
            fp["planner_rank"] = extra["planner"]["average_rank"]
        elif step.stage == "scan_oracle":
            fp["scan"] = {k: extra[k] for k in SCAN_SUMMARY_KEYS}
    for path in sorted(out_dir.glob("generations_*.jsonl")):
        fp[f"sha256.{path.name}"] = _sha256(path)
    return fp


def _ppl_column(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines]


def check_outputs(config: RunConfig, out_dir: Path, fp: dict) -> list[str]:
    """Invariants every pass must meet; returns the violations."""
    problems = []
    for key, value in fp.items():
        if key.startswith("val_ppl.") and not (math.isfinite(value)
                                               and value > 0):
            problems.append(f"{key} is {value}")
    for name in ("oracle_scan.csv", "noise_scan.csv"):
        path = out_dir / name
        if path.exists():
            ppl = _ppl_column(path)
            if any(b < a for a, b in zip(ppl, ppl[1:])):
                problems.append(f"{name}: ppl falls with rank")
    for path in sorted(out_dir.glob("generations_*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if len(record["token_ids"]) != config.gen_max_tokens:
                problems.append(
                    f"{path.name}: {record['article_id']} has "
                    f"{len(record['token_ids'])} tokens, expected "
                    f"{config.gen_max_tokens}")
    return problems


def decoded_tokens(out_dir: Path) -> int:
    return sum(len(json.loads(line)["token_ids"])
               for path in out_dir.glob("generations_*.jsonl")
               for line in path.read_text(encoding="utf-8").splitlines())


def lm_target_tokens(config: RunConfig, out_dir: Path,
                     done: list[tuple[Step, float, dict]]) -> int:
    """LM target tokens over all epochs of pretrain-lm and finetune."""
    data = pipeline.RunData(out_dir, config)
    prepared = data.prepared("train")
    window = config.context_window

    def per_epoch(regime: Regime | None) -> int:
        total = 0
        for p in prepared:
            if regime is None or regime.style == "adapter":
                examples = window_examples(p.stream.token_ids, window)
            else:
                ids, is_action = insert_style_sequence(p.stream, p.oracle,
                                                       data.vocab.size)
                countable = ~is_action if regime.locus == "external" else None
                examples = window_examples(ids, window, countable=countable)
            total += sum(len(ex.targets) if ex.mask is None
                         else int(ex.mask.sum()) for ex in examples)
        return total

    tokens = 0
    for step, _, extra in done:
        if step.stage == "pretrain_lm":
            tokens += per_epoch(None) * len(extra["train_loss"])
        elif step.stage == "finetune":
            tokens += per_epoch(step.regimes[0]) * len(
                extra["history"]["train_loss"])
    return tokens


def stage_metrics(done: list[tuple[Step, float, dict]], fp: dict,
                  target_tokens: int, sampled_tokens: int) -> dict[str, float]:
    """The end-to-end metrics one pass produces, by name."""
    def stage_sum(stages) -> float:
        return sum(t for step, t, _ in done if step.stage in stages)

    out = {"wall_s": sum(t for _, t, _ in done)}
    if stage_sum(TRAIN_STAGES):
        out["train_s"] = stage_sum(TRAIN_STAGES)
        out["train_tokens_per_s"] = target_tokens / stage_sum(
            ("pretrain_lm", "finetune"))
    if stage_sum(INFER_STAGES):
        out["infer_s"] = stage_sum(INFER_STAGES)
    if sampled_tokens:
        out["decode_tokens_per_s"] = sampled_tokens / stage_sum(("generate",))
    for key, value in fp.items():
        if key == "planner_acc" or key.startswith("val_ppl."):
            out[key] = value
    return out


STAGE_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
               "train_s": "s", "infer_s": "s", "train_tokens_per_s": "1/s",
               "decode_tokens_per_s": "1/s", "planner_acc": "fraction"}


def unit_of(metric: str) -> str:
    return STAGE_UNITS.get(metric, "ppl" if metric.startswith("val_ppl.")
                           else "")
