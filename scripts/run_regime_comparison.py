#!/usr/bin/env python3
"""End-to-end regime comparison on a synthetic corpus.

Builds the corpus, runs the full pipeline, finetunes the LM under several
action regimes with one matched budget, and prints the resulting validation
perplexities plus generation metrics. Repeats over several master seeds so
orderings are averaged rather than single-draw.
"""

import argparse
import dataclasses
import json
from pathlib import Path

from planlm import pipeline
from planlm.config import RunConfig
from planlm.corpus import save_articles_jsonl
from planlm.errors import ValidationError
from planlm.lm import REGIMES, Regime
from planlm.synthdata import default_grammar, generate_corpus


def desk_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed, n_val=60, n_test=60, vocab_size=512,
        encoder_dim=64, hash_buckets=16384,
        k=8, planner_layers=1, planner_heads=2, planner_context=16,
        planner_epochs=8, planner_lr=1e-3,
        lm_dim=64, lm_layers=2, lm_heads=2, context_window=64,
        lm_lr=3e-3, pretrain_epochs=3, finetune_epochs=6, adapted_layers=2,
        gen_max_tokens=64, lengths=[32, 64], edit_base_len=32,
        eval_articles=30, hmm_states=8, scan_articles=10, noise_variants=8)


def run_one_seed(corpus_path: Path, out_dir: Path, seed: int,
                 regimes: list[Regime]) -> dict:
    config = desk_config(seed)
    pipeline.step_ingest(config, out_dir, corpus_path)
    pipeline.step_embed(config, out_dir)
    pipeline.step_cluster(config, out_dir)
    pipeline.step_actions(config, out_dir)
    pipeline.step_pretrain_lm(config, out_dir)
    pipeline.step_train_planner(config, out_dir)
    for regime in regimes:
        if regime.key != "none":
            pipeline.step_finetune(config, out_dir, regime)
    for regime in regimes:
        if regime.key in ("fixed", "predicted_pa"):
            pipeline.step_generate(config, out_dir, regime, split="val")
    return pipeline.step_evaluate(config, out_dir, regimes, split="val")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--articles", type=int, default=2000)
    parser.add_argument("--sentences", type=int, default=8)
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated master seeds")
    parser.add_argument("--regimes",
                        default="none,fixed,oracle,predicted_oa,predicted_pa",
                        help="comma-separated regimes: " + ", ".join(REGIMES))
    parser.add_argument("--p-next", type=float, default=0.7,
                        help="section-advance probability of the grammar")
    args = parser.parse_args()
    try:
        regimes = [Regime.named(r.strip()) for r in args.regimes.split(",")
                   if r.strip()]
    except ValidationError as exc:
        parser.error(str(exc))

    args.work_dir.mkdir(parents=True, exist_ok=True)
    remainder = (1.0 - args.p_next) / 2.0
    grammar = default_grammar(seed=0, p_next=args.p_next, p_skip=remainder,
                              p_stay=remainder)
    articles, _ = generate_corpus(grammar, args.articles, args.sentences)
    corpus_path = args.work_dir / "corpus.jsonl"
    save_articles_jsonl(articles, corpus_path)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    reports = {}
    for seed in seeds:
        out_dir = args.work_dir / f"seed{seed}"
        print(f"== seed {seed} ==")
        reports[seed] = run_one_seed(corpus_path, out_dir, seed, regimes)
        for regime in regimes:
            entry = reports[seed]["regimes"][regime.key]
            extras = "".join(
                f" {key}={entry[key]:.4f}" if isinstance(entry.get(key), float)
                else ""
                for key in ("latent_ppl", "plan_following_rate"))
            print(f"  {regime.key:28s} ppl={entry['ppl']:8.3f}{extras}")

    summary = {
        regime.key: {
            "mean_ppl": sum(reports[s]["regimes"][regime.key]["ppl"]
                            for s in seeds) / len(seeds)
        } for regime in regimes
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    (args.work_dir / "summary.json").write_text(
        json.dumps({"per_seed": {str(s): reports[s]["regimes"]
                                 for s in seeds},
                    "summary": summary}, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
