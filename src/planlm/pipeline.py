"""Pipeline steps behind the CLI subcommands.

Each step consumes upstream artifacts from a run directory, refuses to run on
a config-digest mismatch unless forced, and writes its artifact plus a JSON
manifest (inputs, hashes, wall time, seed).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import storage
from .actions import ActionSet, assign_actions, inspect_cluster, kmeans_fit
from .config import RunConfig, config_digest, identity_text
from .corpus import (Article, TokenStream, Vocabulary, build_vocabulary,
                     load_articles, split_corpus, split_sentences, tokenize)
from .encoder import EncoderConfig, SentenceEncoder, embed_corpus, \
    group_rows_by_article
from .errors import MissingArtifactError, ValidationError
from .evaluation import ScanItem, ScoringItem, corpus_latent_perplexity, \
    corpus_perplexity, hmm_fit, noise_scan, normalized_edit, \
    oracle_scan, rouge2_f1
from .generation import GenerationConfig, generate
from .lm import (FIXED_ACTION_ID, ActionAdapter, AdapterConfig, BaseLM,
                 LmConfig, Regime, adapter_lm_meta, base_lm_meta,
                 extend_for_insert, insert_lm_meta, insert_style_sequence,
                 lm_from_checkpoint, per_position_actions, train_lm)
from .planner import (PlannerConfig, PlannerModel, evaluate_planner,
                      planner_from_checkpoint, planner_meta,
                      predict_actions_for_article, train_planner)

# artifact file name -> subcommand that produces it
PRODUCERS = {
    "corpus.jsonl": "ingest",
    "splits.json": "ingest",
    "vocab.txt": "ingest",
    "embeddings.plmb": "embed",
    "embeddings.idx": "embed",
    "centroids.plmb": "cluster",
    "actions.tsv": "actions",
    "base_lm.plmc": "pretrain-lm",
    "planner.plmc": "train-planner",
}


def regime_key(regime: Regime) -> str:
    if regime.style == "insert":
        return f"insert_{regime.locus}_{regime.actions}"
    return regime.actions


def checkpoint_name(regime: Regime) -> str:
    return f"lm_{regime_key(regime)}.plmc"


def generations_name(regime: Regime) -> str:
    return f"generations_{regime_key(regime)}.jsonl"


def lm_name(regime: Regime) -> str:
    """The checkpoint a regime is scored with: the base LM when unconditioned."""
    if regime.action_source(training=False) == "none":
        return "base_lm.plmc"
    return checkpoint_name(regime)


def _require(out_dir: Path, name: str) -> Path:
    path = Path(out_dir) / name
    if not path.exists():
        producer = PRODUCERS.get(name) or (
            "finetune" if name.startswith("lm_") else None)
        hint = f"; produce it with `planlm {producer}`" if producer else ""
        raise MissingArtifactError(f"missing artifact {path}{hint}")
    return path


def ensure_run_config(out_dir: Path, config: RunConfig, force: bool) -> str:
    """Pin the run directory to one config identity (regime-independent)."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_digest(config)
    text = identity_text(config)
    pinned = out_dir / "config.txt"
    if pinned.exists():
        if pinned.read_text(encoding="utf-8") != text:
            if not force:
                raise ValidationError(
                    f"{pinned} was written by a different config; "
                    "rerun with --force to overwrite")
            pinned.write_text(text, encoding="utf-8")
    else:
        pinned.write_text(text, encoding="utf-8")
    return digest


def _check_input_digests(out_dir: Path, config: RunConfig, names: Sequence[str],
                         force: bool) -> None:
    digest = config_digest(config)
    for name in names:
        manifest = storage.read_manifest(Path(out_dir) / name)
        if manifest is None:
            continue
        if manifest["config_digest"] != digest and not force:
            raise ValidationError(
                f"{name} was produced under config digest "
                f"{manifest['config_digest']}, current is {digest}; "
                "use --force to proceed")


def _finish(out_dir: Path, artifact: str, subcommand: str, config: RunConfig,
            inputs: Sequence[str], started: float, extra: dict | None = None,
            seed: int | None = None) -> Path:
    path = Path(out_dir) / artifact
    storage.write_manifest(path, subcommand, config_digest(config),
                           config.seed if seed is None else seed,
                           [Path(out_dir) / n for n in inputs],
                           time.time() - started, extra)
    return path


# -- shared loaders ------------------------------------------------------------


def encoder_config(config: RunConfig) -> EncoderConfig:
    return EncoderConfig(dim=config.encoder_dim, ngram_order=config.ngram_order,
                         hash_buckets=config.hash_buckets,
                         projection_seed=config.projection_seed)


def load_corpus_artifacts(out_dir: Path) -> tuple[list[Article], dict]:
    articles = load_articles(_require(out_dir, "corpus.jsonl"))
    splits = json.loads(_require(out_dir, "splits.json").read_text())
    return articles, splits


def load_action_set(out_dir: Path, config: RunConfig) -> ActionSet:
    centroids = storage.read_matrix(_require(out_dir, "centroids.plmb"))
    manifest = storage.read_manifest(Path(out_dir) / "centroids.plmb") or {}
    inertia = float(manifest.get("extra", {}).get("inertia", 0.0))
    return ActionSet(centroids=centroids, inertia=inertia,
                     k=centroids.shape[0], seed=config.seed,
                     max_iters=config.kmeans_max_iters)


def load_planner(out_dir: Path) -> PlannerModel:
    sections, meta = storage.read_checkpoint(_require(out_dir, "planner.plmc"))
    return planner_from_checkpoint(sections, meta)


def load_lm(out_dir: Path, regime: Regime,
            ) -> tuple[BaseLM, ActionAdapter | None]:
    """The network and adapter a regime is scored with (see `lm_name`)."""
    base, adapter, _ = lm_from_checkpoint(
        *storage.read_checkpoint(_require(out_dir, lm_name(regime))))
    return base, adapter


@dataclass
class PreparedArticle:
    article: Article
    stream: TokenStream
    embeddings: np.ndarray
    oracle: list[int]


class RunData:
    """Lazy per-split view of the corpus with embeddings and oracle actions.

    Each split is prepared once and shared: callers must not mutate it."""

    def __init__(self, out_dir: Path, config: RunConfig):
        self.out_dir = Path(out_dir)
        self.config = config
        self.articles, self.splits = load_corpus_artifacts(out_dir)
        self.by_id = {a.id: a for a in self.articles}
        self.vocab = Vocabulary.load(_require(out_dir, "vocab.txt"))
        matrix = storage.read_matrix(_require(out_dir, "embeddings.plmb"))
        index = storage.read_matrix_index(_require(out_dir, "embeddings.idx"))
        self.embeddings = group_rows_by_article(matrix, index)
        self.oracle = storage.read_action_sequences(
            _require(out_dir, "actions.tsv"))
        self.encoder = SentenceEncoder(encoder_config(config))
        self._prepared: dict[str, list[PreparedArticle]] = {}

    def prepared(self, split: str) -> list[PreparedArticle]:
        if split not in self._prepared:
            out = []
            for article_id in self.splits[split]:
                article = self.by_id[article_id]
                emb = self.embeddings.get(
                    article_id,
                    np.zeros((0, self.config.encoder_dim), dtype=np.float32))
                out.append(PreparedArticle(article,
                                           tokenize(article, self.vocab), emb,
                                           self.oracle[article_id]))
            self._prepared[split] = out
        return self._prepared[split]


# -- steps ----------------------------------------------------------------------


def step_ingest(config: RunConfig, out_dir: Path, input_path: Path,
                force: bool = False) -> dict:
    ensure_run_config(out_dir, config, force)
    started = time.time()
    articles = load_articles(Path(input_path))
    train, val, test = split_corpus(articles, config.seed, config.n_val,
                                    config.n_test)
    vocab = build_vocabulary(train, config.vocab_size)

    out_dir = Path(out_dir)
    from .corpus import save_articles_jsonl
    save_articles_jsonl(articles, out_dir / "corpus.jsonl")
    splits = {"train": [a.id for a in train], "val": [a.id for a in val],
              "test": [a.id for a in test]}
    (out_dir / "splits.json").write_text(
        json.dumps(splits, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    vocab.save(out_dir / "vocab.txt")

    extra = {"articles": len(articles), "vocab_size": vocab.size}
    for name in ("corpus.jsonl", "splits.json", "vocab.txt"):
        _finish(out_dir, name, "ingest", config, [], started, extra)
    return extra


def step_embed(config: RunConfig, out_dir: Path, force: bool = False,
               external_embeddings: Path | None = None) -> dict:
    ensure_run_config(out_dir, config, force)
    _check_input_digests(out_dir, config, ["corpus.jsonl"], force)
    started = time.time()
    out_dir = Path(out_dir)
    articles, _ = load_corpus_artifacts(out_dir)
    index = []
    for article in articles:
        for j, _ in enumerate(split_sentences(article.text, article.id)):
            index.append((article.id, j))
    if external_embeddings is not None:
        matrix = storage.read_matrix(Path(external_embeddings))
        if matrix.shape[0] != len(index):
            raise ValidationError(
                f"external embeddings have {matrix.shape[0]} rows; corpus has "
                f"{len(index)} sentences")
    else:
        matrix, index = embed_corpus(articles, encoder_config(config))
    storage.write_matrix(out_dir / "embeddings.plmb", matrix)
    storage.write_matrix_index(out_dir / "embeddings.idx", index)
    extra = {"rows": int(matrix.shape[0]), "dim": int(matrix.shape[1]),
             "external": external_embeddings is not None}
    for name in ("embeddings.plmb", "embeddings.idx"):
        _finish(out_dir, name, "embed", config, ["corpus.jsonl"], started, extra)
    return extra


def step_cluster(config: RunConfig, out_dir: Path, force: bool = False) -> dict:
    ensure_run_config(out_dir, config, force)
    _check_input_digests(out_dir, config, ["embeddings.plmb"], force)
    started = time.time()
    out_dir = Path(out_dir)
    matrix = storage.read_matrix(_require(out_dir, "embeddings.plmb"))
    index = storage.read_matrix_index(_require(out_dir, "embeddings.idx"))
    _, splits = load_corpus_artifacts(out_dir)
    train_ids = set(splits["train"])
    rows = [i for i, (aid, _) in enumerate(index) if aid in train_ids]
    fitted = kmeans_fit(matrix[rows], k=config.k, seed=config.seed,
                        max_iters=config.kmeans_max_iters)
    storage.write_matrix(out_dir / "centroids.plmb", fitted.centroids)
    extra = {"k": fitted.k, "inertia": fitted.inertia,
             "iterations": fitted.iterations_run, "points": len(rows)}
    _finish(out_dir, "centroids.plmb", "cluster", config,
            ["embeddings.plmb"], started, extra)
    return extra


def step_actions(config: RunConfig, out_dir: Path, force: bool = False) -> dict:
    ensure_run_config(out_dir, config, force)
    _check_input_digests(out_dir, config,
                         ["embeddings.plmb", "centroids.plmb"], force)
    started = time.time()
    out_dir = Path(out_dir)
    action_set = load_action_set(out_dir, config)
    matrix = storage.read_matrix(_require(out_dir, "embeddings.plmb"))
    index = storage.read_matrix_index(_require(out_dir, "embeddings.idx"))
    grouped = group_rows_by_article(matrix, index)
    articles, _ = load_corpus_artifacts(out_dir)
    sequences = {
        article.id: assign_actions(
            grouped.get(article.id,
                        np.zeros((0, action_set.dim), dtype=np.float32)),
            action_set).tolist()
        for article in articles}
    storage.write_action_sequences(out_dir / "actions.tsv", sequences)
    sizes = np.bincount([a for seq in sequences.values() for a in seq],
                        minlength=action_set.k)
    extra = {"sequences": len(sequences),
             "ten_largest_clusters": sizes[np.argsort(-sizes)[:10]].tolist()}
    _finish(out_dir, "actions.tsv", "actions", config,
            ["embeddings.plmb", "centroids.plmb"], started, extra)
    return extra


def step_pretrain_lm(config: RunConfig, out_dir: Path,
                     force: bool = False) -> dict:
    ensure_run_config(out_dir, config, force)
    _check_input_digests(out_dir, config, ["corpus.jsonl", "vocab.txt"], force)
    started = time.time()
    out_dir = Path(out_dir)
    articles, splits = load_corpus_artifacts(out_dir)
    by_id = {a.id: a for a in articles}
    vocab = Vocabulary.load(_require(out_dir, "vocab.txt"))
    items = [ScoringItem(ids=tokenize(by_id[aid], vocab).token_ids.astype(
        np.int64)) for aid in splits["train"]]
    lm_config = LmConfig(vocab_size=vocab.size, d_model=config.lm_dim,
                         n_layers=config.lm_layers, n_heads=config.lm_heads,
                         context_window=config.context_window)
    base = BaseLM(lm_config, np.random.default_rng(config.seed))
    history = train_lm(base, items, batch_size=config.lm_batch,
                       lr=config.lm_lr, max_epochs=config.pretrain_epochs,
                       seed=config.seed)
    storage.write_checkpoint(
        out_dir / "base_lm.plmc",
        {k: v.values for k, v in base.params_dict().items()},
        base_lm_meta(base) | {"config_digest": config_digest(config)})
    extra = {"train_loss": history["train_loss"]}
    _finish(out_dir, "base_lm.plmc", "pretrain-lm", config,
            ["corpus.jsonl", "vocab.txt"], started, extra)
    return extra


def _planner_articles(data: RunData, split: str) -> list:
    return [(p.embeddings.astype(np.float32), np.asarray(p.oracle))
            for p in data.prepared(split) if len(p.oracle) > 0]


def step_train_planner(config: RunConfig, out_dir: Path,
                       force: bool = False) -> dict:
    ensure_run_config(out_dir, config, force)
    _check_input_digests(
        out_dir, config,
        ["embeddings.plmb", "centroids.plmb", "actions.tsv"], force)
    started = time.time()
    out_dir = Path(out_dir)
    data = RunData(out_dir, config)
    action_set = load_action_set(out_dir, config)
    planner_config = PlannerConfig(
        dim=action_set.dim, n_actions=action_set.k,
        n_layers=config.planner_layers, n_heads=config.planner_heads,
        context_limit=config.planner_context, arch=config.planner_arch,
        head_init=config.planner_head_init)
    val = _planner_articles(data, "val")
    if not val:
        raise ValidationError(
            f"train-planner needs validation articles with sentences to "
            f"select and score the planner; n_val={config.n_val}")
    model = PlannerModel(planner_config, np.random.default_rng(config.seed),
                         centroids=action_set.centroids)
    history = train_planner(model, _planner_articles(data, "train"), val,
                            batch_size=config.planner_batch,
                            lr=config.planner_lr,
                            max_epochs=config.planner_epochs,
                            patience=config.planner_patience, seed=config.seed)
    metrics = evaluate_planner(model, val)
    storage.write_checkpoint(
        out_dir / "planner.plmc",
        {k: v.values for k, v in model.params_dict().items()},
        planner_meta(model) | {"config_digest": config_digest(config)})
    extra = {"val_accuracy": metrics.accuracy,
             "val_average_rank": metrics.average_rank,
             "train_loss": history["train_loss"],
             "val_loss": history["val_metric"]}
    _finish(out_dir, "planner.plmc", "train-planner", config,
            ["embeddings.plmb", "centroids.plmb", "actions.tsv"], started, extra)
    return extra


def sentence_actions(source: str, prepared: PreparedArticle,
                     planner: PlannerModel | None) -> np.ndarray | None:
    """One action per sentence from a `Regime.action_source`; None for "none"."""
    if source == "none":
        return None
    if source == "fixed":
        return np.full(len(prepared.oracle), FIXED_ACTION_ID, dtype=np.int64)
    if source == "oracle":
        return np.asarray(prepared.oracle, dtype=np.int64)
    if planner is None:
        raise ValidationError("planned actions require a planner")
    return np.asarray(predict_actions_for_article(planner, prepared.embeddings),
                      dtype=np.int64)


def scoring_items(data: RunData, split: str, regime: Regime, training: bool,
                  planner: PlannerModel | None) -> list[ScoringItem]:
    """A split's articles as the regime's LM sees them, at training or eval time.

    Adapter style pairs the token ids with per-position actions; insert style
    interleaves the action tokens and counts only the text tokens.
    """
    source = regime.action_source(training)
    items = []
    for prepared in data.prepared(split):
        if len(prepared.oracle) == 0:
            continue
        acts = sentence_actions(source, prepared, planner)
        stream, article_id = prepared.stream, prepared.article.id
        if regime.style == "insert":
            ids, is_action = insert_style_sequence(stream, acts, data.vocab.size)
            items.append(ScoringItem(ids=ids, countable=~is_action,
                                     article_id=article_id))
        else:
            items.append(ScoringItem(
                ids=stream.token_ids.astype(np.int64),
                actions=None if acts is None
                else per_position_actions(stream, acts),
                article_id=article_id))
    return items


def step_finetune(config: RunConfig, out_dir: Path, regime: Regime,
                  force: bool = False) -> dict:
    if regime.actions == "none":
        raise ValidationError(
            "regime none needs no finetuning; evaluate uses base_lm.plmc")
    ensure_run_config(out_dir, config, force)
    uses_planner = regime.action_source(training=True) == "planner"
    needed = ["base_lm.plmc", "actions.tsv"]
    if uses_planner:
        needed.append("planner.plmc")
    _check_input_digests(out_dir, config, needed, force)
    started = time.time()
    out_dir = Path(out_dir)
    data = RunData(out_dir, config)
    base, _ = load_lm(out_dir, Regime("none"))
    planner = load_planner(out_dir) if uses_planner else None
    action_set = load_action_set(out_dir, config)
    train = scoring_items(data, "train", regime, training=True,
                          planner=planner)
    val = scoring_items(data, "val", regime, training=True, planner=planner)
    if regime.locus == "internal":
        # an internal planner learns the action tokens too
        train = [dataclasses.replace(item, countable=None) for item in train]

    adapter = None
    if regime.style == "adapter":
        adapter_config = AdapterConfig(
            n_actions=action_set.k, action_dim=action_set.dim,
            adapted_layers=config.adapted_layers, init=config.adapter_init,
            share_tables=config.share_adapter_tables)
        adapter = ActionAdapter(adapter_config, base.config,
                                np.random.default_rng(config.seed),
                                centroids=action_set.centroids)
        meta = adapter_lm_meta(base, adapter, regime)
    else:
        insert_lm = extend_for_insert(base, action_set.k, regime.locus,
                                      np.random.default_rng(config.seed))
        base = insert_lm.base
        meta = insert_lm_meta(insert_lm, regime)
    history = train_lm(base, train, val, adapter=adapter,
                       batch_size=config.lm_batch, lr=config.lm_lr,
                       max_epochs=config.finetune_epochs,
                       patience=config.finetune_patience, seed=config.seed)

    params = base.params_dict()
    if adapter is not None:
        params.update(adapter.params_dict())
    name = checkpoint_name(regime)
    storage.write_checkpoint(out_dir / name,
                             {k: v.values for k, v in params.items()},
                             meta | {"config_digest": config_digest(config)})
    extra = {"history": history, "regime": regime_key(regime)}
    _finish(out_dir, name, "finetune", config, needed, started, extra)
    return extra


def _half_split_point(stream: TokenStream) -> tuple[int, int]:
    """(first continuation sentence, first continuation token index)."""
    m = len(stream.spans)
    h = max(1, m // 2)
    cut = int(np.searchsorted(stream.sentence_index_of_token, h))
    return h, cut


def step_generate(config: RunConfig, out_dir: Path, regime: Regime,
                  force: bool = False, mode: str = "conditional",
                  split: str = "test") -> dict:
    ensure_run_config(out_dir, config, force)
    if regime.style == "insert":
        raise ValidationError(
            "generation metrics are defined for adapter-style models")
    needed = ["centroids.plmb", "actions.tsv", lm_name(regime)]
    if regime.needs_planner:
        needed.append("planner.plmc")
    _check_input_digests(out_dir, config, needed, force)
    started = time.time()
    out_dir = Path(out_dir)
    data = RunData(out_dir, config)
    action_set = load_action_set(out_dir, config)
    planner = load_planner(out_dir) if regime.needs_planner else None
    base, adapter = load_lm(out_dir, regime)
    source = regime.action_source(training=False)

    records = []
    prepared_split = data.prepared(split)[:config.eval_articles]
    for i, prepared in enumerate(prepared_split):
        gen_config = GenerationConfig(
            max_tokens=config.gen_max_tokens, temperature=config.temperature,
            top_k=config.top_k, seed=config.seed * 100003 + i, mode=mode)
        if mode == "conditional":
            if len(prepared.stream.spans) < 2:
                continue
            h, cut = _half_split_point(prepared.stream)
            acts = sentence_actions(source, prepared, planner)
            record = generate(
                base, adapter, regime, data.vocab, gen_config, data.encoder,
                action_set, planner=planner,
                prefix_ids=prepared.stream.token_ids[:cut].astype(np.int64),
                prefix_token_actions=None if acts is None else
                acts[prepared.stream.sentence_index_of_token[:cut]],
                prefix_sentence_embeddings=prepared.embeddings[:h]
                if planner is not None else None,
                article_id=prepared.article.id)
        else:
            record = generate(base, adapter, regime, data.vocab, gen_config,
                              data.encoder, action_set, planner=planner,
                              article_id=prepared.article.id)
        records.append(record)

    name = generations_name(regime)
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    extra = {"records": len(records), "mode": mode, "split": split}
    _finish(out_dir, name, "generate", config, needed, started, extra)
    return extra


def _article_from_tokens(article_id: str, vocab: Vocabulary,
                         token_ids: Sequence[int]) -> Article | None:
    from .corpus import BOS_ID, detokenize
    toks = [vocab.token_of(int(t)) for t in token_ids if int(t) != BOS_ID]
    text = detokenize(toks)
    if not text.strip():
        return None
    return Article(article_id, "", text)


def _generation_metrics(data: RunData, regime: Regime, out_dir: Path,
                        config: RunConfig, action_set: ActionSet) -> dict:
    """ROUGE-2, normalized edit distance, latent inputs from generations."""
    from .actions import extract_action_sequence
    path = Path(out_dir) / generations_name(regime)
    if not path.exists():
        return {}
    rouge_by_len: dict[int, list[float]] = {L: [] for L in config.lengths}
    edit_by_len: dict[int, list[float]] = {L: [] for L in config.lengths}
    realized_sequences: list[list[int]] = []
    rates: list[float] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        article = data.by_id.get(record["article_id"])
        if article is None:
            continue
        stream = tokenize(article, data.vocab)
        _, cut = _half_split_point(stream)
        real_continuation = stream.token_ids[cut:].astype(int).tolist()
        generated = [int(t) for t in record.get("token_ids", [])]
        if record.get("plan_following_rate") is not None:
            rates.append(float(record["plan_following_rate"]))
        gen_article = _article_from_tokens(record["article_id"] + "#gen",
                                           data.vocab, generated)
        if gen_article is not None:
            realized_sequences.append(
                extract_action_sequence(gen_article, action_set,
                                        data.encoder).actions)
        for length in config.lengths:
            ref = real_continuation[:length]
            hyp = generated[:length]
            if not ref or not hyp:
                continue
            rouge_by_len[length].append(rouge2_f1(ref, hyp))
            ref_article = _article_from_tokens("r", data.vocab, ref)
            hyp_article = _article_from_tokens("h", data.vocab, hyp)
            if ref_article is None or hyp_article is None:
                continue
            ref_actions = extract_action_sequence(ref_article, action_set,
                                                  data.encoder).actions
            hyp_actions = extract_action_sequence(hyp_article, action_set,
                                                  data.encoder).actions
            edit_by_len[length].append(
                normalized_edit(ref_actions, hyp_actions,
                                config.edit_base_len, len(hyp)))
    out: dict = {}
    rouge = {str(L): float(np.mean(v)) for L, v in rouge_by_len.items() if v}
    edit = {str(L): float(np.mean(v)) for L, v in edit_by_len.items() if v}
    if rouge:
        out["rouge2"] = rouge | {"mean": float(np.mean(list(rouge.values())))}
    if edit:
        out["edit"] = edit | {"mean": float(np.mean(list(edit.values())))}
    out["plan_following_rate"] = float(np.mean(rates)) if rates else None
    out["realized_sequences"] = realized_sequences
    return out


def step_evaluate(config: RunConfig, out_dir: Path, regimes: Sequence[Regime],
                  force: bool = False, split: str = "test") -> dict:
    ensure_run_config(out_dir, config, force)
    out_dir = Path(out_dir)
    has_planner = (out_dir / "planner.plmc").exists()
    needed = ["centroids.plmb", "actions.tsv", "embeddings.plmb",
              *dict.fromkeys(lm_name(r) for r in regimes)]
    if has_planner:
        needed.append("planner.plmc")
    _check_input_digests(out_dir, config, needed, force)
    started = time.time()
    data = RunData(out_dir, config)
    action_set = load_action_set(out_dir, config)
    planner = load_planner(out_dir) if has_planner else None

    # ground-truth critic from training action sequences
    train_sequences = [data.oracle[aid] for aid in data.splits["train"]
                       if data.oracle[aid]]
    critic = hmm_fit(train_sequences, n_states=config.hmm_states,
                     n_symbols=action_set.k, seed=config.seed,
                     max_iters=config.hmm_iters)

    report: dict = {
        "config_digest": config_digest(config),
        "seed": config.seed,
        "split": split,
        "lengths": list(config.lengths),
        "regimes": {},
    }
    report_path = out_dir / "eval_report.json"
    if report_path.exists():
        previous = json.loads(report_path.read_text(encoding="utf-8"))
        if previous.get("config_digest") == report["config_digest"] and \
                previous.get("split") == split:
            report["regimes"] = previous.get("regimes", {})

    for regime in regimes:
        if regime.needs_planner and planner is None:
            raise ValidationError(
                f"regime {regime_key(regime)} requires planner.plmc; "
                "produce it with `planlm train-planner`")
        entry: dict = {}
        base, adapter = load_lm(out_dir, regime)
        items = scoring_items(data, split, regime, training=False,
                              planner=planner)
        if regime.actions == "fixed" and planner is not None:
            planner_calls_before = planner.invocations
        entry["ppl"] = corpus_perplexity(
            lambda ids, actions: base.forward(ids, adapter=adapter,
                                              actions=actions).values,
            items, base.config.context_window)
        if regime.actions == "fixed" and planner is not None:
            entry["planner_invocations"] = planner.invocations \
                - planner_calls_before
        gen_metrics = _generation_metrics(data, regime, out_dir, config,
                                          action_set)
        realized = gen_metrics.pop("realized_sequences", [])
        if realized:
            entry["latent_ppl"] = corpus_latent_perplexity(critic, realized)
        entry.update(gen_metrics)
        report["regimes"][regime_key(regime)] = entry

    if planner is not None:
        metrics = evaluate_planner(planner, _planner_articles(data, split))
        report["planner"] = {"accuracy": metrics.accuracy,
                             "average_rank": metrics.average_rank}

    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    _finish(out_dir, "eval_report.json", "evaluate", config, needed,
            started, {"regimes": sorted(report["regimes"])})
    return report


def step_scan_oracle(config: RunConfig, out_dir: Path,
                     force: bool = False, split: str = "test") -> dict:
    oracle_regime = Regime("oracle")
    needed = ["centroids.plmb", "actions.tsv", checkpoint_name(oracle_regime)]
    ensure_run_config(out_dir, config, force)
    _check_input_digests(out_dir, config, needed, force)
    started = time.time()
    out_dir = Path(out_dir)
    data = RunData(out_dir, config)
    action_set = load_action_set(out_dir, config)
    base, adapter = load_lm(out_dir, oracle_regime)

    def logit_fn(ids, actions, action_noise=None):
        return base.forward(ids, adapter=adapter, actions=actions,
                            action_noise=action_noise).values

    items = []
    for prepared in data.prepared(split)[:config.scan_articles]:
        if len(prepared.oracle) == 0:
            continue
        items.append(ScanItem(
            ids=prepared.stream.token_ids.astype(np.int64),
            sentence_index_of_token=prepared.stream.sentence_index_of_token,
            oracle_actions=np.asarray(prepared.oracle),
            pp_actions=per_position_actions(prepared.stream, prepared.oracle),
            article_id=prepared.article.id))

    window = base.config.context_window
    oracle_result = oracle_scan(logit_fn, items, action_set.k, window)
    n_variants = config.noise_variants or action_set.k
    sigma = adapter.embedding_std()
    noise_result = noise_scan(logit_fn, items, n_variants, sigma,
                              action_set.dim, window, seed=config.seed)

    def write_curve(name, result):
        lines = ["rank,ppl"] + [f"{i + 1},{p:.6f}"
                                for i, p in enumerate(result.ppl_at_rank)]
        (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write_curve("oracle_scan.csv", oracle_result)
    write_curve("noise_scan.csv", noise_result)
    summary = {
        "oracle_ppl": oracle_result.oracle_ppl,
        "mean_oracle_rank": oracle_result.mean_oracle_rank,
        "nearest_rank": oracle_result.nearest_rank,
        "best_action_ppl": float(oracle_result.ppl_at_rank[0]),
        "best_noise_ppl": float(noise_result.ppl_at_rank[0]),
        "noise_sigma": sigma,
        "n_sentences": oracle_result.n_sentences,
        "per_article_rank1_ppl": oracle_result.per_article_rank1_ppl,
        "per_article_oracle_ppl": oracle_result.per_article_oracle_ppl,
    }
    (out_dir / "scan_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name in ("oracle_scan.csv", "noise_scan.csv", "scan_summary.json"):
        _finish(out_dir, name, "scan-oracle", config, needed, started)
    return summary


def step_inspect_cluster(config: RunConfig, out_dir: Path, action_id: int,
                         top_n: int = 10) -> dict:
    out_dir = Path(out_dir)
    data = RunData(out_dir, config)
    action_set = load_action_set(out_dir, config)
    hits = inspect_cluster(action_id, data.articles, action_set, top_n,
                           data.embeddings)
    sizes = np.bincount([a for seq in data.oracle.values() for a in seq],
                        minlength=action_set.k)
    order = np.argsort(-sizes)[:10]
    return {
        "action_id": action_id,
        "nearest": [{"distance": d, "text": t, "article_id": aid,
                     "sentence_index": j} for d, t, aid, j in hits],
        "ten_largest_clusters": [{"action_id": int(i), "size": int(sizes[i])}
                                 for i in order],
    }


def step_sweep_k(config: RunConfig, out_dir: Path, ks: Sequence[int],
                 force: bool = False) -> list[dict]:
    """Re-run cluster..evaluate for each k in a subdirectory; emit a CSV."""
    import shutil

    ensure_run_config(out_dir, config, force)
    started = time.time()
    out_dir = Path(out_dir)
    for name in ("corpus.jsonl", "splits.json", "vocab.txt", "embeddings.plmb",
                 "embeddings.idx", "base_lm.plmc"):
        _require(out_dir, name)
    rows = []
    regime = Regime(config.regime, style=config.style, locus=config.locus)
    for k in ks:
        sub_config = dataclasses.replace(config, k=k)
        sub_dir = out_dir / f"k{k}"
        sub_dir.mkdir(exist_ok=True)
        for name in ("corpus.jsonl", "splits.json", "vocab.txt",
                     "embeddings.plmb", "embeddings.idx", "base_lm.plmc"):
            shutil.copyfile(out_dir / name, sub_dir / name)
        # copied artifacts carry the parent digest: force the sub-run
        ensure_run_config(sub_dir, sub_config, force=True)
        step_cluster(sub_config, sub_dir, force=True)
        step_actions(sub_config, sub_dir, force=True)
        planner_extra = step_train_planner(sub_config, sub_dir, force=True)
        if regime.actions != "none":
            step_finetune(sub_config, sub_dir, regime, force=True)
        report = step_evaluate(sub_config, sub_dir, [regime], force=True,
                               split="val")
        rows.append({
            "k": k,
            "ppl": report["regimes"][regime_key(regime)]["ppl"],
            "planner_accuracy": report["planner"]["accuracy"],
            "planner_average_rank": report["planner"]["average_rank"],
            "val_accuracy_at_stop": planner_extra["val_accuracy"],
        })
    lines = ["k,ppl,planner_accuracy,planner_average_rank"]
    for row in rows:
        lines.append(f"{row['k']},{row['ppl']:.6f},"
                     f"{row['planner_accuracy']:.6f},"
                     f"{row['planner_average_rank']:.6f}")
    (out_dir / "sweep_k.csv").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    _finish(out_dir, "sweep_k.csv", "sweep-k", config, [], started,
            {"ks": list(ks)})
    return rows
