"""Pipeline steps behind the CLI subcommands.

Each step runs inside `with RunData(...)` and reads and writes the run
directory only through it. `RunData` refuses (unless forced) a directory
pinned to another config and artifacts with no manifest, another config
digest or stale inputs. It stages each output, then publishes them, pins the
config and writes each output's JSON manifest (the files read with their
hashes, wall time, seed) when the step succeeds, and removes them when it
fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import storage
from .actions import ActionSet, assign_actions, inspect_cluster, kmeans_fit
from .config import RunConfig, config_digest, save_config, to_text
from .corpus import (BOS_ID, Article, TokenStream, Vocabulary,
                     build_vocabulary, load_articles, save_articles_jsonl,
                     split_corpus, split_sentences, tokenize)
from .encoder import EncoderConfig, SentenceEncoder, embed_corpus
from .errors import MissingArtifactError, ValidationError, parsing
from .evaluation import HmmCritic, ScoringItem, \
    corpus_latent_perplexity, corpus_perplexity, hmm_fit, noise_scan, \
    normalized_edit, oracle_scan, rouge2_f1
from .generation import GenerationConfig, Prefix, generate
from .lm import (FIXED_ACTION_ID, ActionAdapter, AdapterConfig, BaseLM,
                 LmConfig, Regime, extend_for_insert, insert_style_sequence,
                 lm_from_checkpoint, lm_meta, logit_fn, train_lm)
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

GENERATION_MODES = ("conditional", "unconditional")
SPLITS = ("train", "val", "test")


def regime_key(regime: Regime) -> str:
    return regime.key


def checkpoint_name(regime: Regime) -> str:
    return f"lm_{regime.key}.plmc"


def generations_name(regime: Regime) -> str:
    return f"generations_{regime.key}.jsonl"


def lm_name(regime: Regime) -> str:
    """The checkpoint a regime is scored with: the base LM when unconditioned."""
    if regime.action_source(training=False) == "none":
        return "base_lm.plmc"
    return checkpoint_name(regime)


def _producer(name: str) -> str | None:
    if name.startswith("lm_"):
        return "finetune"
    if name.startswith("generations_"):
        return "generate"
    return PRODUCERS.get(name)


def _require(out_dir: Path, name: str) -> Path:
    path = Path(out_dir) / name
    if not path.exists():
        producer = _producer(name)
        hint = f"; produce it with `planlm {producer}`" if producer else ""
        raise MissingArtifactError(f"missing artifact {path}{hint}")
    return path


# -- the run-directory reader and writer ---------------------------------------


@dataclass
class PreparedArticle:
    article: Article
    stream: TokenStream
    embeddings: np.ndarray
    oracle: list[int]


class RunData:
    """The one reader and writer of a run directory. It refuses (unless
    `force`) a `config.txt` that another config wrote. Every file is opened
    through `path`, which refuses (unless `force`) a file that `why_stale`
    finds not current, and records its name. Every output is written at the
    hidden path `artifact` gives; `finish` moves each onto its name, pins the
    config and writes manifests whose inputs are exactly the recorded names,
    with hashes that `sha256` takes once per file and step. The corpus is
    segmented once, into `sentences`, which `tokenize` maps; their order,
    `index`, is the row layout of every per-sentence artifact, and each is
    checked against it on read. Leaving the `with` block by an exception
    unlinks every staged file, so a failed step publishes, pins and leaves
    behind nothing. Artifacts load lazily and once, and are shared: callers
    must not mutate them."""

    def __init__(self, out_dir: Path, config: RunConfig, force: bool = False):
        config.validate()
        self.out_dir = Path(out_dir)
        pinned = self.out_dir / "config.txt"
        if not force and pinned.exists() and \
                pinned.read_text(encoding="utf-8") != to_text(config):
            raise ValidationError(f"{pinned} was written by a different "
                                  "config; rerun with --force to proceed")
        self.config = config
        self.force = force
        self.digest = config_digest(config)
        self.started = time.time()
        self.encoder = SentenceEncoder(EncoderConfig(
            dim=config.encoder_dim, ngram_order=config.ngram_order,
            hash_buckets=config.hash_buckets,
            projection_seed=config.projection_seed))
        self.manifests: dict[str, dict | None] = {}  # every file read so far
        self.outputs: list[str] = []  # every file staged so far
        self._prepared: dict[str, list[PreparedArticle]] = {}
        self._sha256: dict[str, str] = {}

    def sha256(self, name: str) -> str:
        """The hash of the run-directory file `name`, computed once."""
        if name not in self._sha256:
            self._sha256[name] = storage.file_sha256(self.out_dir / name)
        return self._sha256[name]

    def path(self, name: str) -> Path:
        """The run-directory file `name`, checked and recorded on first use."""
        path = _require(self.out_dir, name)
        if name in self.manifests:
            return path
        manifest = storage.read_manifest(path)
        problem = None if self.force else self.why_stale(name, manifest)
        if problem:
            producer = manifest["subcommand"] if manifest else _producer(name)
            raise ValidationError(
                f"{problem}; rerun `planlm {producer}` or use --force")
        self.manifests[name] = manifest
        return path

    def why_stale(self, name: str, manifest: dict | None) -> str | None:
        """Why the artifact `name` with manifest `manifest` is not current, or
        None when it is: a current artifact has a manifest of this config
        digest, and each input it lists is unchanged since."""
        if manifest is None:
            return f"{name} has no manifest, so its inputs cannot be checked"
        if manifest["config_digest"] != self.digest:
            return (f"{name} was produced under config digest "
                    f"{manifest['config_digest']}, current is {self.digest}")
        stale = [key for key, sha256 in manifest["inputs"].items()
                 if not (self.out_dir / key).exists()
                 or self.sha256(key) != sha256]
        if stale:
            return (f"{name} is stale: its input {stale[0]} changed since "
                    f"`planlm {manifest['subcommand']}` made it")
        return None

    def artifact(self, name: str) -> Path:
        """Record `name` as an output; the hidden path to write it at."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / f".{name}.tmp"

    def finish(self, subcommand: str, extra: dict | None = None) -> dict | None:
        """Publish the staged outputs, pin the config, then write each
        output's manifest, whose inputs are the files read; returns `extra`."""
        for name in self.outputs:
            os.replace(self.out_dir / f".{name}.tmp", self.out_dir / name)
        save_config(self.config, self.out_dir / "config.txt")
        inputs = {name: self.sha256(name) for name in self.manifests}
        for name in self.outputs:
            storage.write_manifest(self.out_dir / name, subcommand, self.digest,
                                   self.config.seed, inputs,
                                   time.time() - self.started, extra)
        return extra

    def __enter__(self) -> RunData:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            for name in self.outputs:
                (self.out_dir / f".{name}.tmp").unlink(missing_ok=True)

    @cached_property
    def by_id(self) -> dict[str, Article]:
        """The corpus's articles by id, in corpus order."""
        return {a.id: a for a in load_articles(self.path("corpus.jsonl"))}

    @cached_property
    def splits(self) -> dict[str, list[str]]:
        path = self.path("splits.json")
        with parsing(path):
            splits = json.loads(path.read_text(encoding="utf-8"))
            return {s: [str(a) for a in splits[s]] for s in SPLITS}

    @cached_property
    def vocab(self) -> Vocabulary:
        return Vocabulary.load(self.path("vocab.txt"))

    @cached_property
    def sentences(self) -> dict[str, list[str]]:
        """Each corpus article's sentence texts, in corpus order: the one
        segmentation every per-sentence artifact is laid out by."""
        return {a.id: [span.text(a.text) for span in split_sentences(a.text)]
                for a in self.by_id.values()}

    @cached_property
    def index(self) -> list[tuple[str, int]]:
        """The (article_id, sentence_index) of each per-sentence row."""
        return [(article_id, j) for article_id, texts in self.sentences.items()
                for j in range(len(texts))]

    def _refusal(self, name: str, problem: str) -> ValidationError:
        return ValidationError(f"{self.out_dir / name}: {problem}; rerun "
                               f"`planlm {_producer(name)}`")

    def _per_sentence(self, name: str, counts: Mapping[str, int],
                      what: str) -> None:
        """Refuse the artifact `name` unless `counts` holds one row per
        sentence of every corpus article."""
        for article_id, texts in self.sentences.items():
            got = counts.get(article_id, 0)
            if got != len(texts):
                raise self._refusal(name, f"article {article_id!r} has {got} "
                                    f"{what} for its {len(texts)} sentences")

    @cached_property
    def embeddings(self) -> dict[str, np.ndarray]:
        """Per-article sentence embeddings: the rows of `embeddings.plmb`,
        which `embeddings.idx` must list as `index` does."""
        matrix = storage.read_matrix(self.path("embeddings.plmb"))
        index = storage.read_matrix_index(self.path("embeddings.idx"))
        self._per_sentence("embeddings.idx",
                           Counter(article_id for article_id, _ in index), "rows")
        if index != self.index:
            raise self._refusal("embeddings.idx", "rows are not in the corpus "
                                "order of articles and sentences")
        if matrix.shape[0] != len(index):
            raise self._refusal("embeddings.plmb", f"{matrix.shape[0]} rows "
                                f"for the {len(index)} of embeddings.idx")
        ends = np.cumsum([len(texts) for texts in self.sentences.values()])
        return dict(zip(self.sentences, np.split(matrix, ends[:-1])))

    @cached_property
    def oracle(self) -> dict[str, list[int]]:
        """Per-article oracle actions, one per sentence, each in [0, k)."""
        oracle = storage.read_action_sequences(self.path("actions.tsv"))
        self._per_sentence("actions.tsv", {aid: len(actions) for aid, actions
                                           in oracle.items()}, "actions")
        k = self.config.k
        for article_id, actions in oracle.items():
            bad = [a for a in actions if not 0 <= a < k]
            if bad:
                raise self._refusal("actions.tsv", f"article {article_id!r} "
                                    f"has action {bad[0]} outside [0, {k})")
        return oracle

    @cached_property
    def action_set(self) -> ActionSet:
        return ActionSet(storage.read_matrix(self.path("centroids.plmb")))

    @cached_property
    def planner(self) -> PlannerModel:
        return planner_from_checkpoint(
            *storage.read_checkpoint(self.path("planner.plmc")))

    def lm(self, regime: Regime) -> tuple[BaseLM, ActionAdapter | None]:
        """The network and adapter a regime is scored with (see `lm_name`)."""
        return lm_from_checkpoint(
            *storage.read_checkpoint(self.path(lm_name(regime))))

    def prepared(self, split: str) -> list[PreparedArticle]:
        if split not in self._prepared:
            self._prepared[split] = [
                PreparedArticle(self.by_id[aid],
                                tokenize(self.by_id[aid], self.vocab,
                                         self.sentences[aid]),
                                self.embeddings[aid], self.oracle[aid])
                for aid in self.splits[split]]
        return self._prepared[split]


# -- steps ----------------------------------------------------------------------


def step_ingest(config: RunConfig, out_dir: Path, input_path: Path,
                force: bool = False) -> dict:
    with RunData(out_dir, config, force) as data:
        articles = load_articles(Path(input_path))
        train, val, test = split_corpus(articles, config.seed, config.n_val,
                                        config.n_test)
        vocab = build_vocabulary(train, config.vocab_size)

        save_articles_jsonl(articles, data.artifact("corpus.jsonl"))
        splits = {"train": [a.id for a in train], "val": [a.id for a in val],
                  "test": [a.id for a in test]}
        data.artifact("splits.json").write_text(
            json.dumps(splits, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        vocab.save(data.artifact("vocab.txt"))
        return data.finish("ingest", {"articles": len(articles),
                                      "vocab_size": vocab.size})


def step_embed(config: RunConfig, out_dir: Path, force: bool = False,
               external_embeddings: Path | None = None) -> dict:
    with RunData(out_dir, config, force) as data:
        if external_embeddings is not None:
            matrix = storage.read_matrix(Path(external_embeddings))
            if matrix.shape[0] != len(data.index):
                raise ValidationError(
                    f"external embeddings have {matrix.shape[0]} rows; corpus has "
                    f"{len(data.index)} sentences")
        else:
            matrix = embed_corpus([text for texts in data.sentences.values()
                                   for text in texts], data.encoder)
        storage.write_matrix(data.artifact("embeddings.plmb"), matrix)
        storage.write_matrix_index(data.artifact("embeddings.idx"), data.index)
        return data.finish("embed", {"rows": int(matrix.shape[0]),
                                     "dim": int(matrix.shape[1]),
                                     "external": external_embeddings is not None})


def step_cluster(config: RunConfig, out_dir: Path, force: bool = False) -> dict:
    with RunData(out_dir, config, force) as data:
        embeddings = data.embeddings  # first, so a missing one names `embed`
        train_ids = set(data.splits["train"])
        points = np.concatenate([embeddings[aid] for aid in data.by_id
                                 if aid in train_ids])
        fitted = kmeans_fit(points, k=config.k, seed=config.seed,
                            max_iters=config.kmeans_max_iters)
        storage.write_matrix(data.artifact("centroids.plmb"), fitted.centroids)
        return data.finish("cluster", {"k": fitted.k, "inertia": fitted.inertia,
                                       "iterations": fitted.iterations_run,
                                       "points": len(points)})


def step_actions(config: RunConfig, out_dir: Path, force: bool = False) -> dict:
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        sequences = {
            article.id: assign_actions(data.embeddings[article.id],
                                       action_set).tolist()
            for article in data.by_id.values()}
        storage.write_action_sequences(data.artifact("actions.tsv"), sequences)
        sizes = np.bincount([a for seq in sequences.values() for a in seq],
                            minlength=action_set.k)
        return data.finish("actions", {
            "sequences": len(sequences),
            "ten_largest_clusters": sizes[np.argsort(-sizes)[:10]].tolist()})


def step_pretrain_lm(config: RunConfig, out_dir: Path,
                     force: bool = False) -> dict:
    with RunData(out_dir, config, force) as data:
        items = [ScoringItem(ids=tokenize(data.by_id[aid], data.vocab,
                                          data.sentences[aid]).token_ids)
                 for aid in data.splits["train"]]
        lm_config = LmConfig(vocab_size=data.vocab.size, d_model=config.lm_dim,
                             n_layers=config.lm_layers, n_heads=config.lm_heads,
                             context_window=config.context_window)
        base = BaseLM(lm_config, np.random.default_rng(config.seed))
        history = train_lm(base, items, batch_size=config.lm_batch,
                           lr=config.lm_lr, max_epochs=config.pretrain_epochs,
                           seed=config.seed)
        storage.write_checkpoint(
            data.artifact("base_lm.plmc"),
            {k: v.values for k, v in base.params_dict().items()},
            lm_meta(base) | {"config_digest": data.digest})
        return data.finish("pretrain-lm", {"train_loss": history["train_loss"]})


def _planner_articles(data: RunData, split: str) -> list:
    return [(p.embeddings, np.asarray(p.oracle))
            for p in data.prepared(split)]


def step_train_planner(config: RunConfig, out_dir: Path,
                       force: bool = False) -> dict:
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        planner_config = PlannerConfig(
            dim=action_set.dim, n_actions=action_set.k,
            n_layers=config.planner_layers, n_heads=config.planner_heads,
            context_limit=config.planner_context, arch=config.planner_arch,
            head_init=config.planner_head_init)
        val = _planner_articles(data, "val")
        if not val:
            raise ValidationError(
                f"train-planner needs validation articles to select and "
                f"score the planner; n_val={config.n_val}")
        model = PlannerModel(planner_config, np.random.default_rng(config.seed),
                             centroids=action_set.centroids)
        history = train_planner(model, _planner_articles(data, "train"), val,
                                batch_size=config.planner_batch,
                                lr=config.planner_lr,
                                max_epochs=config.planner_epochs,
                                patience=config.planner_patience, seed=config.seed)
        metrics = evaluate_planner(model, val)
        storage.write_checkpoint(
            data.artifact("planner.plmc"),
            {k: v.values for k, v in model.params_dict().items()},
            planner_meta(model) | {"config_digest": data.digest})
        return data.finish("train-planner", {
            "val_accuracy": metrics.accuracy,
            "val_average_rank": metrics.average_rank,
            "train_loss": history["train_loss"], "val_loss": history["val_metric"]})


def sentence_actions(source: str, oracle: Sequence[int],
                     embeddings: np.ndarray,
                     planner: PlannerModel | None) -> np.ndarray | None:
    """One action per sentence of `oracle` (and per row of `embeddings`)
    from a `Regime.action_source`; None for "none"."""
    if source == "none":
        return None
    if source == "fixed":
        return np.full(len(oracle), FIXED_ACTION_ID, dtype=np.int64)
    if source == "oracle":
        return np.asarray(oracle, dtype=np.int64)
    if planner is None:
        raise ValidationError("planned actions require a planner")
    return np.asarray(predict_actions_for_article(planner, embeddings),
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
        acts = sentence_actions(source, prepared.oracle, prepared.embeddings,
                                planner)
        stream = prepared.stream
        if regime.style == "insert":
            ids, is_action = insert_style_sequence(stream, acts, data.vocab.size)
            items.append(ScoringItem(ids=ids, countable=~is_action))
        else:
            items.append(ScoringItem(
                ids=stream.token_ids,
                actions=None if acts is None
                else acts[stream.target_sentence]))
    return items


def step_finetune(config: RunConfig, out_dir: Path, regime: Regime,
                  force: bool = False) -> dict:
    if regime.actions == "none":
        raise ValidationError(
            "regime none needs no finetuning; evaluate uses base_lm.plmc")
    with RunData(out_dir, config, force) as data:
        base, _ = data.lm(Regime("none"))
        planner = data.planner \
            if regime.action_source(training=True) == "planner" else None
        action_set = data.action_set
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
            meta = lm_meta(base, adapter, regime)
        else:
            base = extend_for_insert(base, action_set.k,
                                     np.random.default_rng(config.seed))
            meta = lm_meta(base, regime=regime)
        history = train_lm(base, train, val, adapter=adapter,
                           batch_size=config.lm_batch, lr=config.lm_lr,
                           max_epochs=config.finetune_epochs,
                           patience=config.finetune_patience, seed=config.seed)

        params = base.params_dict()
        if adapter is not None:
            params.update(adapter.params_dict())
        storage.write_checkpoint(data.artifact(checkpoint_name(regime)),
                                 {k: v.values for k, v in params.items()},
                                 meta | {"config_digest": data.digest})
        return data.finish("finetune", {"history": history, "regime": regime.key})


def _half_split_point(stream: TokenStream, m: int) -> tuple[int, int]:
    """(first continuation sentence, its first token) of `m` sentences."""
    h = max(1, m // 2)
    cut = int(np.searchsorted(stream.sentence_index_of_token, h))
    return h, cut


def step_generate(config: RunConfig, out_dir: Path, regime: Regime,
                  force: bool = False, mode: str = "conditional",
                  split: str = "test") -> dict:
    """Continue each split article from its first half ("conditional") or
    from <bos> alone ("unconditional")."""
    if mode not in GENERATION_MODES:
        raise ValidationError(f"unknown generation mode {mode!r}")
    source = regime.action_source(training=False)
    if regime.style == "insert" or source == "oracle":
        raise ValidationError(
            f"regime {regime.key} cannot generate: generation metrics are "
            "defined for adapter-style models, and oracle actions are "
            "undefined for free generation; score it with `planlm evaluate`")
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        planner = data.planner if regime.needs_planner else None
        base, adapter = data.lm(regime)

        prefixes = []
        prepared_split = data.prepared(split)[:config.eval_articles]
        for i, prepared in enumerate(prepared_split):
            seed, article_id = config.seed * 100003 + i, prepared.article.id
            stream = prepared.stream
            if mode == "unconditional":
                prefixes.append(Prefix(np.array([BOS_ID], dtype=np.int64),
                                       seed, article_id))
                continue
            if len(prepared.oracle) < 2:
                continue
            h, cut = _half_split_point(stream, len(prepared.oracle))
            embeddings = prepared.embeddings[:h]
            acts = sentence_actions(source, prepared.oracle[:h], embeddings,
                                    planner)
            token_actions = None if acts is None \
                else acts[stream.sentence_index_of_token[:cut]]
            prefixes.append(Prefix(stream.token_ids[:cut], seed, article_id,
                                   token_actions, embeddings))
        records = generate(
            base, adapter, data.vocab,
            GenerationConfig(max_tokens=config.gen_max_tokens,
                             temperature=config.temperature,
                             top_k=config.top_k),
            data.encoder, action_set, prefixes, planner=planner)

        with open(data.artifact(generations_name(regime)), "w",
                  encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
        return data.finish("generate", {"records": len(records), "mode": mode,
                                        "split": split})


def _generation_metrics(data: RunData, regime: Regime, split: str,
                        critic: HmmCritic) -> dict:
    """A regime's generations scored as their manifest says they were made:
    {} if none were read or they were made for another split.

    A generated sentence is one the decoder closed (see `generate`); nothing
    here splits or embeds text. `latent_ppl` is the critic's perplexity of
    each record's `realized_actions`. Conditional generations are also scored
    against the real continuation at each length L: `rouge2` on the first L
    tokens of each, and `edit` between the actions of the sentences that close
    within them, realized ones for the generation and oracle ones for the
    continuation. Both sides of `edit` count complete sentences only. A record
    whose `realized_actions` are not action ids in [0, k), or do not pair
    with its `sentence_ends`, is refused."""
    name = generations_name(regime)
    made = (data.manifests.get(name) or {}).get("extra", {})
    if name not in data.manifests or made.get("split", split) != split:
        return {}
    config = data.config
    conditional = made.get("mode", "conditional") == "conditional"
    prepared = {p.article.id: p for p in data.prepared(split)}
    rouge_by_len: dict[int, list[float]] = {L: [] for L in config.lengths}
    edit_by_len: dict[int, list[float]] = {L: [] for L in config.lengths}
    rates: list[float] = []
    out: dict = {}
    path = data.path(name)
    with parsing(path):
        records = [json.loads(line) for line in
                   path.read_text(encoding="utf-8").splitlines()]
        for i, record in enumerate(records):
            if "sentence_ends" not in record:
                raise ValidationError(
                    f"{path} records no sentence_ends: an older planlm made "
                    f"it; rerun `planlm generate --regime {regime.key}`")
            actions = record["realized_actions"]
            if any(type(a) is not int for a in actions):
                raise ValidationError(f"{path}: record {i}: realized_actions "
                                      f"{actions} are not all action ids")
            if len(record["sentence_ends"]) != len(actions):
                raise ValidationError(
                    f"{path}: record {i} has {len(record['sentence_ends'])} "
                    f"sentence_ends for {len(actions)} realized_actions")
        if records:
            try:
                out["latent_ppl"] = corpus_latent_perplexity(
                    critic, [record["realized_actions"] for record in records])
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from exc
        for record in records:
            if record["plan_following_rate"] is not None:
                rates.append(float(record["plan_following_rate"]))
            if not conditional:
                continue
            real_article = prepared[record["article_id"]]
            stream, m = real_article.stream, len(real_article.oracle)
            h, cut = _half_split_point(stream, m)
            real = stream.token_ids[cut:].tolist()
            # continuation sentence j closes after its last token
            real_ends = np.searchsorted(stream.sentence_index_of_token,
                                        range(h, m), side="right") - cut
            generated = record["token_ids"]
            for length in config.lengths:
                ref, hyp = real[:length], generated[:length]
                if not ref or not hyp:
                    continue
                rouge_by_len[length].append(rouge2_f1(ref, hyp))
                edit_by_len[length].append(normalized_edit(
                    [a for a, end in zip(real_article.oracle[h:], real_ends)
                     if end <= length],
                    [a for a, end in zip(record["realized_actions"],
                                         record["sentence_ends"])
                     if end <= length],
                    config.edit_base_len, len(hyp)))
    rouge = {str(L): float(np.mean(v)) for L, v in rouge_by_len.items() if v}
    edit = {str(L): float(np.mean(v)) for L, v in edit_by_len.items() if v}
    if rouge:
        out["rouge2"] = rouge | {"mean": float(np.mean(list(rouge.values())))}
    if edit:
        out["edit"] = edit | {"mean": float(np.mean(list(edit.values())))}
    out["plan_following_rate"] = float(np.mean(rates)) if rates else None
    return out


def step_evaluate(config: RunConfig, out_dir: Path, regimes: Sequence[Regime],
                  force: bool = False, split: str = "test") -> dict:
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        planner = data.planner \
            if (data.out_dir / "planner.plmc").exists() else None
        # every checkpoint and generations file is read before any scoring
        models = {}
        for regime in regimes:
            if regime.needs_planner and planner is None:
                raise ValidationError(
                    f"regime {regime.key} requires planner.plmc; "
                    "produce it with `planlm train-planner`")
            models[regime.key] = data.lm(regime)
            if (data.out_dir / generations_name(regime)).exists():
                data.path(generations_name(regime))

        # ground-truth critic from training action sequences
        train_sequences = [data.oracle[aid] for aid in data.splits["train"]]
        critic = hmm_fit(train_sequences, n_states=config.hmm_states,
                         n_symbols=action_set.k, seed=config.seed,
                         max_iters=config.hmm_iters)

        report: dict = {
            "config_digest": data.digest,
            "seed": config.seed,
            "split": split,
            "lengths": list(config.lengths),
            "regimes": {},
        }
        # the previous report is this step's own output, not an input; its
        # entries carry over while its manifest is current, and so its inputs
        # become inputs of this report
        report_path = data.out_dir / "eval_report.json"
        manifest = storage.read_manifest(report_path)
        if data.why_stale(report_path.name, manifest) is None:
            with parsing(report_path):
                previous = json.loads(report_path.read_text(encoding="utf-8"))
                if not isinstance(previous, dict) or not isinstance(
                        previous.get("regimes", {}), dict):
                    raise ValidationError(
                        f"{report_path}: cannot parse: expected a JSON "
                        "object whose \"regimes\" is an object")
            if previous.get("split") == split:
                report["regimes"] = previous.get("regimes", {})
                for name in manifest["inputs"]:
                    data.path(name)

        for regime in regimes:
            entry: dict = {}
            base, adapter = models[regime.key]
            items = scoring_items(data, split, regime, training=False,
                                  planner=planner)
            entry["ppl"] = corpus_perplexity(logit_fn(base, adapter), items,
                                             base.config.context_window)
            entry.update(_generation_metrics(data, regime, split, critic))
            report["regimes"][regime.key] = entry

        if planner is not None:
            metrics = evaluate_planner(planner, _planner_articles(data, split))
            report["planner"] = {"accuracy": metrics.accuracy,
                                 "average_rank": metrics.average_rank}

        data.artifact(report_path.name).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        data.finish("evaluate", {"regimes": sorted(report["regimes"])})
        return report


def step_scan_oracle(config: RunConfig, out_dir: Path,
                     force: bool = False, split: str = "test") -> dict:
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        base, adapter = data.lm(Regime("oracle"))

        scorer = logit_fn(base, adapter)
        articles = [(p.stream, p.oracle)
                    for p in data.prepared(split)[:config.scan_articles]]
        window = base.config.context_window
        oracle_result = oracle_scan(scorer, articles, action_set.k, window)
        n_variants = config.noise_variants or action_set.k
        sigma = adapter.embedding_std()
        noise_curve = noise_scan(scorer, articles, n_variants, sigma,
                                 action_set.dim, window, seed=config.seed)

        def write_curve(name, ppl_at_rank):
            lines = ["rank,ppl"] + [f"{i + 1},{p:.6f}"
                                    for i, p in enumerate(ppl_at_rank)]
            data.artifact(name).write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")

        write_curve("oracle_scan.csv", oracle_result.ppl_at_rank)
        write_curve("noise_scan.csv", noise_curve)
        summary = {
            "oracle_ppl": oracle_result.oracle_ppl,
            "mean_oracle_rank": oracle_result.mean_oracle_rank,
            "nearest_rank": oracle_result.nearest_rank,
            "best_action_ppl": float(oracle_result.ppl_at_rank[0]),
            "best_noise_ppl": float(noise_curve[0]),
            "noise_sigma": sigma,
            "n_sentences": oracle_result.n_sentences,
            "per_article_rank1_ppl": oracle_result.per_article_rank1_ppl,
            "per_article_oracle_ppl": oracle_result.per_article_oracle_ppl,
        }
        data.artifact("scan_summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        data.finish("scan-oracle")
        return summary


def step_inspect_cluster(config: RunConfig, out_dir: Path, action_id: int,
                         top_n: int = 10, force: bool = False) -> dict:
    """Read-only: pins no config and writes nothing."""
    with RunData(out_dir, config, force) as data:
        action_set = data.action_set
        hits = inspect_cluster(action_id, data.sentences, action_set, top_n,
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
                 regime: Regime, force: bool = False) -> list[dict]:
    """Re-run cluster..evaluate of one regime for each k in a subdirectory;
    emit a CSV."""
    with RunData(out_dir, config, force) as data:
        sources = [data.path(name) for name in (
            "corpus.jsonl", "splits.json", "vocab.txt", "embeddings.plmb",
            "embeddings.idx", "base_lm.plmc")]
        rows = []
        for k in ks:
            sub_config = dataclasses.replace(config, k=k)
            sub_dir = data.out_dir / f"k{k}"
            with RunData(sub_dir, sub_config, force=True) as copies:
                for source in sources:
                    shutil.copyfile(source, copies.artifact(source.name))
                copies.finish("sweep-k")
            # the sweep owns its sub-directories: each step re-pins and overwrites
            step_cluster(sub_config, sub_dir, force=True)
            step_actions(sub_config, sub_dir, force=True)
            step_train_planner(sub_config, sub_dir, force=True)
            if regime.actions != "none":
                step_finetune(sub_config, sub_dir, regime, force=True)
            report = step_evaluate(sub_config, sub_dir, [regime], force=True,
                                   split="val")
            rows.append({
                "k": k,
                "ppl": report["regimes"][regime.key]["ppl"],
                "planner_accuracy": report["planner"]["accuracy"],
                "planner_average_rank": report["planner"]["average_rank"],
            })
        lines = ["k,ppl,planner_accuracy,planner_average_rank"]
        for row in rows:
            lines.append(f"{row['k']},{row['ppl']:.6f},"
                         f"{row['planner_accuracy']:.6f},"
                         f"{row['planner_average_rank']:.6f}")
        data.artifact("sweep_k.csv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
        data.finish("sweep-k", {"ks": list(ks)})
        return rows
