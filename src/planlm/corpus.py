"""Corpus ingestion: articles, sentence segmentation, word-level tokenization.

Articles come in as JSON lines (`id`, `title`, `text`) or a directory of
.txt files. Text units are sentences found by a deterministic rule-based
splitter; tokens are lowercased alphanumeric runs and single punctuation
marks mapped through a capped vocabulary.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, parsing

UNK_TOKEN = "<unk>"
BOS_TOKEN = "<bos>"
UNK_ID = 0
BOS_ID = 1

# Periods ending these words never close a sentence.
ABBREVIATIONS = frozenset(
    ["dr.", "mr.", "mrs.", "st.", "e.g.", "i.e.", "etc.", "vs.", "no."])

TERMINALS = frozenset(".!?")
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)


@dataclass(frozen=True)
class Article:
    id: str
    title: str
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValidationError(f"article {self.id!r} has empty text")


@dataclass
class SentenceSpan:
    """One text unit: a half-open [char_start, char_end) slice of an article."""

    article_id: str
    index: int
    char_start: int
    char_end: int
    token_ids: tuple[int, ...] = ()

    def text(self, article_text: str) -> str:
        return article_text[self.char_start:self.char_end]


@dataclass
class TokenStream:
    """Tokenized article with per-token sentence alignment.

    token_ids[0] is a single <bos> carrying sentence index 0 so position 0
    always has a defined next-token sentence.
    """

    article_id: str
    token_ids: np.ndarray
    sentence_index_of_token: np.ndarray
    spans: list[SentenceSpan] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.token_ids.shape[0])


def _is_sentence_boundary(text: str, i: int) -> bool:
    """Does the terminal character at `i` end a sentence?"""
    if text[i] == ".":
        j = i
        while j > 0 and not text[j - 1].isspace():
            j -= 1
        if text[j:i + 1].lower() in ABBREVIATIONS:
            return False
    j = i + 1
    if j == len(text):
        return True
    if not text[j].isspace():
        return False
    while j < len(text) and text[j].isspace():
        j += 1
    return j == len(text) or text[j].isupper()


def split_sentences(text: str, article_id: str = "") -> list[SentenceSpan]:
    """Rule-based sentence segmentation.

    Splits after `.`, `!`, `?` followed by whitespace and an uppercase letter
    (or end of text); a short abbreviation list suppresses splits; a blank
    line (two newlines) always splits. Every character lands in exactly one
    span or in inter-span whitespace.
    """
    spans: list[tuple[int, int]] = []
    n = len(text)
    i = 0
    start = -1
    last = -1
    while i < n:
        c = text[i]
        if not c.isspace():
            if start < 0:
                start = i
            last = i
            if c in TERMINALS and _is_sentence_boundary(text, i):
                spans.append((start, i + 1))
                start = -1
            i += 1
            continue
        j = i
        newlines = 0
        while j < n and text[j].isspace():
            if text[j] == "\n":
                newlines += 1
            j += 1
        if newlines >= 2 and start >= 0:
            spans.append((start, last + 1))
            start = -1
        i = j
    if start >= 0:
        spans.append((start, last + 1))
    return [SentenceSpan(article_id, k, s, e) for k, (s, e) in enumerate(spans)]


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric runs plus single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bijective token <-> id map with fixed <unk>=0 and <bos>=1."""

    def __init__(self, tokens: Sequence[str]):
        if list(tokens[:2]) != [UNK_TOKEN, BOS_TOKEN]:
            raise ValidationError("vocabulary must start with <unk>, <bos>")
        self.tokens = list(tokens)
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValidationError("vocabulary contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def save(self, path: Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Vocabulary":
        with parsing(path):
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


def build_vocabulary(articles: Iterable[Article], max_size: int) -> Vocabulary:
    """Keep the max_size - 2 most frequent tokens, ties broken lexicographically."""
    if max_size < 3:
        raise ValidationError(f"max_size must be >= 3, got {max_size}")
    counts: Counter[str] = Counter()
    for article in articles:
        counts.update(word_tokens(article.text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, _ in ranked[:max_size - 2]]
    return Vocabulary([UNK_TOKEN, BOS_TOKEN] + kept)


def tokenize(article: Article, vocab: Vocabulary) -> TokenStream:
    """Map each sentence's tokens through the vocabulary, <bos> first."""
    spans = split_sentences(article.text, article.id)
    ids: list[int] = [BOS_ID]
    sent_idx: list[int] = [0]
    out_spans: list[SentenceSpan] = []
    for span in spans:
        toks = word_tokens(span.text(article.text))
        tok_ids = tuple(vocab.id_of(t) for t in toks)
        out_spans.append(SentenceSpan(article.id, span.index, span.char_start,
                                      span.char_end, tok_ids))
        ids.extend(tok_ids)
        sent_idx.extend([span.index] * len(tok_ids))
    return TokenStream(article.id,
                       np.asarray(ids, dtype=np.int32),
                       np.asarray(sent_idx, dtype=np.int32),
                       out_spans)


def detokenize(tokens: Sequence[str]) -> str:
    """Join tokens with spaces, attaching punctuation to the previous word."""
    parts: list[str] = []
    for tok in tokens:
        if parts and len(tok) == 1 and not tok.isalnum():
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


def split_corpus(articles: Sequence[Article], seed: int, n_val: int,
                 n_test: int) -> tuple[list[Article], list[Article], list[Article]]:
    """Seeded shuffle into disjoint, exhaustive (train, val, test) lists."""
    if n_val < 0 or n_test < 0:
        raise ValidationError("split sizes must be non-negative")
    if n_val + n_test >= len(articles):
        raise ValidationError(
            f"corpus of {len(articles)} articles is too small for "
            f"n_val={n_val} + n_test={n_test}")
    order = np.random.default_rng(seed).permutation(len(articles))
    shuffled = [articles[i] for i in order]
    val = shuffled[:n_val]
    test = shuffled[n_val:n_val + n_test]
    train = shuffled[n_val + n_test:]
    return train, val, test


# -- corpus files -------------------------------------------------------------


def load_articles_jsonl(path: Path) -> list[Article]:
    articles = []
    with open(path, encoding="utf-8") as fh, parsing(path):
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                articles.append(Article(str(obj["id"]), str(obj.get("title", "")),
                                        str(obj["text"])))
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad article record: {exc}")
    _check_unique_ids(articles)
    return articles


def load_articles_dir(path: Path) -> list[Article]:
    articles = []
    for txt in sorted(Path(path).glob("*.txt")):
        content = txt.read_text(encoding="utf-8")
        first, _, rest = content.partition("\n")
        articles.append(Article(txt.stem, first.strip(), rest))
    _check_unique_ids(articles)
    return articles


def load_articles(path: Path) -> list[Article]:
    path = Path(path)
    if path.is_dir():
        return load_articles_dir(path)
    return load_articles_jsonl(path)


def save_articles_jsonl(articles: Iterable[Article], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({"id": a.id, "title": a.title, "text": a.text},
                                sort_keys=True) + "\n")


def _check_unique_ids(articles: Sequence[Article]) -> None:
    seen: set[str] = set()
    for a in articles:
        if a.id in seen:
            raise ValidationError(f"duplicate article id {a.id!r}")
        seen.add(a.id)
