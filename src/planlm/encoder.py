"""Frozen deterministic sentence encoder.

A sentence is lowercased, decomposed into character n-grams (orders 1 to
`ngram_order`), hashed into a fixed bucket space with a 64-bit hash, and the
resulting sparse term-frequency vector is multiplied by a pseudo-random
Gaussian projection whose rows are generated on demand from `projection_seed`
(the full buckets x dim matrix is never materialized). The output is
L2-normalized; empty or whitespace-only text maps to the first standard basis
vector.

The encoder has no trainable state: nothing downstream ever mutates it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Article, split_sentences
from .errors import ValidationError


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 256
    ngram_order: int = 3
    hash_buckets: int = 1 << 18
    projection_seed: int = 0

    def __post_init__(self):
        if self.dim < 8:
            raise ValidationError(f"encoder dim must be >= 8, got {self.dim}")
        if self.hash_buckets < self.dim:
            raise ValidationError("hash_buckets must be >= dim")


class SentenceEncoder:
    """Stateless apart from caches; reentrant and safe to share."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._bucket_cache: dict[str, int] = {}
        self._row_cache: dict[int, np.ndarray] = {}

    def _bucket(self, ngram: str) -> int:
        cached = self._bucket_cache.get(ngram)
        if cached is None:
            digest = hashlib.blake2b(ngram.encode("utf-8"), digest_size=8).digest()
            cached = int.from_bytes(digest, "little") % self.config.hash_buckets
            self._bucket_cache[ngram] = cached
        return cached

    def _projection_row(self, bucket: int) -> np.ndarray:
        row = self._row_cache.get(bucket)
        if row is None:
            rng = np.random.default_rng((self.config.projection_seed, bucket))
            row = rng.standard_normal(self.config.dim, dtype=np.float32)
            self._row_cache[bucket] = row
        return row

    def _ngram_counts(self, text: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        n = len(text)
        for order in range(1, self.config.ngram_order + 1):
            for i in range(n - order + 1):
                bucket = self._bucket(text[i:i + order])
                counts[bucket] = counts.get(bucket, 0) + 1
        return counts

    def embed_sentence(self, text: str) -> np.ndarray:
        """Unit-norm embedding of one text unit."""
        text = text.lower().strip()
        if not text:
            return empty_sentence_vector(self.config.dim)
        counts = self._ngram_counts(text)
        rows = np.stack([self._projection_row(b) for b in counts])
        weights = np.fromiter(counts.values(), dtype=np.float32, count=len(counts))
        vec = weights @ rows
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            return empty_sentence_vector(self.config.dim)
        return (vec / norm).astype(np.float32)


def empty_sentence_vector(dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float32)
    vec[0] = 1.0
    return vec


def embed_corpus(articles: Iterable[Article], config: EncoderConfig,
                 ) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Embed every sentence of every article, in corpus order.

    Returns the (N, dim) matrix and the row index [(article_id, sentence_index)].
    """
    encoder = SentenceEncoder(config)
    rows: list[np.ndarray] = []
    index: list[tuple[str, int]] = []
    for article in articles:
        for span in split_sentences(article.text, article.id):
            rows.append(encoder.embed_sentence(span.text(article.text)))
            index.append((article.id, span.index))
    if not rows:
        return np.zeros((0, config.dim), dtype=np.float32), []
    return np.stack(rows), index


def group_rows_by_article(matrix: np.ndarray,
                          index: Sequence[tuple[str, int]]) -> dict[str, np.ndarray]:
    """Split a corpus embedding matrix back into per-article matrices."""
    out: dict[str, list[int]] = {}
    for row, (article_id, sentence_index) in enumerate(index):
        out.setdefault(article_id, [])
        if sentence_index != len(out[article_id]):
            raise ValidationError(
                f"index rows for article {article_id!r} are out of order")
        out[article_id].append(row)
    return {aid: matrix[rows] for aid, rows in out.items()}
