"""Discrete writing actions: k-means over sentence embeddings.

Cluster centroids double as the action embeddings; assigning a sentence to an
action means finding the nearest centroid in squared Euclidean distance
(which, on unit-norm inputs, agrees with the cosine argmin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Article, split_sentences
from .errors import ValidationError


@dataclass
class ActionSet:
    """K centroid rows defining the action vocabulary.

    `inertia` and `iterations_run` describe the k-means fit that made the
    centroids; a set read back from disk leaves them at 0.
    """

    centroids: np.ndarray          # (K, dim) float32
    inertia: float = 0.0
    iterations_run: int = 0

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances, clamped at zero."""
    sq = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _plus_plus_init(points: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding.

    Candidate centers are sampled proportional to the squared distance to the
    nearest chosen center; each step draws 2 + log(k) candidates and keeps the
    one minimizing total potential, matching the stock scikit-learn behavior.
    """
    n = points.shape[0]
    n_trials = 2 + int(np.log(k)) if k > 1 else 1
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(n)]
    closest = _squared_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            candidates = rng.integers(n, size=n_trials)
        else:
            candidates = rng.choice(n, size=n_trials, p=closest / total)
        best_potential = np.inf
        best_closest = closest
        best_idx = int(candidates[0])
        for c in candidates:
            trial = np.minimum(closest,
                               _squared_distances(points, points[c][None, :])[:, 0])
            potential = trial.sum()
            if potential < best_potential:
                best_potential = potential
                best_closest = trial
                best_idx = int(c)
        centers[i] = points[best_idx]
        closest = best_closest
    return centers


def kmeans_fit(embeddings: np.ndarray, k: int, seed: int,
               max_iters: int = 300) -> ActionSet:
    """Lloyd iterations from a k-means++ seeding until the assignment fixpoint.

    Empty clusters are repaired by relocating the centroid onto the point
    farthest from its own centroid, which keeps all K actions alive and never
    increases the within-cluster sum of squares.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError(f"embeddings must be 2-D, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("embeddings contain non-finite values")
    n = points.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValidationError(f"cannot fit {k} clusters to {n} points")

    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(points, k, rng)
    assignment = np.full(n, -1, dtype=np.int64)
    prev_inertia = np.inf
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        dists = _squared_distances(points, centers)
        new_assignment = dists.argmin(axis=1)

        # repair empty clusters, in ascending cluster id
        counts = np.bincount(new_assignment, minlength=k)
        moved: set[int] = set()
        for cluster in np.flatnonzero(counts == 0):
            own = dists[np.arange(n), new_assignment]
            own[list(moved)] = -1.0
            farthest = int(own.argmax())
            centers[cluster] = points[farthest]
            new_assignment[farthest] = cluster
            dists[:, cluster] = _squared_distances(points, centers[cluster:cluster + 1])[:, 0]
            moved.add(farthest)
            counts = np.bincount(new_assignment, minlength=k)

        inertia = float(dists[np.arange(n), new_assignment].sum())
        if inertia > prev_inertia * (1.0 + 1e-12) + 1e-12:
            raise AssertionError(
                f"inertia increased: {prev_inertia} -> {inertia}")
        prev_inertia = inertia

        converged = bool(np.array_equal(new_assignment, assignment))
        assignment = new_assignment
        for cluster in range(k):
            members = points[assignment == cluster]
            centers[cluster] = members.mean(axis=0)
        if converged:
            break

    final = float(_squared_distances(points, centers).min(axis=1).sum())
    return ActionSet(centroids=centers.astype(np.float32), inertia=final,
                     iterations_run=iterations)


def assign_action(z: np.ndarray, action_set: ActionSet) -> int:
    """Nearest centroid by squared Euclidean distance; ties take the lowest id."""
    z = np.asarray(z, dtype=np.float32)
    if z.shape != (action_set.dim,):
        raise ValidationError(
            f"embedding dim {z.shape} does not match actions ({action_set.dim},)")
    return int(_squared_distances(z[None, :].astype(np.float64),
                                  action_set.centroids.astype(np.float64)).argmin())


def assign_actions(matrix: np.ndarray, action_set: ActionSet) -> np.ndarray:
    """Vectorized assign_action over rows."""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    dists = _squared_distances(matrix.astype(np.float64),
                               action_set.centroids.astype(np.float64))
    return dists.argmin(axis=1)


def inspect_cluster(action_id: int, articles: Sequence[Article],
                    action_set: ActionSet, top_n: int,
                    embeddings: Mapping[str, np.ndarray],
                    ) -> list[tuple[float, str, str, int]]:
    """The top_n corpus sentences nearest a centroid.

    `embeddings` maps each article id to its sentence embeddings, in the
    space the centroids were fitted in. Returns (distance, sentence text,
    article_id, sentence_index) tuples in ascending distance; ties keep
    corpus order.
    """
    if not 0 <= action_id < action_set.k:
        raise ValidationError(f"unknown action id {action_id} (K={action_set.k})")
    centroid = action_set.centroids[action_id].astype(np.float64)
    scored: list[tuple[float, str, str, int]] = []
    for article in articles:
        spans = split_sentences(article.text, article.id)
        matrix = embeddings.get(article.id, np.zeros((0, action_set.dim)))
        if matrix.shape != (len(spans), action_set.dim):
            raise ValidationError(
                f"embeddings of article {article.id!r} have shape "
                f"{matrix.shape}; expected ({len(spans)}, {action_set.dim})")
        for span, z in zip(spans, matrix):
            dist = float(np.sum((z.astype(np.float64) - centroid) ** 2))
            scored.append((dist, span.text(article.text), article.id,
                           span.index))
    scored.sort(key=lambda item: item[0])  # sort is stable: ties keep corpus order
    return scored[:top_n]
