import numpy as np
import pytest

from planlm.actions import (ActionSet, assign_actions, inspect_cluster,
                            kmeans_fit)
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.errors import ValidationError

ENC_CFG = EncoderConfig(dim=16, hash_buckets=1024, projection_seed=3)


def lloyd_oracle(points, k, restarts, seed):
    """Plain Lloyd with uniform random init, best inertia over restarts."""
    best = np.inf
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)]
        for _ in range(200):
            d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = d.argmin(axis=1)
            new = centers.copy()
            for c in range(k):
                if (labels == c).any():
                    new[c] = points[labels == c].mean(axis=0)
            if np.allclose(new, centers):
                break
            centers = new
        d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d.min(axis=1).sum()))
    return best


def blobs(n_per, k, seed, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (k, 2))
    pts = np.concatenate(
        [c + spread * rng.normal(0, 1, (n_per, 2)) for c in centers])
    return pts.astype(np.float32)


def test_k_equals_n_distinct_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    fitted = kmeans_fit(pts, k=3, seed=0)
    assert fitted.inertia == pytest.approx(0.0, abs=1e-12)
    got = {tuple(np.round(row, 6)) for row in fitted.centroids}
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_k_one_is_coordinate_mean():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]], dtype=np.float32)
    fitted = kmeans_fit(pts, k=1, seed=0)
    np.testing.assert_allclose(fitted.centroids[0], [1.0, 2.0], atol=1e-6)


def test_six_blob_recovery_close_to_restart_oracle():
    pts = blobs(60, 6, seed=5)
    fitted = kmeans_fit(pts, k=6, seed=0)
    oracle = lloyd_oracle(pts.astype(np.float64), 6, restarts=50, seed=1)
    assert fitted.inertia <= 1.05 * oracle


def test_n_less_than_k_fails():
    with pytest.raises(ValidationError):
        kmeans_fit(np.zeros((2, 3), dtype=np.float32), k=5, seed=0)


def test_refit_is_bit_identical():
    pts = blobs(30, 4, seed=2)
    a = kmeans_fit(pts, k=4, seed=9)
    b = kmeans_fit(pts, k=4, seed=9)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.inertia == b.inertia


def test_inertia_monotone_on_random_data():
    # the fit itself asserts per-iteration monotonicity; drive it on many datasets
    for seed in range(25):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0, 1, (50, 3)).astype(np.float32)
        kmeans_fit(pts, k=7, seed=seed)


def test_duplicate_points_keep_all_clusters_alive():
    pts = np.array([[0.0, 0.0]] * 8 + [[5.0, 5.0]] * 2, dtype=np.float32)
    fitted = kmeans_fit(pts, k=3, seed=1)
    labels = assign_actions(pts, fitted)
    assert len(set(labels.tolist())) == 3 or fitted.inertia == pytest.approx(0.0)


def test_assign_action_centroid_row_maps_to_itself():
    rng = np.random.default_rng(0)
    centroids = rng.normal(0, 1, (6, 4)).astype(np.float32)
    action_set = ActionSet(centroids)
    assert assign_actions(centroids, action_set).tolist() == list(range(6))


def test_assign_action_hand_case():
    action_set = ActionSet(np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32))
    z = np.array([[0.9, 0.8]], dtype=np.float32)
    assert assign_actions(z, action_set).tolist() == [1]


def test_assign_action_tie_takes_lowest_id():
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
    action_set = ActionSet(centroids)
    # z is exactly equidistant from both centroids
    z = np.array([[0.0, 1.0]], dtype=np.float32)
    assert assign_actions(z, action_set).tolist() == [0]


def test_assign_action_dim_mismatch():
    action_set = ActionSet(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValidationError):
        assign_actions(np.zeros((1, 4), dtype=np.float32), action_set)


def test_inspect_cluster_sorted_and_top_hit():
    texts = ["Aa bb cc.", "Dd ee ff.", "Gg hh ii."]
    enc = SentenceEncoder(ENC_CFG)
    embeddings = np.stack([enc.embed_sentence(t) for t in texts])
    action_set = kmeans_fit(embeddings, k=3, seed=0)
    target = int(assign_actions(embeddings[1:2], action_set)[0])
    hits = inspect_cluster(target, {"a": texts}, action_set, top_n=3,
                           embeddings={"a": embeddings})
    dists = [h[0] for h in hits]
    assert dists == sorted(dists)
    assert hits[0][1:] == ("Dd ee ff.", "a", 1)
    assert hits[0][0] == pytest.approx(0.0, abs=1e-9)


def test_inspect_cluster_refuses_a_row_count_other_than_the_sentences():
    texts = ["Aa bb cc.", "Dd ee ff."]
    embeddings = np.eye(3, 4, dtype=np.float32)
    action_set = ActionSet(embeddings[:2].copy())
    with pytest.raises(ValueError):
        inspect_cluster(0, {"a": texts}, action_set, 1, {"a": embeddings})


def test_inspect_cluster_unknown_id():
    action_set = ActionSet(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValidationError):
        inspect_cluster(5, {}, action_set, 1, {})
