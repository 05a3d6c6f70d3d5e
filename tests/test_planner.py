import numpy as np
import pytest

from planlm import storage
from planlm.errors import ValidationError
from planlm.planner import (PlannerConfig, PlannerModel, evaluate_planner,
                            planner_from_checkpoint, planner_meta,
                            predict_actions_for_article, train_planner)

D, K = 16, 8


def make_model(seed=0, centroids=None, **overrides):
    cfg = dict(dim=D, n_actions=K, n_layers=1, n_heads=2, context_limit=6,
               head_init="random")
    cfg.update(overrides)
    return PlannerModel(PlannerConfig(**cfg), np.random.default_rng(seed),
                        centroids=centroids)


def unit_prototypes(k=K, d=D, seed=1):
    protos = np.random.default_rng(seed).normal(0, 1, (k, d))
    return (protos / np.linalg.norm(protos, axis=1, keepdims=True)).astype(
        np.float32)


def cycle_articles(n_articles, length, protos, seed=0, noise=0.02):
    """Actions follow a_{i+1} = (a_i + 1) mod K; embeddings sit near prototypes."""
    rng = np.random.default_rng(seed)
    k, d = protos.shape
    out = []
    for _ in range(n_articles):
        start = int(rng.integers(k))
        actions = np.array([(start + j) % k for j in range(length)])
        z = protos[actions] + noise * rng.normal(0, 1, (length, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        out.append((z.astype(np.float32), actions))
    return out


def test_zero_head_gives_uniform_distribution():
    model = make_model()
    model.w_o.values[:] = 0.0
    model.b.values[:] = 0.0
    probs = model.forward_probs(np.random.default_rng(0).normal(0, 1, (3, D)))
    np.testing.assert_allclose(probs, 1.0 / K, atol=1e-7)


def test_output_is_probability_vector():
    model = make_model()
    rng = np.random.default_rng(5)
    for length in (0, 1, 4, 6):
        probs = model.forward_probs(rng.normal(0, 1, (length, D)))
        assert probs.shape == (K,)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-5
        assert np.isfinite(probs).all()


def test_permuting_sentences_with_their_positions_is_invariant():
    model = make_model(seed=3)
    ctx = np.random.default_rng(7).normal(0, 1, (3, D)).astype(np.float32)
    before = model.forward_probs(ctx)
    # swap sentences 0 and 1 together with their position embeddings
    model.pos.values[[0, 1]] = model.pos.values[[1, 0]]
    after = model.forward_probs(ctx[[1, 0, 2]])
    np.testing.assert_allclose(before, after, atol=1e-5)


def test_context_truncated_to_most_recent_window():
    model = make_model()
    rng = np.random.default_rng(11)
    recent = rng.normal(0, 1, (6, D)).astype(np.float32)
    junk = rng.normal(0, 1, (4, D)).astype(np.float32)
    np.testing.assert_allclose(model.forward_probs(recent),
                               model.forward_probs(np.vstack([junk, recent])),
                               atol=1e-7)


def test_centroid_head_init_is_exact():
    centroids = unit_prototypes()
    model = make_model(head_init="centroids", centroids=centroids)
    assert np.abs(model.w_o.values - centroids).max() == 0.0


def test_centroid_init_requires_centroids():
    with pytest.raises(ValidationError):
        make_model(head_init="centroids")


def test_rank_counts_strictly_greater_scores():
    model = make_model()
    data = [(np.zeros((1, D), dtype=np.float32), np.array([2]))]

    class Fixed(PlannerModel):
        def logits_batch(self, contexts, batch):
            return __import__("planlm.autodiff", fromlist=["Tensor"]).Tensor(
                np.tile(np.array([[0.1, 0.5, 0.4]], dtype=np.float32), (batch, 1)))

    fixed = Fixed.__new__(Fixed)
    fixed.config = PlannerConfig(dim=D, n_actions=3, context_limit=6,
                                 head_init="random")
    metrics = evaluate_planner(fixed, data)
    assert metrics.average_rank == 2.0
    assert metrics.accuracy == 0.0


def test_uniform_scores_rank_one():
    # the rank is optimistic on exact ties
    model = make_model()
    model.w_o.values[:] = 0.0
    model.b.values[:] = 0.0
    protos = unit_prototypes()
    data = cycle_articles(20, 8, protos, seed=2)
    assert evaluate_planner(model, data).average_rank == 1.0


def test_training_reduces_loss_and_improves_accuracy():
    protos = unit_prototypes()
    train = cycle_articles(30, 8, protos, seed=3)
    val = cycle_articles(8, 8, protos, seed=4)
    model = make_model(seed=1, head_init="centroids", centroids=protos)
    before = evaluate_planner(model, val).accuracy
    history = train_planner(model, train, val, batch_size=32, lr=3e-3,
                            max_epochs=6, patience=3, seed=0)
    after = evaluate_planner(model, val).accuracy
    assert history["train_loss"][-1] < history["train_loss"][0]
    assert after > before


def test_mlp_architecture_trains_too():
    protos = unit_prototypes()
    train = cycle_articles(12, 6, protos, seed=5)
    model = make_model(seed=2, arch="mlp")
    history = train_planner(model, train, [], batch_size=16, lr=3e-3,
                            max_epochs=3, patience=3, seed=0)
    assert history["train_loss"][-1] < history["train_loss"][0]


def test_predict_actions_length_and_determinism():
    protos = unit_prototypes()
    model = make_model(seed=4)
    z = cycle_articles(1, 7, protos, seed=6)[0][0]
    a1 = predict_actions_for_article(model, z)
    a2 = predict_actions_for_article(model, z)
    assert len(a1) == 7
    assert a1 == a2
    assert all(0 <= a < K for a in a1)


def test_checkpoint_round_trip(tmp_path, request):
    centroids = unit_prototypes()
    model = make_model(seed=9, head_init="centroids", centroids=centroids)
    ctx = np.random.default_rng(1).normal(0, 1, (3, D)).astype(np.float32)
    request.getfixturevalue("no_normal_draws")
    path = tmp_path / "planner.plmc"
    sections = {k: v.values for k, v in model.params_dict().items()}
    storage.write_checkpoint(path, sections, planner_meta(model))
    loaded_sections, meta = storage.read_checkpoint(path)
    restored = planner_from_checkpoint(loaded_sections, meta)
    assert restored.config == model.config
    for name, tensor in model.params_dict().items():
        assert restored.params_dict()[name].values.tobytes() \
            == tensor.values.tobytes()
    np.testing.assert_array_equal(restored.forward_probs(ctx),
                                  model.forward_probs(ctx))


def test_oversized_context_rejected_at_batch_level():
    model = make_model()
    with pytest.raises(ValidationError):
        model.logits_batch(np.zeros((1, 9, D), dtype=np.float32), 1)
