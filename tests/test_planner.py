import numpy as np
import pytest

from planlm import autodiff as ad
from planlm import nn, storage
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


def scores(model, context):
    """The action scores `next_action_logits` gives one context."""
    return model.next_action_logits([context]).values[0]


def test_zero_head_gives_uniform_distribution():
    model = make_model()
    model.w_o.values[:] = 0.0
    model.b.values[:] = 0.0
    logits = scores(model, np.random.default_rng(0).normal(0, 1, (3, D)))
    np.testing.assert_array_equal(logits, np.zeros(K, dtype=np.float32))


def test_scores_are_finite_for_every_context_length():
    model = make_model()
    rng = np.random.default_rng(5)
    for length in (0, 1, 4, 6, 9):
        logits = model.next_action_logits(
            [rng.normal(0, 1, (length, D)) for _ in range(3)]).values
        assert logits.shape == (3, K)
        assert np.isfinite(logits).all()


def test_permuting_sentences_with_their_positions_is_invariant():
    model = make_model(seed=3)
    ctx = np.random.default_rng(7).normal(0, 1, (3, D)).astype(np.float32)
    before = scores(model, ctx)
    # swap sentences 0 and 1 together with their position embeddings
    model.pos.values[[0, 1]] = model.pos.values[[1, 0]]
    after = scores(model, ctx[[1, 0, 2]])
    np.testing.assert_allclose(before, after, atol=1e-5)


def test_context_truncated_to_most_recent_window():
    model = make_model()
    rng = np.random.default_rng(11)
    recent = rng.normal(0, 1, (6, D)).astype(np.float32)
    junk = rng.normal(0, 1, (4, D)).astype(np.float32)
    np.testing.assert_array_equal(scores(model, recent),
                                  scores(model, np.vstack([junk, recent])))


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


def head_run(arch, monkeypatch, two_nodes):
    """Logits, parameter gradients and node count of one `logits_batch`
    call and a backward; with `two_nodes`, the head is a `matmul` node and
    then an `add` node, as the reference."""
    model = make_model(arch=arch)
    rng = np.random.default_rng(7)
    model.b.values[:] = rng.normal(0, 1, K)
    params = model.params_dict()
    nn.set_trainable(params, True)
    matmul, node, nodes = ad.matmul, ad._node, [0]

    def matmul_then_add(a, b, bias=None):
        if two_nodes and bias is model.b:
            return matmul(a, b) + bias
        return matmul(a, b, bias)

    def counting(*args):
        nodes[0] += 1
        return node(*args)

    monkeypatch.setattr(ad, "matmul", matmul_then_add)
    monkeypatch.setattr(ad, "_node", counting)
    logits = model.logits_batch(rng.normal(0, 1, (3, 4, D)), 3)
    ad.backward((logits * ad.Tensor(rng.normal(0, 1, (3, K)))).sum())
    monkeypatch.undo()
    return logits.values, {n: p.grad for n, p in params.items()}, nodes[0]


@pytest.mark.parametrize("arch", ["transformer", "mlp"])
def test_head_is_one_node_equal_to_matmul_then_add(arch, monkeypatch):
    logits, grads, nodes = head_run(arch, monkeypatch, two_nodes=False)
    want_logits, want_grads, want_nodes = head_run(arch, monkeypatch,
                                                   two_nodes=True)
    np.testing.assert_array_equal(logits, want_logits)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_array_equal(grad, want_grads[name], err_msg=name)
    assert grads["planner.b"] is not None
    assert nodes == want_nodes - 1


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


def test_predicted_actions_equal_the_argmax_of_each_prefixs_distribution():
    # the per-prefix rule, written out: the last `context_limit` rows of the
    # prefix, or the begin embedding for the empty one, then a softmax
    model = make_model(seed=4)
    limit = model.config.context_limit
    z = cycle_articles(1, limit + 4, unit_prototypes(), seed=6)[0][0]
    want = []
    for i in range(len(z)):
        context = z[max(0, i - limit):i]
        logits = model.logits_batch(context[None] if i else None, 1)
        want.append(int(logits.softmax().values[0].argmax()))
    assert predict_actions_for_article(model, z) == want
    assert len(set(want)) > 1


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
    np.testing.assert_array_equal(scores(restored, ctx), scores(model, ctx))


def test_oversized_context_rejected_at_batch_level():
    model = make_model()
    with pytest.raises(ValidationError):
        model.logits_batch(np.zeros((1, 9, D), dtype=np.float32), 1)
