"""No autodiff graph outside `nn.fit`'s training steps.

Parameters are created frozen and `nn.fit` makes its parameters trainable
only while it steps them, so validation inside training and every scorer and
sampler after it must leave no op output with recorded parents.
"""

import numpy as np
import pytest

from planlm import autodiff as ad
from planlm import evaluation, nn
from planlm.actions import kmeans_fit
from planlm.corpus import BOS_ID, Vocabulary
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.generation import GenerationConfig, Prefix, generate
from planlm.lm import ActionAdapter, AdapterConfig, BaseLM, LmConfig, train_lm
from planlm.planner import (PlannerConfig, PlannerModel, evaluate_planner,
                            train_planner)

VOCAB = Vocabulary(["<unk>", "<bos>", "the", "cat", "dog", "ran", "sat",
                    "big", "red", "."])
K, DIM, WINDOW = 2, 16, 12
LM_CFG = LmConfig(vocab_size=VOCAB.size, d_model=16, n_layers=2, n_heads=2,
                  context_window=WINDOW)
ENC = SentenceEncoder(EncoderConfig(dim=DIM, hash_buckets=512,
                                    projection_seed=1))


@pytest.fixture
def graph_nodes(monkeypatch):
    """A one-element list counting op outputs that recorded parents."""
    count = [0]
    node = ad._node

    def counting(*args):
        out = node(*args)
        count[0] += bool(out._parents)
        return out

    monkeypatch.setattr(ad, "_node", counting)
    return count


@pytest.fixture
def val_graph_nodes(monkeypatch, graph_nodes):
    """The graph nodes built inside each `val_metric` call `nn.fit` makes."""
    per_call = []
    fit = nn.fit

    def counted_fit(*args, val_metric=None, **kwargs):
        def counted():
            before = graph_nodes[0]
            score = val_metric()
            per_call.append(graph_nodes[0] - before)
            return score

        return fit(*args, val_metric=counted if val_metric else None,
                   **kwargs)

    monkeypatch.setattr(nn, "fit", counted_fit)
    return per_call


def lm_items(n, seed):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        ids = np.concatenate([[BOS_ID], rng.integers(2, VOCAB.size, 20)])
        items.append(evaluation.ScoringItem(
            ids=ids, actions=rng.integers(0, K, len(ids))))
    return items


def plans(n, seed):
    rng = np.random.default_rng(seed)
    return [(rng.normal(0, 1, (5, DIM)).astype(np.float32),
             rng.integers(0, K, 5)) for _ in range(n)]


def trained_world():
    """A base LM, adapter and planner right after training, in one process."""
    rng = np.random.default_rng(0)
    sentences = ["The cat ran.", "The dog sat.", "Big red cat.", "The big dog."]
    embeddings = np.stack([ENC.embed_sentence(s) for s in sentences])
    action_set = kmeans_fit(embeddings, k=K, seed=0)
    base = BaseLM(LM_CFG, rng)
    adapter = ActionAdapter(
        AdapterConfig(n_actions=K, action_dim=DIM, adapted_layers=1,
                      init="centroids"),
        LM_CFG, rng, centroids=action_set.centroids)
    planner = PlannerModel(
        PlannerConfig(dim=DIM, n_actions=K, n_layers=1, n_heads=2,
                      context_limit=4),
        rng, centroids=action_set.centroids)
    items, val = lm_items(6, seed=1), lm_items(2, seed=2)
    train_lm(base, items, val, batch_size=4, lr=1e-3, max_epochs=2)
    train_lm(base, items, val, adapter=adapter, batch_size=4, lr=1e-3,
             max_epochs=2)
    train_planner(planner, plans(6, seed=3), plans(2, seed=4), batch_size=4,
                  lr=1e-3, max_epochs=2)
    return base, adapter, planner, action_set


def all_params(base, adapter, planner):
    return {**base.params_dict(), **adapter.params_dict(),
            **planner.params_dict()}


def test_training_builds_graphs_but_validation_and_the_result_do_not(
        val_graph_nodes, graph_nodes):
    base, adapter, planner, _ = trained_world()
    assert graph_nodes[0] > 0  # the training steps did build graphs
    # start score plus one score per epoch, for each of the three fits
    assert val_graph_nodes == [0] * 9
    assert not any(p.requires_grad or p.grad is not None
                   for p in all_params(base, adapter, planner).values())


def test_scoring_and_sampling_after_training_build_no_graph(graph_nodes):
    base, adapter, planner, action_set = trained_world()
    graph_nodes[0] = 0

    def logit_fn(ids, actions, noise):
        return base.forward(ids, adapter=adapter, actions=actions,
                            action_noise=noise).values

    evaluation.corpus_nll(logit_fn, lm_items(2, seed=5), WINDOW)
    rng = np.random.default_rng(6)
    sidx = np.concatenate([[0], np.repeat(np.arange(3), 5)])
    oracle = np.array([0, 1, 0])
    scan_items = [evaluation.ScanItem(
        ids=np.concatenate([[BOS_ID], rng.integers(2, VOCAB.size, 15)]),
        sentence_index_of_token=sidx, oracle_actions=oracle,
        pp_actions=oracle[np.concatenate([sidx[1:], sidx[-1:]])])]
    evaluation.oracle_scan(logit_fn, scan_items, K, WINDOW)
    evaluation.noise_scan(logit_fn, scan_items, n_variants=2, sigma=0.1,
                          action_dim=DIM, window=WINDOW, seed=0)
    planner.forward_probs(np.zeros((2, DIM), dtype=np.float32))
    evaluate_planner(planner, plans(2, seed=7))
    generate(base, adapter, VOCAB, GenerationConfig(max_tokens=16), ENC,
             action_set, [Prefix(np.array([BOS_ID]), seed=0)], planner=planner)
    assert graph_nodes[0] == 0

