import numpy as np
import pytest

from planlm.actions import assign_action, kmeans_fit
from planlm.corpus import (BOS_ID, TERMINALS, Vocabulary, detokenize,
                           split_sentences, word_tokens)
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.errors import ValidationError
from planlm.generation import (GenerationConfig, GenerationRecord,
                               _sentence_complete, generate, sample_token)
from planlm.lm import (FIXED_ACTION_ID, ActionAdapter, AdapterConfig, BaseLM,
                       LmConfig)
from planlm.planner import PlannerConfig, PlannerModel
from planlm.synthdata import default_grammar, generate_corpus

VOCAB = Vocabulary(["<unk>", "<bos>", "the", "cat", "dog", "ran", "sat",
                    "big", "red", "."])
ENC_CFG = EncoderConfig(dim=16, hash_buckets=512, projection_seed=1)
LM_CFG = LmConfig(vocab_size=VOCAB.size, d_model=16, n_layers=1, n_heads=2,
                  context_window=12)


def tiny_world(k=2, seed=0):
    rng = np.random.default_rng(seed)
    base = BaseLM(LM_CFG, rng)
    enc = SentenceEncoder(ENC_CFG)
    sample = ["The cat ran.", "The dog sat.", "Big red cat.", "The big dog ran."]
    embeddings = np.stack([enc.embed_sentence(t) for t in sample])
    action_set = kmeans_fit(embeddings, k=k, seed=0)
    adapter = ActionAdapter(
        AdapterConfig(n_actions=k, action_dim=ENC_CFG.dim, adapted_layers=1,
                      init="centroids"),
        LM_CFG, rng, centroids=action_set.centroids)
    planner = PlannerModel(
        PlannerConfig(dim=ENC_CFG.dim, n_actions=k, n_layers=1, n_heads=2,
                      context_limit=8, head_init="random"),
        rng)
    return base, adapter, action_set, planner, enc


def run(regime, config, base, adapter, action_set, planner, enc, **kwargs):
    """Generate from <bos> alone unless the caller gives a prefix. Regime
    "none" decodes without the adapter, and only "predicted_pa" re-plans."""
    kwargs.setdefault("prefix_ids", np.array([BOS_ID], dtype=np.int64))
    return generate(base, adapter if regime != "none" else None, VOCAB, config,
                    enc, action_set,
                    planner=planner if regime == "predicted_pa" else None,
                    **kwargs)


def test_output_length_capped():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=17, seed=0)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    assert len(rec.token_ids) <= 17
    assert rec.prefix_len == 1


def test_greedy_generation_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=12, temperature=0.0, seed=3)
    a = run("fixed", cfg, base, adapter, action_set, planner, enc)
    b = run("fixed", cfg, base, adapter, action_set, planner, enc)
    assert a.token_ids == b.token_ids
    assert a.text == b.text


def test_same_seed_sampling_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=30, temperature=1.0, seed=9)
    a = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    b = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    assert a.token_ids == b.token_ids
    assert a.planned_actions == b.planned_actions


def test_single_action_vocabulary_always_follows_plan():
    base, adapter, action_set, planner, enc = tiny_world(k=1)
    cfg = GenerationConfig(max_tokens=60, temperature=1.0, seed=1)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    assert rec.planned_actions, "expected at least one complete sentence"
    assert rec.plan_following_rate() == 1.0


def test_rate_absent_without_complete_sentences():
    rec = GenerationRecord(article_id="a", prefix_len=1)
    assert rec.plan_following_rate() is None
    assert rec.to_json_dict()["plan_following_rate"] is None


def test_constant_planner_stub_matches_fixed_regime():
    base, adapter, action_set, planner, enc = tiny_world()

    class ConstantPlanner(PlannerModel):
        def predict_next_action(self, context):
            return 0

    stub = ConstantPlanner.__new__(ConstantPlanner)
    stub.config = planner.config
    cfg = GenerationConfig(max_tokens=25, temperature=1.0, seed=7)
    fixed = run("fixed", cfg, base, adapter, action_set, planner, enc)
    stubbed = run("predicted_pa", cfg, base, adapter, action_set,
                  stub, enc)
    assert stubbed.token_ids == fixed.token_ids


def test_conditioning_action_constant_between_boundaries():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=5)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    terminal_id = VOCAB.id_of(".")
    for i in range(1, len(rec.token_ids)):
        if rec.token_actions[i] != rec.token_actions[i - 1]:
            # the action may only switch right after a sentence boundary
            assert rec.token_ids[i - 1] == terminal_id


def test_sliding_window_never_exceeds_context():
    base, adapter, action_set, planner, enc = tiny_world()
    window = LM_CFG.context_window - 1
    seen = []  # (cached, new) positions of each forward
    orig = base.forward

    def spy(ids, cache=None, **kwargs):
        seen.append((cache[0][0].shape[2] if cache else 0, ids.shape[1]))
        return orig(ids, cache=cache, **kwargs)

    base.forward = spy
    cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=4)
    run("predicted_pa", cfg, base, adapter, action_set, planner, enc)
    assert len(seen) == 40
    assert max(past + new for past, new in seen) == window
    fills = [new for past, new in seen if past == 0]
    assert fills[0] == 1 and fills[1:] == [window // 2] * (len(fills) - 1)
    assert len(fills) > 1, "40 tokens overflow the window, so it refills"


def uncached_generate(regime, config, base, adapter, action_set, planner, enc,
                      prefix_ids):
    """The decoder without a cache: it re-runs the last `window` tokens for
    every sampled token, with no prefix actions or embeddings."""
    conditioned, uses_planner = regime != "none", regime == "predicted_pa"
    window = base.config.context_window - 1
    rng = np.random.default_rng(config.seed)
    ids = [int(t) for t in prefix_ids]
    act_of_token = [FIXED_ACTION_ID] * len(ids)
    current_action = FIXED_ACTION_ID if conditioned else None
    context = np.zeros((0, ENC_CFG.dim), dtype=np.float32)
    if uses_planner:
        current_action = planner.predict_next_action(context)
    record = GenerationRecord(article_id="", prefix_len=len(ids))
    sentence = []
    for _ in range(config.max_tokens):
        w0 = max(0, len(ids) - window)
        win = np.asarray([ids[w0:]], dtype=np.int64)
        if conditioned:
            pp = np.asarray([act_of_token[w0 + 1:] + [current_action]],
                            dtype=np.int64)
            logits = base.forward(win, adapter=adapter, actions=pp)
        else:
            logits = base.forward(win)
        token = sample_token(logits.values[0, -1], config.temperature,
                             config.top_k, rng)
        ids.append(token)
        record.token_ids.append(token)
        if conditioned:
            act_of_token.append(current_action)
            record.token_actions.append(current_action)
        sentence.append(VOCAB.token_of(token))
        text = detokenize(sentence)
        if sentence[-1] in TERMINALS and _sentence_complete(text):
            z = enc.embed_sentence(text)
            record.realized_actions.append(assign_action(z, action_set))
            record.sentence_ends.append(len(record.token_ids))
            if conditioned:
                record.planned_actions.append(current_action)
            if uses_planner:
                context = np.vstack([context, z[None, :]])
                current_action = planner.predict_next_action(context)
            sentence = []
    record.text = detokenize([VOCAB.token_of(t) for t in record.token_ids])
    return record


@pytest.mark.parametrize("regime", ["none", "fixed", "predicted_pa"])
def test_cached_decoder_matches_uncached_inside_the_window(regime):
    base, adapter, action_set, planner, enc = tiny_world()
    logits = []  # the last position's logits of every forward
    forward = base.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        logits.append(out.values[0, -1])
        return out

    base.forward = spy
    window = LM_CFG.context_window - 1
    replans = 0
    for seed in range(8):
        prefix = np.array([BOS_ID] + [VOCAB.id_of("the")] * (seed % 4),
                          dtype=np.int64)
        cfg = GenerationConfig(max_tokens=window - len(prefix),
                               temperature=1.0, seed=seed)
        args = (regime, cfg, base, adapter, action_set, planner, enc)
        logits.clear()
        got = run(*args, prefix_ids=prefix)
        n = len(logits)
        want = uncached_generate(*args, prefix_ids=prefix)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.token_actions == want.token_actions
        np.testing.assert_allclose(logits[:n], logits[n:], rtol=0, atol=1e-6)
        replans += len(got.planned_actions)
    if regime != "none":
        assert replans > 0, "no sentence closed, so no re-plan was checked"


@pytest.mark.parametrize("regime", ["none", "predicted_pa"])
def test_every_closed_sentence_records_its_action_and_end(regime):
    base, adapter, action_set, planner, enc = tiny_world()
    closed = 0
    for seed in range(4):
        cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=seed)
        rec = run(regime, cfg, base, adapter, action_set, planner, enc)
        ends = rec.to_json_dict()["sentence_ends"]
        assert len(ends) == len(rec.realized_actions)
        assert all(a < b for a, b in zip(ends, ends[1:]))
        assert all(VOCAB.token_of(rec.token_ids[end - 1]) in TERMINALS
                   for end in ends)
        closed += len(ends)
    assert closed > 0, "no sentence closed, so nothing was checked"


def test_decoder_closing_rule_counts_the_splitters_sentences():
    # the decoder sees lowercased tokens; the splitter sees the original text
    articles, _ = generate_corpus(default_grammar(seed=0), 200, 24)
    for article in articles:
        closed, sentence = 0, []
        for token in word_tokens(article.text):
            sentence.append(token)
            if token in TERMINALS and _sentence_complete(detokenize(sentence)):
                closed, sentence = closed + 1, []
        assert closed == len(split_sentences(article.text)), article.id


def test_conditional_mode_requires_prefix():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=5, seed=0)
    for prefix in (None, np.zeros(0, dtype=np.int64)):
        with pytest.raises(ValidationError):
            run("fixed", cfg, base, adapter, action_set, planner, enc,
                prefix_ids=prefix)


def test_conditional_prefix_threads_through():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=8, temperature=0.0, seed=0)
    prefix = np.array([1, VOCAB.id_of("the"), VOCAB.id_of("cat"),
                       VOCAB.id_of(".")], dtype=np.int64)
    rec = run("predicted_pa", cfg, base, adapter, action_set, planner,
              enc, prefix_ids=prefix,
              prefix_token_actions=np.zeros(4, dtype=np.int64),
              prefix_sentence_embeddings=enc.embed_sentence("the cat.")[None, :],
              article_id="art7")
    assert rec.prefix_len == 4
    assert rec.article_id == "art7"
    assert len(rec.token_ids) == 8


# -- sampling -------------------------------------------------------------------


def test_sample_token_greedy_ties_take_lowest_id():
    logits = np.array([1.0, 3.0, 3.0, 0.0], dtype=np.float32)
    assert sample_token(logits, 0.0, 40, np.random.default_rng(0)) == 1


def test_sample_token_top_k_restricts_support():
    logits = np.array([5.0, 4.0, -1.0, -2.0], dtype=np.float32)
    rng = np.random.default_rng(0)
    draws = {sample_token(logits, 1.0, 2, rng) for _ in range(50)}
    assert draws <= {0, 1}


def test_sample_token_temperature_sharpens():
    logits = np.array([2.0, 0.0], dtype=np.float32)
    rng = np.random.default_rng(0)
    cold = [sample_token(logits, 0.05, 2, rng) for _ in range(30)]
    assert set(cold) == {0}

