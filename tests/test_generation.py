import numpy as np
import pytest

from planlm.actions import kmeans_fit
from planlm.corpus import Vocabulary
from planlm.encoder import EncoderConfig, SentenceEncoder
from planlm.errors import ValidationError
from planlm.generation import (GenerationConfig, GenerationRecord, generate,
                               generate_insert_internal, sample_token)
from planlm.lm import (ActionAdapter, AdapterConfig, BaseLM, LmConfig, Regime,
                       extend_for_insert)
from planlm.planner import PlannerConfig, PlannerModel

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
    return generate(base, adapter if regime.actions != "none" else None,
                    regime, VOCAB, config, enc, action_set, planner=planner,
                    **kwargs)


def test_output_length_capped():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=17, seed=0, mode="unconditional")
    rec = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
    assert len(rec.token_ids) <= 17
    assert rec.prefix_len == 1


def test_greedy_generation_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=12, temperature=0.0, seed=3,
                           mode="unconditional")
    a = run(Regime("fixed"), cfg, base, adapter, action_set, planner, enc)
    b = run(Regime("fixed"), cfg, base, adapter, action_set, planner, enc)
    assert a.token_ids == b.token_ids
    assert a.text == b.text


def test_same_seed_sampling_is_deterministic():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=30, temperature=1.0, seed=9,
                           mode="unconditional")
    a = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
    b = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
    assert a.token_ids == b.token_ids
    assert a.planned_actions == b.planned_actions


def test_single_action_vocabulary_always_follows_plan():
    base, adapter, action_set, planner, enc = tiny_world(k=1)
    cfg = GenerationConfig(max_tokens=60, temperature=1.0, seed=1,
                           mode="unconditional")
    rec = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
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
    cfg = GenerationConfig(max_tokens=25, temperature=1.0, seed=7,
                           mode="unconditional")
    fixed = run(Regime("fixed"), cfg, base, adapter, action_set, planner, enc)
    stubbed = run(Regime("predicted_pa"), cfg, base, adapter, action_set,
                  stub, enc)
    assert stubbed.token_ids == fixed.token_ids


def test_conditioning_action_constant_between_boundaries():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=5,
                           mode="unconditional")
    rec = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
    terminal_id = VOCAB.id_of(".")
    for i in range(1, len(rec.token_ids)):
        if rec.token_actions[i] != rec.token_actions[i - 1]:
            # the action may only switch right after a sentence boundary
            assert rec.token_ids[i - 1] == terminal_id


def test_fixed_regime_makes_no_planner_calls():
    base, adapter, action_set, planner, enc = tiny_world()
    planner.invocations = 0
    cfg = GenerationConfig(max_tokens=25, temperature=1.0, seed=2,
                           mode="unconditional")
    run(Regime("fixed"), cfg, base, adapter, action_set, planner, enc)
    assert planner.invocations == 0


def test_sliding_window_never_exceeds_context():
    base, adapter, action_set, planner, enc = tiny_world()
    seen = []
    orig = base.forward

    def spy(ids, **kwargs):
        seen.append(ids.shape[1])
        return orig(ids, **kwargs)

    base.forward = spy
    cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=4,
                           mode="unconditional")
    run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner, enc)
    assert max(seen) <= LM_CFG.context_window


def test_conditional_mode_requires_prefix():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=5, seed=0)
    with pytest.raises(ValidationError):
        run(Regime("fixed"), cfg, base, adapter, action_set, planner, enc)


def test_conditional_prefix_threads_through():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=8, temperature=0.0, seed=0)
    prefix = np.array([1, VOCAB.id_of("the"), VOCAB.id_of("cat"),
                       VOCAB.id_of(".")], dtype=np.int64)
    rec = run(Regime("predicted_pa"), cfg, base, adapter, action_set, planner,
              enc, prefix_ids=prefix,
              prefix_token_actions=np.zeros(4, dtype=np.int64),
              prefix_sentence_embeddings=enc.embed_sentence("the cat.")[None, :],
              article_id="art7")
    assert rec.prefix_len == 4
    assert rec.article_id == "art7"
    assert len(rec.token_ids) == 8


def test_free_generation_with_oracle_regime_rejected():
    base, adapter, action_set, planner, enc = tiny_world()
    cfg = GenerationConfig(max_tokens=5, seed=0, mode="unconditional")
    with pytest.raises(ValidationError):
        run(Regime("oracle"), cfg, base, adapter, action_set, planner, enc)


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


# -- insert-style decoding ---------------------------------------------------------


def test_internal_insert_decoding_mask_contract():
    base, _, action_set, _, enc = tiny_world()
    insert_lm = extend_for_insert(base, action_set.k, "internal",
                                  np.random.default_rng(1))
    cfg = GenerationConfig(max_tokens=40, temperature=1.0, seed=6,
                           mode="unconditional")
    ids = generate_insert_internal(insert_lm, VOCAB, cfg)
    v = insert_lm.n_text_tokens
    expect_action = True
    sentence = []
    for tok in ids[1:]:  # skip <bos>
        if expect_action:
            assert tok >= v, "sentence must open with exactly one action token"
            expect_action = False
            continue
        assert tok < v, "action tokens may not appear mid-sentence"
        sentence.append(VOCAB.token_of(tok))
        if VOCAB.token_of(tok) == ".":
            from planlm.corpus import detokenize
            from planlm.generation import _sentence_complete
            if _sentence_complete(detokenize(sentence)):
                expect_action = True
                sentence = []


def test_external_insert_lm_rejected_by_internal_decoder():
    base, _, action_set, _, enc = tiny_world()
    insert_lm = extend_for_insert(base, action_set.k, "external",
                                  np.random.default_rng(1))
    cfg = GenerationConfig(max_tokens=5, seed=0, mode="unconditional")
    with pytest.raises(ValidationError):
        generate_insert_internal(insert_lm, VOCAB, cfg)
