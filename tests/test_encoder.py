import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import storage
from planlm.encoder import (EncoderConfig, SentenceEncoder, embed_corpus,
                            empty_sentence_vector)
from planlm.errors import ValidationError

CFG = EncoderConfig(dim=32, hash_buckets=4096, projection_seed=11)


def embed_sentence(text, config):
    return SentenceEncoder(config).embed_sentence(text)


def cosine(a, b):
    return float(np.dot(a, b))


def test_identical_strings_identical_vectors():
    a = embed_sentence("The cat sat on the mat.", CFG)
    b = embed_sentence("The cat sat on the mat.", CFG)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=100)
@given(st.text(min_size=1, max_size=80))
def test_nonempty_strings_are_unit_norm(text):
    vec = embed_sentence(text, CFG)
    assert vec.shape == (CFG.dim,)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-6


def test_near_duplicate_closer_than_unrelated():
    enc = SentenceEncoder(CFG)
    base = enc.embed_sentence("the cat sat")
    near = enc.embed_sentence("the cat sits")
    far = enc.embed_sentence("quarterly earnings report")
    assert cosine(base, near) > cosine(base, far)


def test_empty_text_maps_to_basis_vector():
    assert np.array_equal(embed_sentence("", CFG), empty_sentence_vector(CFG.dim))
    assert np.array_equal(embed_sentence("  \n ", CFG),
                          empty_sentence_vector(CFG.dim))


def test_seed_change_changes_vectors_but_keeps_norm():
    other = EncoderConfig(dim=32, hash_buckets=4096, projection_seed=12)
    a = embed_sentence("some sentence", CFG)
    b = embed_sentence("some sentence", other)
    assert not np.array_equal(a, b)
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-6


def test_config_validation():
    with pytest.raises(ValidationError):
        EncoderConfig(dim=4)
    with pytest.raises(ValidationError):
        EncoderConfig(dim=64, hash_buckets=32)


def test_embed_corpus_shape_and_rows():
    matrix = embed_corpus(["One here.", "Two there.", "Three everywhere."],
                          SentenceEncoder(CFG))
    assert matrix.shape == (3, CFG.dim)
    np.testing.assert_array_equal(matrix[1], embed_sentence("Two there.", CFG))


def test_embed_corpus_rerun_bit_identical(tmp_path):
    # a fresh encoder and one with warm caches write the same bytes
    texts = ["Alpha one.", "Beta two.", "Gamma three."]
    encoder = SentenceEncoder(CFG)
    p1, p2 = tmp_path / "m1.plmb", tmp_path / "m2.plmb"
    for p in (p1, p2):
        storage.write_matrix(p, embed_corpus(texts, encoder))
    assert p1.read_bytes() == p2.read_bytes()


def test_permuting_sentences_permutes_rows():
    encoder = SentenceEncoder(CFG)
    m1 = embed_corpus(["First bit.", "Second bit."], encoder)
    m2 = embed_corpus(["Second bit.", "First bit."], encoder)
    np.testing.assert_array_equal(m1, m2[[1, 0]])


def test_matrix_round_trip(tmp_path):
    mat = np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32)
    path = tmp_path / "m.plmb"
    storage.write_matrix(path, mat)
    np.testing.assert_array_equal(storage.read_matrix(path), mat)
    assert path.read_bytes()[:4] == b"PLMB"


def test_matrix_index_round_trip(tmp_path):
    idx = [("a", 0), ("a", 1), ("b", 0)]
    path = tmp_path / "m.idx"
    storage.write_matrix_index(path, idx)
    assert storage.read_matrix_index(path) == idx
