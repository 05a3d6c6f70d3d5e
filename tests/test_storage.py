"""Artifact readers return or refuse with a `ValidationError`, nothing else."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planlm import storage
from planlm.corpus import (Article, Vocabulary, load_articles_jsonl,
                           save_articles_jsonl)
from planlm.errors import ValidationError


def _u32(*values):
    return b"".join(struct.pack("<I", v) for v in values)


def _write_samples(root):
    """One small valid file per reader: {name: (bytes, reader)}."""
    rng = np.random.default_rng(0)
    storage.write_matrix(root / "m.plmb", rng.normal(size=(3, 4)))
    storage.write_matrix_index(root / "m.idx", [("a", 0), ("a", 1), ("b", 0)])
    storage.write_checkpoint(root / "c.plmc",
                             {"w": rng.normal(size=(2, 3)),
                              "b": rng.normal(size=3)}, {"kind": "base"})
    storage.write_action_sequences(root / "a.tsv", {"a": [1, 2], "b": []})
    (root / "x").write_bytes(b"")
    storage.write_manifest(root / "x", "cluster", "0123", 0, [root / "m.plmb"],
                           0.5, {"inertia": 1.0})
    Vocabulary(["<unk>", "<bos>", "the", "cat"]).save(root / "vocab.txt")
    save_articles_jsonl([Article("a", "t", "One. Two."),
                         Article("b", "", "Three!")], root / "corpus.jsonl")
    readers = {
        "m.plmb": storage.read_matrix,
        "m.idx": storage.read_matrix_index,
        "c.plmc": storage.read_checkpoint,
        "a.tsv": storage.read_action_sequences,
        "x.manifest.json": lambda p: storage.read_manifest(p.with_name("x")),
        "vocab.txt": Vocabulary.load,
        "corpus.jsonl": load_articles_jsonl,
    }
    return {name: ((root / name).read_bytes(), read)
            for name, read in readers.items()}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("samples")
    return root, _write_samples(root)


@pytest.mark.parametrize("name", ["m.plmb", "m.idx", "c.plmc", "a.tsv",
                                  "x.manifest.json", "vocab.txt",
                                  "corpus.jsonl"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reader_returns_or_refuses_truncated_and_corrupt_files(samples, name,
                                                               data):
    root, files = samples
    raw, read = files[name]
    read(root / name)  # the unmutated file reads
    raw = raw[:data.draw(st.integers(0, len(raw)), label="kept")]
    corrupt = bytearray(raw)
    if corrupt:
        edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                             st.integers(0, 255)),
                                   max_size=4), label="edits")
        for at, value in edits:
            corrupt[at] = value
    path = root / "mutated" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(bytes(corrupt))
    try:
        read(path)
    except ValidationError:
        pass


HAND_MADE = {
    "plmb of 0xFFFFFFFF rows and dims": (
        "m.plmb", b"PLMB" + _u32(1, 0xFFFFFFFF, 0xFFFFFFFF)),
    "plmc with non-UTF-8 metadata": (
        "c.plmc", b"PLMC" + _u32(1, 2) + b"\xff\xfe" + _u32(0)),
    "plmc section of shape (0xFFFFFFFF, 0xFFFFFFFF)": (
        "c.plmc", b"PLMC" + _u32(1, 0, 1, 1) + b"w"
        + _u32(2, 0xFFFFFFFF, 0xFFFFFFFF)),
    "plmc metadata that is not an object": (
        "c.plmc", b"PLMC" + _u32(1, 2) + b"[]" + _u32(0)),
    "non-integer action": ("a.tsv", b"a\t1 x 2\n"),
    "non-integer sentence index": ("m.idx", b"a\tx\n"),
    "manifest that is not JSON": ("x.manifest.json", b"{"),
    "manifest without inputs": (
        "x.manifest.json", b'{"config_digest": "0", "subcommand": "embed"}'),
    "corpus record that is not an object": ("corpus.jsonl", b"[1, 2]\n"),
    "vocabulary that is not UTF-8": ("vocab.txt", b"<unk>\n<bos>\n\xff\n"),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_reader_refuses_hand_made_corrupt_file(samples, case):
    root, files = samples
    name, raw = HAND_MADE[case]
    path = root / "hand" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(raw)
    with pytest.raises(ValidationError, match="hand"):
        files[name][1](path)


def test_manifest_inputs_are_keyed_by_file_name(tmp_path):
    artifact = tmp_path / "out.plmb"
    source = tmp_path / "in.plmb"
    storage.write_matrix(source, np.eye(2))
    artifact.write_bytes(b"")
    storage.write_manifest(artifact, "cluster", "0123", 0, [source], 0.1)
    inputs = storage.read_manifest(artifact)["inputs"]
    assert inputs == {"in.plmb": storage.file_sha256(source)}
