"""Binary artifact formats shared across the pipeline.

Matrix files ("PLMB"): magic, u32 version=1, u32 rows, u32 dim, then rows of
little-endian f32. A sidecar index file holds one `article_id<TAB>sentence_index`
line per row.

Checkpoint files ("PLMC"): magic, u32 version=1, u32 metadata length, UTF-8
JSON metadata, u32 section count, then sections of
(u32 name length, name bytes, u32 rank, u32 dims..., f32 little-endian payload).
Section names are stable dotted identifiers such as `planner.w_o` or
`lm.layer3.adapter.e_a`.

Readers refuse a corrupt file with a `ValidationError` naming it; binary
readers check each declared size against the bytes left before reading.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError, parsing

MATRIX_MAGIC = b"PLMB"
CHECKPOINT_MAGIC = b"PLMC"
FORMAT_VERSION = 1


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


def _read_declared(fh, n: int, what: str) -> bytes:
    """`n` declared bytes; checked first, as `fh.read(n)` allocates n."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValidationError(f"{fh.name}: {what} needs {n} bytes, {left} left")
    return fh.read(n)


def _read_u32(fh) -> int:
    return struct.unpack("<I", _read_declared(fh, 4, "a header field"))[0]


# -- matrix format -------------------------------------------------------------


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {matrix.shape}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(_u32(FORMAT_VERSION))
        fh.write(_u32(matrix.shape[0]))
        fh.write(_u32(matrix.shape[1]))
        fh.write(matrix.tobytes())


def read_matrix(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != MATRIX_MAGIC:
            raise ValidationError(f"{path}: not a PLMB matrix file")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        rows, dim = _read_u32(fh), _read_u32(fh)
        data = np.frombuffer(_read_declared(fh, rows * dim * 4, "payload"),
                             dtype="<f4")
    return data.reshape(rows, dim).astype(np.float32)


def write_matrix_index(path: Path, index: list[tuple[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for article_id, sentence_index in index:
            fh.write(f"{article_id}\t{sentence_index}\n")


def read_matrix_index(path: Path) -> list[tuple[str, int]]:
    path = Path(path)
    out = []
    with parsing(path):
        for line in path.read_text(encoding="utf-8").splitlines():
            article_id, _, idx = line.partition("\t")
            out.append((article_id, int(idx)))
    return out


# -- checkpoint format -----------------------------------------------------------


def write_checkpoint(path: Path, sections: dict[str, np.ndarray],
                     meta: dict | None = None) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_u32(FORMAT_VERSION))
        fh.write(_u32(len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(_u32(len(sections)))
        for name, arr in sections.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(_u32(len(name_bytes)))
            fh.write(name_bytes)
            fh.write(_u32(arr.ndim))
            for dim in arr.shape:
                fh.write(_u32(dim))
            fh.write(arr.tobytes())


def read_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValidationError(f"{path}: not a PLMC checkpoint")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        meta_bytes = _read_declared(fh, _read_u32(fh), "metadata")
        with parsing(path):
            meta = json.loads(meta_bytes.decode("utf-8")) if meta_bytes else {}
        if not isinstance(meta, dict):
            raise ValidationError(f"{path}: metadata is not a JSON object")
        count = _read_u32(fh)
        sections: dict[str, np.ndarray] = {}
        for _ in range(count):
            with parsing(path):
                name = _read_declared(fh, _read_u32(fh), "section name"
                                      ).decode("utf-8")
                shape = tuple(_read_u32(fh) for _ in range(_read_u32(fh)))
                data = np.frombuffer(
                    _read_declared(fh, math.prod(shape) * 4, f"section {name}"),
                    dtype="<f4")
                sections[name] = data.reshape(shape).astype(np.float32)
    return sections, meta


# -- action sequence files ---------------------------------------------------------


def write_action_sequences(path: Path, sequences: dict[str, list[int]]) -> None:
    """One line per article: `article_id<TAB>a_0 a_1 ... a_{m-1}`."""
    with open(path, "w", encoding="utf-8") as fh:
        for article_id, actions in sequences.items():
            fh.write(f"{article_id}\t{' '.join(str(a) for a in actions)}\n")


def read_action_sequences(path: Path) -> dict[str, list[int]]:
    path = Path(path)
    out: dict[str, list[int]] = {}
    with parsing(path):
        for line in path.read_text(encoding="utf-8").splitlines():
            article_id, _, rest = line.partition("\t")
            out[article_id] = [int(a) for a in rest.split()]
    return out


# -- manifests -----------------------------------------------------------------------


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(artifact_path: Path, subcommand: str, config_digest: str,
                   seed: int | None, inputs: dict[str, str],
                   wall_time_s: float, extra: dict | None = None) -> Path:
    """`inputs` maps the name of each file the artifact was made from to its
    `file_sha256`."""
    manifest = {
        "artifact": Path(artifact_path).name,
        "subcommand": subcommand,
        "config_digest": config_digest,
        "seed": seed,
        "inputs": inputs,
        "wall_time_s": round(wall_time_s, 3),
        "extra": extra or {},
    }
    out = manifest_path(artifact_path)
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return out


def manifest_path(artifact_path: Path) -> Path:
    p = Path(artifact_path)
    return p.with_name(p.name + ".manifest.json")


def read_manifest(artifact_path: Path) -> dict | None:
    """The manifest beside an artifact or None; `inputs` keys are file names."""
    p = manifest_path(artifact_path)
    if not p.exists():
        return None
    with parsing(p):
        manifest = json.loads(p.read_text(encoding="utf-8"))
    if not (isinstance(manifest, dict)
            and {"config_digest", "subcommand"} <= manifest.keys()
            and isinstance(manifest.get("inputs"), dict)):
        raise ValidationError(f"{p}: not a manifest")
    return manifest
