"""Run configuration: one flat dataclass, `key = value` text files, a digest.

Every pipeline artifact records the digest of the configuration that produced
it, so downstream commands can refuse mixed inputs. Paths are deliberately not
part of the configuration (and so not of the digest): the same experiment in
two directories is the same experiment. Neither is the action regime, which
each command takes as a flag, so one run directory holds every regime.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError, parsing


# The least value of each count; smaller ones crash or act silently.
_LEAST_VALUES = {"vocab_size": 3, "ngram_order": 1, "k": 1,
                 "kmeans_max_iters": 1, "lm_dim": 1, "lm_batch": 1,
                 "planner_batch": 1, "pretrain_epochs": 1,
                 "finetune_epochs": 1, "planner_epochs": 1,
                 "planner_patience": 1, "finetune_patience": 1,
                 "context_window": 2, "edit_base_len": 1, "top_k": 0,
                 "eval_articles": 0, "hmm_states": 1, "hmm_iters": 1,
                 "scan_articles": 0, "noise_variants": 0}
# Learning rates must be positive; `not rate > 0` refuses nan too.
_POSITIVE_RATES = ("planner_lr", "lm_lr")


@dataclass
class RunConfig:
    # master seed: shuffles, parameter inits, sampling
    seed: int = 0

    # corpus
    n_val: int = 100
    n_test: int = 100
    vocab_size: int = 8192

    # encoder (frozen; its identity is the projection seed)
    encoder_dim: int = 256
    ngram_order: int = 3
    hash_buckets: int = 262144
    projection_seed: int = 0

    # actions (paper-scale default for k is 1024; the desk config uses 8)
    k: int = 64
    kmeans_max_iters: int = 300

    # planner
    planner_layers: int = 2
    planner_heads: int = 4
    planner_context: int = 64
    planner_batch: int = 32
    planner_lr: float = 1e-4
    planner_epochs: int = 20
    planner_patience: int = 3
    planner_arch: str = "transformer"      # "mlp" drops per-sentence encoding
    planner_head_init: str = "centroids"   # "random" drops the centroid init

    # language model
    lm_dim: int = 256
    lm_layers: int = 4
    lm_heads: int = 4
    context_window: int = 128
    lm_batch: int = 32
    lm_lr: float = 1e-4
    pretrain_epochs: int = 4
    finetune_epochs: int = 6
    finetune_patience: int = 3
    adapted_layers: int = 2                # L; default lm_layers / 2
    adapter_init: str = "centroids"        # "random" drops the centroid init
    share_adapter_tables: bool = False

    # generation + evaluation
    gen_max_tokens: int = 128
    temperature: float = 1.0
    top_k: int = 40
    lengths: list[int] = field(default_factory=lambda: [32, 64, 128])
    edit_base_len: int = 32
    eval_articles: int = 50
    hmm_states: int = 16
    hmm_iters: int = 100
    scan_articles: int = 20
    noise_variants: int = 0                # 0: use k variants in the noise scan

    def validate(self) -> None:
        if self.adapted_layers < 1 or self.adapted_layers > self.lm_layers:
            raise ValidationError(
                f"adapted_layers={self.adapted_layers} out of range "
                f"[1, {self.lm_layers}]")
        for name, least in _LEAST_VALUES.items():
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}, got "
                                      f"{getattr(self, name)}")
        for name in _POSITIVE_RATES:
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0, got "
                                      f"{getattr(self, name)}")
        if not self.lengths:
            raise ValidationError("lengths grid must be non-empty")
        if min(self.lengths) < 1:
            raise ValidationError(f"lengths must be >= 1, got "
                                  f"{min(self.lengths)}")
        if self.gen_max_tokens < max(self.lengths):
            raise ValidationError(
                "gen_max_tokens must cover the largest evaluation length")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    kind = _FIELDS[name].type
    raw = raw.strip()
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ValidationError(f"{name}: expected true/false, got {raw!r}")
        return raw == "true"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "list[int]":
            return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"{name}: expected {kind}, got {raw!r}") from None
    return raw


def to_text(config: RunConfig) -> str:
    lines = [f"{name} = {_format_value(getattr(config, name))}"
             for name in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(to_text(config).encode("utf-8")).hexdigest()[:16]


def apply_overrides(config: RunConfig, overrides: dict[str, str]) -> RunConfig:
    updated = dataclasses.replace(config)
    for name, raw in overrides.items():
        if name not in _FIELDS:
            raise ValidationError(f"unknown config key {name!r}")
        setattr(updated, name, _parse_value(name, raw))
    return updated


def parse_text(text: str) -> RunConfig:
    overrides: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValidationError(f"line {lineno}: expected `key = value`")
        key = key.strip()
        if key in overrides:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = value
    return apply_overrides(RunConfig(), overrides)


def load_config(path: Path) -> RunConfig:
    with parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_text(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_config(config: RunConfig, path: Path) -> None:
    Path(path).write_text(to_text(config), encoding="utf-8")
