import pytest

from planlm.config import (RunConfig, apply_overrides, config_digest,
                           load_config, parse_text, save_config, to_text)
from planlm.errors import ValidationError


def test_text_round_trip(tmp_path):
    config = RunConfig(seed=3, k=16, planner_lr=5e-4, lengths=[8, 16],
                       share_adapter_tables=True)
    path = tmp_path / "config.txt"
    save_config(config, path)
    assert load_config(path) == config


def test_digest_stable_and_sensitive():
    a, b = RunConfig(), RunConfig()
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(RunConfig(k=32))


def test_default_config_digest_is_unchanged():
    # run directories pinned by earlier versions stay valid
    assert config_digest(RunConfig()) == "5a9a3a3008634457"


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="bogus"):
        apply_overrides(RunConfig(), {"bogus": "1"})
    with pytest.raises(ValidationError):
        parse_text("not a key value line\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_text("k = 4\nk = 5\n")


def test_bool_and_list_parsing():
    config = parse_text("share_adapter_tables = true\nlengths = 8,16,32\n")
    assert config.share_adapter_tables is True
    assert config.lengths == [8, 16, 32]
    with pytest.raises(ValidationError):
        parse_text("share_adapter_tables = yes\n")


def test_validation_bounds():
    with pytest.raises(ValidationError):
        RunConfig(adapted_layers=9).validate()
    with pytest.raises(ValidationError):
        RunConfig(gen_max_tokens=8, lengths=[16]).validate()
    RunConfig().validate()


def test_comments_and_blank_lines_ignored():
    config = parse_text("# a comment\n\nk = 12\n")
    assert config.k == 12
    assert "k = 12" in to_text(config)
