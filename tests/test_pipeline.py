from planlm.lm import REGIMES, Regime
from planlm.pipeline import (checkpoint_name, generations_name, lm_name,
                             regime_key)


def every_regime():
    yield from (Regime.named(key) for key in REGIMES)


def test_artifact_names_unchanged_for_every_regime():
    # the on-disk names that earlier run directories hold
    for regime in every_regime():
        if regime.style == "insert":
            key = f"insert_{regime.locus}_{regime.actions}"
        else:
            key = regime.actions
        assert regime_key(regime) == key
        assert checkpoint_name(regime) == f"lm_{key}.plmc"
        assert generations_name(regime) == f"generations_{key}.jsonl"
    assert [checkpoint_name(r) for r in every_regime()][5:] == [
        "lm_insert_internal_oracle.plmc",
        "lm_insert_external_predicted_pa.plmc"]
    assert len(list(every_regime())) == 7


def test_unconditioned_regime_is_scored_with_the_base_lm():
    assert lm_name(Regime("none")) == "base_lm.plmc"
    assert lm_name(Regime("fixed")) == "lm_fixed.plmc"
    assert lm_name(Regime("oracle", style="insert", locus="internal")) == \
        "lm_insert_internal_oracle.plmc"
