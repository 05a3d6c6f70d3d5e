from planlm.lm import LOCI, REGIMES, Regime
from planlm.pipeline import checkpoint_name, generations_name, lm_name


def every_regime():
    yield from (Regime(a) for a in REGIMES)
    yield from (Regime(a, style="insert", locus=locus)
                for locus in LOCI for a in REGIMES)


def test_artifact_names_unchanged_for_every_regime():
    # the on-disk names that earlier run directories hold
    for regime in every_regime():
        if regime.style == "insert":
            key = f"insert_{regime.locus}_{regime.actions}"
        else:
            key = regime.actions
        assert checkpoint_name(regime) == f"lm_{key}.plmc"
        assert generations_name(regime) == f"generations_{key}.jsonl"
    assert len(list(every_regime())) == 15


def test_unconditioned_regime_is_scored_with_the_base_lm():
    assert lm_name(Regime("none")) == "base_lm.plmc"
    assert lm_name(Regime("fixed")) == "lm_fixed.plmc"
    assert lm_name(Regime("none", style="insert", locus="internal")) == \
        "lm_insert_internal_none.plmc"
