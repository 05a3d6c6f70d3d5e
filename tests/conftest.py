import numpy as np
import planlm.autodiff as ad
import pytest


@pytest.fixture(autouse=True)
def _debug_checks():
    ad.DEBUG_CHECKS = True
    yield
    ad.DEBUG_CHECKS = False


class _NoNormalDraws(np.random.Generator):
    def normal(self, *args, **kwargs):
        raise AssertionError("drew random values only to overwrite them")


@pytest.fixture
def no_normal_draws(monkeypatch):
    """Every generator that `np.random.default_rng` makes from now on raises
    on `normal` (`Generator.normal` itself cannot be patched: the type is
    immutable)."""
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _NoNormalDraws(np.random.PCG64(seed)))
