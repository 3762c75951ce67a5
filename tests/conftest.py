import numpy as np
import pytest

from randhelm import DGSpace, PenaltySet, build_uniform_mesh


@pytest.fixture(scope="session")
def mesh4():
    return build_uniform_mesh(4)


@pytest.fixture(scope="session")
def space4(mesh4):
    return DGSpace(mesh4, degree=1)


@pytest.fixture(scope="session")
def penalties():
    return PenaltySet()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def nan_substitutions(monkeypatch):
    """`install(module, is_nan)` replaces `module.lu_factorize` by one whose
    factors substitute NaN for every solution of a right-hand side b with
    is_nan(b), below `lu_solve` and its finiteness check."""

    class NaNSolves:
        def __init__(self, lu, is_nan):
            self.lu, self.is_nan, self.shape = lu, is_nan, lu.shape

        def solve(self, b):
            x = self.lu.solve(b)
            return np.full_like(x, np.nan) if self.is_nan(b) else x

    def install(module, is_nan):
        factorize = module.lu_factorize

        def nan_factorize(A, counters=None):
            return NaNSolves(factorize(A, counters), is_nan)

        monkeypatch.setattr(module, "lu_factorize", nan_factorize)

    return install
