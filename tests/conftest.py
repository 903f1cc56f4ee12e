import numpy as np
import pytest

from peridyn import analysis
from peridyn import quadrature as quad


@pytest.fixture(autouse=True)
def no_kept_rule():
    """Each test starts with no record kept by its thread (see
    :func:`peridyn.analysis._kept`), so a test that patches the rule
    builders reaches them whatever ran before it."""
    analysis._KEPT.record = None


@pytest.fixture(scope="session")
def ball_rule():
    return quad.build_ball_rule()


@pytest.fixture(scope="session")
def split_rule_z():
    return quad.build_split_ball_rule(np.array([0.0, 0.0, 1.0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
