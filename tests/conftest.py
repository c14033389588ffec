import numpy as np
import pytest

from coalseek.corpus import random_quadratic_game
from coalseek.expr import evaluate
from coalseek.scenario import load_scenario


@pytest.fixture(scope="session")
def example2():
    return load_scenario("example2")


@pytest.fixture(scope="session")
def example2_game(example2):
    return example2.game


@pytest.fixture(scope="session")
def congestion_demo():
    return load_scenario("congestion-demo")


@pytest.fixture(scope="session")
def fig1_demo():
    return load_scenario("coalition1-fig1")


@pytest.fixture(scope="session")
def quadratic_corpus():
    """20 strongly monotone quadratic games with pinned seeds."""
    rng = np.random.default_rng(20240517)
    return [random_quadratic_game(rng) for _ in range(20)]


STATIONARY_SECOND = np.array([49.0, 14.0, 7.0, 0.0, 98.0, 0.0, 0.0, 0.0, 0.0, 0.0])


# Tree-walk references: the compiled kernel (``Game.kernel``) serves every
# production evaluation, and ``expr.evaluate`` is its independent reference.


def assignment(game, x):
    """The variable environment ``expr.evaluate`` reads for profile ``x``."""
    return dict(zip(game.var_names, np.asarray(x, dtype=float).tolist()))


def tree_walk_partials(game, x):
    """Flat partial vector in slot order, evaluated by walking each tree."""
    env = assignment(game, x)
    return np.array([evaluate(e, env) for e in game.layout.partial_exprs()])


def tree_walk_pseudo_gradient(game, x):
    """Pseudo-gradient as per-block sums, in member order, of the tree-walked
    partials; blocks are in profile order."""
    pvec = tree_walk_partials(game, x).tolist()
    return np.array([sum(pvec[b.start : b.stop]) for b in game.layout.blocks])
