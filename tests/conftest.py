import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from coalseek.corpus import random_quadratic_game
from coalseek.expr import evaluate, parse
from coalseek.game import Coalition, Game, infer_interference_graph
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


def ring_game(agents=40, coalitions=4):
    """Rings of the benchmark generator's form: agent (i, j) reads its ring
    neighbors and agent j of the next coalition."""
    m = agents // coalitions
    out = []
    for i in range(1, coalitions + 1):
        nxt = i % coalitions + 1
        costs = []
        for j in range(1, m + 1):
            prev, succ = (j - 2) % m + 1, j % m + 1
            costs.append(parse(
                f"5*x{i}_{j}^2 + 0.5*x{i}_{j} + 0.2*x{i}_{j}*(x{i}_{prev} + x{i}_{succ})"
                f" + 0.03*x{i}_{j}*x{nxt}_{j}"
            ))
        ring = infer_interference_graph(costs, i)
        out.append(Coalition(tuple(costs), (1.0,) * m, ring, ring))
    return Game(tuple(out))


STATIONARY_SECOND = np.array([49.0, 14.0, 7.0, 0.0, 98.0, 0.0, 0.0, 0.0, 0.0, 0.0])


# Tree-walk references: the compiled kernel (``Game.kernel``) serves every
# production evaluation, and ``expr.evaluate`` is its independent reference.


def assignment(game, x):
    """The variable environment ``expr.evaluate`` reads for profile ``x``."""
    return dict(zip(game.var_names, np.asarray(x, dtype=float).tolist()))


def tree_walk_partials(game, x):
    """Flat partial vector in slot order, evaluated by walking each tree."""
    env = assignment(game, x)
    return np.array([evaluate(e, env) for e in game.partials.values()])


def tree_walk_pseudo_gradient(game, x):
    """Pseudo-gradient as per-block sums, in member order, of the tree-walked
    partials; blocks are in profile order."""
    pvec = tree_walk_partials(game, x).tolist()
    return np.array([sum(pvec[b.start : b.stop]) for b in game.layout.blocks])


# The seeker's right-hand side and estimates, as the tests read them.


def rhs_arrays(seeker, x, w):
    """Time derivatives ``(dx, dw)`` of the dynamics at actions ``x`` and
    auxiliary vector ``w``."""
    dz = seeker._rhs(np.concatenate((x, w)))
    n = seeker.game.n_actions
    return dz[:n], dz[n:]


def rhs(seeker, state):
    return rhs_arrays(seeker, state.x, state.w)


def estimates(seeker, state):
    """Estimate ``w + cost partial`` of every stored index (i, j, k)."""
    flat = state.w + seeker.partial_vector(state.x)
    return {key: float(flat[slot]) for key, slot in seeker.layout.slots.items()}


def bench_generators():
    """The benchmark's document generators, ``bench/generators.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("_bench_generators", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
