"""A game's templated partials and Newton Jacobian terms are compiled from
the rows of its costs' literals and names (``coalseek.rows``): no tree of an
instance is built where vector mode reads the rows, and a domain error
builds the trees it names only when its message is read."""

import functools
import gc

import numpy as np
import pytest

import coalseek.game
import coalseek.oracle
from coalseek import rows
from coalseek.dynamics import Seeker
from coalseek.expr import VECTOR_MIN_INSTANCES, Binary, Const, DomainError, Unary, Var, evaluate, gradient
from coalseek.game import _kernel_label
from coalseek.oracle import _jacobian_exprs, _jacobian_function, _jacobian_rows
from coalseek.scenario import SCHEMA_KEY, load_scenario, parse_scenario
from conftest import bench_generators, ring_game


def _counted_gradient(monkeypatch) -> list:
    """Every tree ``expr.gradient`` runs on, where ``game`` and ``oracle``
    bind it."""
    trees = []

    def counted(e, names):
        trees.append(e)
        return gradient(e, names)

    monkeypatch.setattr(coalseek.game, "differentiate", counted)
    monkeypatch.setattr(coalseek.oracle, "differentiate", counted)
    return trees


def _labels_only(tree) -> bool:
    """Whether every name of ``tree`` is a template's label, not an action."""
    stack = [tree]
    while stack:
        e = stack.pop()
        if isinstance(e, Var) and not e.name.startswith("h"):
            return False
        stack += [getattr(e, a) for a in ("arg", "left", "right") if hasattr(e, a)]
    return True


def test_the_ring_builds_no_tree_of_an_instance(monkeypatch):
    # The benchmark's 1000-agent ring: 1000 costs of 2 templates, every
    # partial and Jacobian entry in vector mode.
    game = parse_scenario(bench_generators().ring_game(5).doc).game
    trees = _counted_gradient(monkeypatch)
    Seeker(game)
    assert "partials" not in vars(game)
    assert len(trees) == 2 and all(map(_labels_only, trees))
    _jacobian_function(game)
    assert "partials" not in vars(game)
    assert len(trees) == 2 + 6 and all(map(_labels_only, trees))


M = 300  # agents of the division ring, more than VECTOR_MIN_INSTANCES


def _division_ring():
    """Agent j pays x_j^2 + c_j x_j / (x_(j+1) + 2): every partial in x_j,
    2 x_j + c_j / (x_(j+1) + 2), is one vector-mode shape with a division."""
    costs = [f"x1_{j}^2 + {0.5 + j % 7}*x1_{j}/(x1_{j % M + 1} + 2)" for j in range(1, M + 1)]
    return parse_scenario({"schema": SCHEMA_KEY, "coalitions": [{"costs": costs}]}).game


def _first_failure(exprs, label, x) -> str:
    """The message of the first expression ``expr.evaluate`` rejects at ``x``."""
    env = dict(zip([f"x1_{j}" for j in range(1, M + 1)], x.tolist()))
    for pos, e in enumerate(exprs):
        try:
            evaluate(e, env)
        except DomainError as err:
            return f"{err} in {label(pos)}"
    raise AssertionError("no expression fails")


@pytest.mark.parametrize("agent", [1, 137, M])
def test_a_vector_mode_domain_error_names_the_first_failure_of_evaluate(monkeypatch, agent):
    game = _division_ring()
    assert VECTOR_MIN_INSTANCES <= M and "_p0" in game.kernel.__globals__
    x = np.ones(M)
    x[agent - 1] = -2.0  # the denominator of the cost of the agent before
    functions = {"kernel": game.kernel, "cost kernel": game.cost_kernel, "jacobian": _jacobian_function(game)[2]}
    builds = []
    build = rows.Template.build
    monkeypatch.setattr(rows.Template, "build", lambda *a: builds.append(a) or build(*a))
    raised = {}
    for name, function in functions.items():
        with pytest.raises(DomainError) as info:
            function(x)
        raised[name] = info.value
    assert builds == []  # no tree is built until a message is read
    messages = {name: str(err) for name, err in raised.items()}
    # The Jacobian sums the terms of one compiled function, whose message built its terms.
    assert builds and "_p0" in functions["jacobian"].args[0].__globals__
    label = functools.partial(_kernel_label, game.var_names, game.layout.keys)
    partials = list(game.partials.values())
    assert messages["kernel"] == _first_failure(list(game.costs) + partials, label, x)
    assert messages["cost kernel"] == messages["kernel"]
    entries = _jacobian_exprs(game)
    positions = list(entries)
    names = game.var_names

    def entry(pos):
        row, col = positions[pos]
        return f"the jacobian entry d/d{names[col]} of component {names[row]}"

    assert messages["jacobian"] == _first_failure(list(entries.values()), entry, x)
    assert messages["kernel"] == f"division by zero in the cost of agent (1,{(agent - 2) % M + 1})"


def test_a_dropped_game_leaves_no_tree_in_cycle_garbage():
    # A compiled function holds the trees its domain errors name; with no
    # reference cycle through its namespace, reference counting frees them
    # with the game, and the collector finds none.
    gc.collect()
    gc.disable()
    try:
        game = ring_game()
        game.kernel, game.cost_kernel, _jacobian_function(game)
        del game
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        nodes = [o for o in gc.garbage if type(o) in (Binary, Unary, Var, Const)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert nodes == []


def test_rows_index_as_a_sequence():
    # A negative position counts from the end, and one out of range raises
    # IndexError, in the rows of the costs, the partials and the Newton
    # terms of the benchmark's ring, whose every expression is templated.
    game = parse_scenario(bench_generators().ring_game(5).doc).game
    for exprs in (game.cost_rows, game.partial_rows, _jacobian_rows(game)[3]):
        n = len(exprs)
        assert exprs[-1] is exprs[n - 1] and exprs[-n] is exprs[0]
        for pos in (n, -n - 1):
            with pytest.raises(IndexError):
                exprs[pos]


@pytest.mark.parametrize("source", ["example2", "ring-sparse"])
def test_rows_slice_as_tuples_of_trees(source):
    # A slice of rows, as of ``rows.Trees``, is a tuple of the trees each
    # position reads.
    doc = bench_generators().ring_game(5).doc if source == "ring-sparse" else None
    game = parse_scenario(doc).game if doc else load_scenario(source).game
    for exprs in (game.cost_rows, game.partial_rows, _jacobian_rows(game)[3], game.costs):
        n = len(exprs)
        for a, b in ((1, 3), (0, 5), (n - 4, n), (3, 3)):
            assert exprs[a:b] == tuple(exprs[i] for i in range(a, b))
        assert exprs[-3:] == tuple(exprs[i] for i in range(n - 3, n))
        assert exprs[5:0:-2] == (exprs[5], exprs[3], exprs[1])


def test_a_game_builds_one_slot_matrix(monkeypatch):
    # ``Game.partial_rows``, ``oracle._jacobian_rows`` and the compiler's
    # vector mode read the slot matrix of the benchmark ring's forms, built
    # once.
    game = parse_scenario(bench_generators().ring_game(5).doc).game
    builds = []
    padded = rows._padded
    monkeypatch.setattr(rows, "_padded", lambda items, values, fill: builds.append(fill) or padded(items, values, fill))
    game.kernel
    _jacobian_function(game)
    assert builds.count(-1) == 1
