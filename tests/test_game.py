import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.corpus import random_quadratic_game
from coalseek.expr import DomainError, differentiate, evaluate, parse, render
from coalseek.game import (
    Coalition,
    FlowAgent,
    Game,
    GameError,
    action_name,
    build_congestion_game,
    coalition_cost,
    infer_interference_graph,
    pseudo_gradient,
    split_action_name,
)
from coalseek.graphs import Graph
from coalseek.scenario import load_scenario
from conftest import (
    STATIONARY_SECOND,
    assignment,
    tree_walk_partials,
    tree_walk_pseudo_gradient,
)


def test_action_name_round_trip():
    assert split_action_name(action_name(3, 12)) == (3, 12)
    assert split_action_name("x0_1") is None
    assert split_action_name("y1_2") is None


# --- interference inference ---------------------------------------------------


def test_inference_four_agent_coalition():
    costs = [
        parse("x1_1 + x1_2 + x1_4 + x2_1"),
        parse("x1_1*x1_2*x1_3*x1_4"),
        parse("x1_2 + x1_3"),
        parse("x1_1 + x1_2 + x1_4"),
    ]
    g = infer_interference_graph(costs, 1)
    assert g.edge_pairs() == ((1, 2), (1, 4), (2, 3), (2, 4))


def test_inference_example2_coalition2_is_complete(example2_game):
    costs = example2_game.coalitions[1].costs
    g = infer_interference_graph(costs, 2)
    assert g.edge_pairs() == ((1, 2), (1, 3), (2, 3))


def test_inference_single_agent():
    g = infer_interference_graph([parse("x1_1^2")], 1)
    assert g.vertices == (1,)
    assert g.edges == ()


def test_inference_is_symmetric_and_loop_free():
    # one-directional dependence still induces the undirected edge
    costs = [parse("x1_1 + x1_2"), parse("x1_2^2")]
    g = infer_interference_graph(costs, 1)
    assert g.edge_pairs() == ((1, 2),)
    assert all(j != l for j, l in g.edge_pairs())


# --- construction validation -----------------------------------------------------


def test_game_rejects_undeclared_dependency():
    costs = (parse("x1_1 + x1_2"), parse("x1_2^2"))
    empty = Graph.build([1, 2])
    with pytest.raises(GameError, match="interference graph"):
        Game(
            coalitions=(
                Coalition(costs=costs, dbar=(1.0, 1.0), comm=empty, interference=empty),
            )
        )


def test_replaced_costs_are_read_again(fig1_demo):
    """``dataclasses.replace`` of the costs derives the names they read
    afresh, so the interference check sees the new dependence."""
    coalition = fig1_demo.game.coalitions[0]
    assert (1, 3) not in coalition.interference.edge_pairs()
    costs = (parse("x1_1^2 + x1_1*x1_3"),) + coalition.costs[1:]
    replaced = dataclasses.replace(coalition, costs=costs)
    assert replaced.reads[0] == {"x1_1", "x1_3"}
    assert replaced.reads[1:] == coalition.reads[1:]
    with pytest.raises(
        GameError,
        match=re.escape(
            "cost of agent (1,1) depends on x1_3 but the interference graph "
            "of coalition 1 has no edge (1,3)"
        ),
    ):
        Game(coalitions=(replaced, *fig1_demo.game.coalitions[1:]), delta=1.0)

    # So are the templates its derivatives are built from: four costs of one
    # template, replaced by four of other forms, are each differentiated as
    # they are, and no later one is built from the first's template.
    same = [f"{j + 1.5}*(x1_{j} - {j + 0.5})^2 + 0.1*x1_{j}*x1_{k}" for j, k in ((1, 2), (2, 3), (3, 2), (4, 1))]
    mixed = ["x1_1^2 + x1_1*x1_2", "(x1_2 - 1)^3 + 2.5*x1_2*x1_3", "exp(x1_3) + x1_2/x1_3", "(x1_4 - x1_1)^2"]
    one_form = dataclasses.replace(coalition, costs=tuple(map(parse, same)))
    assert len(set(Game(coalitions=(one_form,)).templates)) == 1
    game = Game(coalitions=(dataclasses.replace(one_form, costs=tuple(map(parse, mixed))),))
    for (i, j, k), partial in game.partials.items():
        assert repr(partial) == repr(differentiate(parse(mixed[j - 1]), f"x1_{k}"))


def test_game_rejects_unknown_action():
    costs = (parse("x1_1 + x9_9"),)
    trivial = Graph.build([1])
    with pytest.raises(GameError, match="unknown action"):
        Game(coalitions=(Coalition(costs, (1.0,), trivial, trivial),))


def test_game_rejects_bad_gain():
    trivial = Graph.build([1])
    with pytest.raises(GameError, match="positive"):
        Game(coalitions=(Coalition((parse("x1_1^2"),), (0.0,), trivial, trivial),))


# --- pseudo-gradient ----------------------------------------------------------------


def test_pseudo_gradient_vanishes_at_both_stationary_points(example2_game):
    assert np.abs(pseudo_gradient(example2_game, np.zeros(10))).max() == 0.0
    assert np.abs(pseudo_gradient(example2_game, STATIONARY_SECOND)).max() == 0.0


def test_pseudo_gradient_single_agent():
    trivial = Graph.build([1])
    g = Game(coalitions=(Coalition((parse("(x1_1 - 3)^2"),), (1.0,), trivial, trivial),))
    assert pseudo_gradient(g, np.zeros(1))[0] == -6.0


def test_restricted_sum_equals_full_sum(example2_game):
    # components summed over the closed neighborhood match the sum over the
    # whole coalition: the omitted partial derivatives are identically zero
    from coalseek.expr import differentiate

    game = example2_game
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-2, 2, game.n_actions)
        env = assignment(game, x)
        restricted = pseudo_gradient(game, x)
        full = np.zeros(game.n_actions)
        for i, c in enumerate(game.coalitions, start=1):
            for k in range(1, c.m + 1):
                acc = 0.0
                for j in range(1, c.m + 1):
                    acc += evaluate(differentiate(c.costs[j - 1], action_name(i, k)), env)
                full[game.action_index(i, k)] = acc
        assert np.abs(restricted - full).max() <= 1e-12


def test_pseudo_gradient_matches_finite_differences(example2_game):
    game = example2_game
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, game.n_actions)
        p = pseudo_gradient(game, x)
        for i, c in enumerate(game.coalitions, start=1):
            for k in range(1, c.m + 1):
                col = game.action_index(i, k)
                up, down = x.copy(), x.copy()
                up[col] += h
                down[col] -= h
                fd = (coalition_cost(game, i, up) - coalition_cost(game, i, down)) / (2 * h)
                assert abs(p[col] - fd) / max(1.0, abs(p[col])) <= 1e-6


# --- coalition cost -------------------------------------------------------------------


def test_coalition_costs_at_origin(example2_game):
    assert coalition_cost(example2_game, 1, np.zeros(10)) == 0.0
    # sum (-1) + 0 + 0 + 0 + 0 + 1 of the six per-agent values
    assert coalition_cost(example2_game, 3, np.zeros(10)) == 0.0


def test_coalition_cost_additivity(example2_game):
    game = example2_game
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, game.n_actions)
    env = assignment(game, x)
    for i, c in enumerate(game.coalitions, start=1):
        total = sum(evaluate(f, env) for f in c.costs)
        assert coalition_cost(game, i, x) == pytest.approx(total, rel=0, abs=0)


def test_coalition_cost_domain_error_propagates(congestion_demo):
    game = congestion_demo.game
    x = np.zeros(game.n_actions)
    x[game.action_index(1, 1)] = -1.0  # log barrier pole
    with pytest.raises(DomainError):
        coalition_cost(game, 1, x)


def test_domain_error_names_the_first_failing_partial():
    # Both costs are finite where x1_1 == x1_2; the partials of the second,
    # (x1_2 - x1_1)^-0.5 / 2 up to sign, are not.
    g = Graph.build([1, 2], [(1, 2)])
    game = Game((Coalition((parse("x1_1^2 + x1_2"), parse("(x1_2 - x1_1)^0.5")), (1.0, 1.0), g, g),))
    message = "pow(0.0, -0.5) left the real domain in the partial of the cost of agent (1,2) in x1_1"
    for kernel in (game.kernel, game.cost_kernel):
        with pytest.raises(DomainError, match=re.escape(message)):
            kernel(np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match=re.escape(message)):
        coalition_cost(game, 1, np.array([1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([1.0, 1e3, 1e100, 1e160, 1e200]),
)
def test_kernel_matches_tree_walk_on_quadratic_games(seed, scale):
    # A quadratic cost has no operation that can fail, so its partials are
    # inside the domain wherever they are finite, whichever evaluator
    # computes them, and a coalition's cost wherever every cost and every
    # partial is.  At large scales a cost can overflow where its partials do
    # not: the costs then leave the domain and the partials stay inside it.
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng).game
    x = scale * rng.uniform(-1.0, 1.0, game.n_actions)
    env = assignment(game, x)
    try:
        costs = [evaluate(f, env) for c in game.coalitions for f in c.costs]
    except DomainError:
        costs = None
    try:
        pvec = tree_walk_partials(game, x)
    except DomainError:
        pvec = None
    offset = 0
    for i, c in enumerate(game.coalitions, start=1):
        if costs is None or pvec is None:
            with pytest.raises(DomainError):
                coalition_cost(game, i, x)
        else:
            assert coalition_cost(game, i, x) == sum(costs[offset : offset + c.m])
        offset += c.m
    if pvec is None:
        with pytest.raises(DomainError):
            pseudo_gradient(game, x)
        return
    # The kernel sums each block with numpy, the reference in member order:
    # they may differ by a few ulp of the block's absolute sum.
    layout = game.layout
    sizes = np.array([b.size for b in layout.blocks])
    tol = sizes * np.spacing(np.add.reduceat(np.abs(pvec), layout.block_starts))
    assert (np.abs(pseudo_gradient(game, x) - tree_walk_pseudo_gradient(game, x)) <= tol).all()


# --- congestion builder ----------------------------------------------------------------


def test_shared_link_cost_shape():
    game = build_congestion_game(
        {"a": 20.0},
        [FlowAgent(1, ("a",), 10.0), FlowAgent(1, ("a",), 10.0)],
        kappa=10.0,
    )
    assert render(game.coalitions[0].costs[0]) == "10/(20 - x1_1 - x1_2) - 10*log(x1_1 + 1)"
    assert render(game.coalitions[0].costs[1]) == "10/(20 - x1_1 - x1_2) - 10*log(x1_2 + 1)"
    assert game.coalitions[0].interference.edge_pairs() == ((1, 2),)


def test_disjoint_links_no_interference():
    game = build_congestion_game(
        {"a": 20.0, "b": 20.0},
        [FlowAgent(1, ("a",), 10.0), FlowAgent(1, ("b",), 10.0)],
        kappa=10.0,
    )
    assert game.coalitions[0].interference.edges == ()


def test_unknown_link_rejected():
    with pytest.raises(GameError, match="unknown link"):
        build_congestion_game({"a": 20.0}, [FlowAgent(1, ("b",), 10.0)], kappa=10.0)


def test_single_agent_stationary_point_matches_bisection():
    game = build_congestion_game({"a": 20.0}, [FlowAgent(1, ("a",), 10.0)], kappa=10.0)

    def slope(x):
        # derivative of 10/(20-x) - 10*log(x+1)
        return 10.0 / (20.0 - x) ** 2 - 10.0 / (x + 1.0)

    lo, hi = 0.0, 19.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    from coalseek.oracle import solve_stationary

    report = solve_stationary(game, np.array([1.0]), tol=1e-12)
    assert report.converged
    assert abs(report.x[0] - root) <= 1e-9


def test_cross_coalition_coupling_allowed():
    game = build_congestion_game(
        {"a": 20.0},
        [FlowAgent(1, ("a",), 10.0), FlowAgent(2, ("a",), 10.0)],
        kappa=10.0,
    )
    assert game.n_coalitions == 2
    assert "x2_1" in render(game.coalitions[0].costs[0])
    # cross-coalition sharing does not create intra-coalition edges
    assert game.coalitions[0].interference.edges == ()


@pytest.mark.parametrize("kernel", ["kernel", "cost_kernel"])
def test_a_game_with_a_compiled_kernel_is_freed_without_the_collector(kernel):
    # The kernel names its outputs through the game's names and slot keys,
    # not through the game, so no cycle holds a dead game.
    game = load_scenario("example2").game
    with pytest.raises(DomainError, match=r"non-finite value in the cost of agent \(1,1\)\Z"):
        getattr(game, kernel)(np.array([np.inf] + [0.0] * 9))
    ref = weakref.ref(game)
    gc.disable()
    try:
        del game
        assert ref() is None
    finally:
        gc.enable()
