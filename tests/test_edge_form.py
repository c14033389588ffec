"""The consensus operator runs over block edges, never as a dense matrix.

Each check pins the edge-form kernels of ``Seeker`` to a reference assembled
here from the per-block definitions: the block Laplacians, per-block sums of
tree-walked partials, a per-block residual loop and the traffic count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.analysis import cost_accounting
from coalseek.corpus import random_containment_pair, random_quadratic_game
from coalseek.dynamics import IntegrateParams, Seeker
from coalseek.expr import Binary, Const, Var
from coalseek.game import (
    Coalition,
    FlowAgent,
    Game,
    Layout,
    action_name,
    build_congestion_game,
    pseudo_gradient,
)
from coalseek.graphs import Graph, interference_to_k_graph
from coalseek.scenario import parse_scenario
from conftest import bench_generators, rhs_arrays, tree_walk_pseudo_gradient


def _congestion_network():
    rng = np.random.default_rng(7)
    links = {f"l{t}": 40.0 for t in range(6)}
    agents = [
        FlowAgent(1 + a % 2, tuple(f"l{int(t)}" for t in rng.choice(6, 2, replace=False)), 5.0)
        for a in range(10)
    ]
    return build_congestion_game(links, agents, kappa=2.0)


@pytest.fixture(scope="module")
def games(example2, congestion_demo, fig1_demo):
    return {
        "example2": example2.game,
        "congestion-demo": congestion_demo.game,
        "coalition1-fig1": fig1_demo.game,
        "network": _congestion_network(),
    }


def _dense_laplacian(game):
    layout = game.layout
    dense = np.zeros((layout.size, layout.size))
    for b in layout.blocks:
        dense[b.start : b.stop, b.start : b.stop] = layout.block_laplacians[(b.coalition, b.k)]
    return dense


def _loop_residuals(game, g):
    return np.array(
        [
            np.linalg.norm(g[b.start : b.stop] - g[b.start : b.stop].mean())
            for b in game.layout.blocks
            if b.size > 1
        ]
    )


def _check_operators(game, rng, span):
    seeker = Seeker(game)
    layout = game.layout
    x = rng.uniform(-span, span, game.n_actions)
    w = rng.normal(size=layout.size)
    pvec = seeker.partial_vector(x)
    g = w + pvec

    dense = _dense_laplacian(game)
    _, dw = rhs_arrays(seeker, x, w)
    scale = max(1.0, np.abs(dense).sum(axis=1).max() * np.abs(g).max())
    assert np.abs(dw + dense @ g).max() <= 1e-12 * scale

    reference = tree_walk_pseudo_gradient(game, x)
    pg = pseudo_gradient(game, x)
    assert np.abs(pg - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
    assert np.array_equal(pg, np.add.reduceat(pvec, layout.block_starts))

    resid = seeker.block_residuals(g)
    assert resid.shape == (sum(b.size > 1 for b in layout.blocks),)
    assert np.allclose(resid, _loop_residuals(game, g), rtol=1e-12, atol=1e-12)

    head, tail, weight = layout.edges
    assert len(head) == len(tail) == len(weight) == cost_accounting(game).totals()[2]
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == len(head)


def _edges_by_sorting(layout):
    """Reference for ``Layout.edges``: each block's directed communication
    edges, from its graph's edge list, sorted by head slot then tail slot."""
    out = []
    for b in layout.blocks:
        slot_of = {j: b.start + pos for pos, j in enumerate(b.members)}
        edges = layout.coalitions[b.coalition - 1].comm.edges
        both = [(j, l, w) for j, l, w in edges] + [(l, j, w) for j, l, w in edges]
        out += sorted((slot_of[j], slot_of[l], w) for j, l, w in both if j in slot_of and l in slot_of)
    head, tail, weight = zip(*out) if out else ((), (), ())
    return np.array(head, dtype=np.intp), np.array(tail, dtype=np.intp), np.array(weight, dtype=float)


def _assert_edges_pinned(layout):
    for got, want in zip(layout.edges, _edges_by_sorting(layout)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["example2", "congestion-demo", "coalition1-fig1", "network"])
def test_layout_edges_are_the_sorted_block_edges(games, name):
    _assert_edges_pinned(games[name].layout)


def test_layout_edges_of_the_congestion_net_are_the_sorted_block_edges():
    _assert_edges_pinned(parse_scenario(bench_generators().congestion_network(5)).game.layout)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_layout_edges_of_containment_pairs_are_the_sorted_block_edges(seed, sizes):
    rng = np.random.default_rng(seed)
    coalitions = []
    for m in sizes:
        interference, comm = random_containment_pair(rng, m)
        weighted = Graph.build(comm.vertices, [(j, l, rng.uniform(0.5, 2.0)) for j, l in comm.edge_pairs()])
        coalitions.append(Coalition((Const(0.0),) * m, (1.0,) * m, weighted, interference))
    _assert_edges_pinned(Layout(coalitions))


@pytest.mark.parametrize("name", ["example2", "congestion-demo", "coalition1-fig1", "network"])
def test_edge_form_matches_dense_reference(games, name):
    span = 0.5 if name in ("congestion-demo", "network") else 2.0
    _check_operators(games[name], np.random.default_rng(3), span)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_edge_form_matches_dense_reference_on_quadratic_games(seed):
    rng = np.random.default_rng(seed)
    sample = random_quadratic_game(rng, max_coalitions=3, max_agents=6)
    _check_operators(sample.game, rng, 3.0)


def _ring_game(m):
    """One coalition on a ring: every block has three members."""
    costs = []
    for j in range(1, m + 1):
        own = Var(action_name(1, j))
        right = Var(action_name(1, j % m + 1))
        quad = Binary("pow", Binary("sub", own, Const(1.0)), Const(2.0))
        costs.append(Binary("add", quad, Binary("mul", Const(0.1), Binary("mul", own, right))))
    ring = Graph.build(range(1, m + 1), [(j, j % m + 1) for j in range(1, m + 1)])
    return Game(coalitions=(Coalition(tuple(costs), (1.0,) * m, ring, ring),), delta=1.0)


def _graph_loop_accounting(game):
    """Reference: per-agent slot pairs, traffic and dropped components from
    each component's neighborhood communication graph, built one by one."""
    out = []
    for i, c in enumerate(game.coalitions, start=1):
        for j in range(1, c.m + 1):
            hood = set(c.interference.neighbors(j)) | {j}
            tx = 0
            for k in sorted(hood):
                sub = interference_to_k_graph(c.comm, c.interference, k)
                if j in sub.vertices:
                    tx += sub.degree(j)
            dropped = tuple(k for k in range(1, c.m + 1) if k not in hood)
            out.append((i, j, 2 * len(hood), tx, dropped))
    return out


@pytest.mark.parametrize(
    "name", ["example2", "congestion-demo", "coalition1-fig1", "network", "ring"]
)
def test_cost_accounting_matches_neighborhood_graphs(games, name):
    game = _ring_game(1000) if name == "ring" else games[name]
    report = cost_accounting(game)
    got = [(a.coalition, a.agent, a.aux_proposed, a.tx_proposed, a.dropped) for a in report.agents]
    assert got == _graph_loop_accounting(game)
    assert all(type(v) is int for a in report.agents for v in (a.aux_proposed, a.tx_proposed))


def _arrays(obj, depth=0, seen=None):
    seen = set() if seen is None else seen
    if id(obj) in seen or depth > 3:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v, depth + 1, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v, depth + 1, seen)
    elif type(obj).__module__.startswith("coalseek") and hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from _arrays(v, depth + 1, seen)


def test_thousand_agent_ring_holds_no_dense_operator():
    game = _ring_game(1000)
    game.partials  # the symbolic partials belong to the game
    tracemalloc.start()
    try:
        seeker = Seeker(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Four shapes cover all 4000 kernel outputs, so the build emits no
    # per-expression code; straight-line code for all of them takes 15 MiB.
    assert peak <= 4 * 2**20
    size = seeker.layout.size
    assert size == 3000
    traj = seeker.integrate(
        seeker.initial_state(np.zeros(1000)),
        IntegrateParams(step=0.05, horizon=0.2, record_stride=2, stop_tol=None),
    )
    assert traj.steps == 4
    head = seeker.layout.edges[0]
    assert len(head) == 4000  # four directed edges per three-member block
    # The dense forms held size**2 and n * size entries.
    assert max(a.size for a in _arrays(seeker)) <= len(head)
