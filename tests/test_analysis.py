import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.analysis import (
    build_block_transforms,
    consensus_residual,
    cost_accounting,
    deviation_bounds,
    lyapunov_value,
)
from coalseek.corpus import random_quadratic_game
from coalseek.dynamics import IntegrateParams, Seeker, SeekerState
from coalseek.expr import parse
from coalseek.game import Coalition, Game, Layout
from coalseek.graphs import Graph, orthonormal_complement
from coalseek.scenario import available_presets, load_scenario
from conftest import tree_walk_partials


def _consensus_w(game, x):
    """Auxiliary vector that puts every block exactly at its average."""
    pvec = tree_walk_partials(game, x)
    w = np.zeros(game.layout.size)
    for b in game.layout.blocks:
        seg = slice(b.start, b.stop)
        w[seg] = pvec[seg].mean() - pvec[seg]
    return w


def _random_protocol_state(game, rng, span=2.0):
    """Random x with block-mean-zero w, the manifold the flow lives on."""
    x = rng.uniform(-span, span, game.n_actions)
    w = rng.normal(size=game.layout.size)
    for b in game.layout.blocks:
        seg = slice(b.start, b.stop)
        w[seg] -= w[seg].mean()
    return SeekerState(x, w, 0.0)


# --- block transforms ----------------------------------------------------------------


def test_transforms_solve_block_equations(example2_game):
    transforms = build_block_transforms(example2_game)
    for b in example2_game.layout.blocks:
        tr = transforms[(b.coalition, b.k)]
        dim = b.size - 1
        assert tr.basis.shape == (b.size, dim)
        if dim == 0:
            continue
        a = tr.reduced_laplacian
        assert np.linalg.eigvalsh(a)[0] > 0
        resid = tr.lyapunov_matrix @ a + a @ tr.lyapunov_matrix - np.eye(dim)
        assert np.abs(resid).max() <= 1e-10


def _path_game(weight):
    """One coalition of three agents that all interfere, communicating on the
    path 1-2-3 with edge weights (weight, 1): each of the three blocks holds
    all three agents, and its communication graph is that path, a tree."""
    agents = (1, 2, 3)
    costs = tuple(
        parse(f"x1_{j}^2 + " + " + ".join(f"x1_{j}*x1_{l}" for l in agents if l != j))
        for j in agents
    )
    return Game(
        coalitions=(
            Coalition(
                costs=costs,
                dbar=(1.0, 2.0, 0.5),
                comm=Graph.build(agents, [(1, 2, weight), (2, 3)]),
                interference=Graph.build(agents, [(1, 2), (1, 3), (2, 3)]),
            ),
        )
    )


@pytest.mark.parametrize("weight", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12])
def test_value_on_a_tree_is_its_edge_flow_energy(weight):
    # On a tree, (1/2) g' L^+ g is (1/2) sum_e f_e^2 / w_e, with f_e the sum
    # of the centred estimates on one side of edge e.  The block's condition
    # number kappa comes from its two nonzero Laplacian eigenvalues, whose
    # product is 3 * weight (three times the weighted spanning tree).  The
    # value is good to kappa * eps from the eigenproblem, plus about ten eps
    # of rounding in either sum, which is all there is at kappa = 3.
    game = _path_game(weight)
    transforms = build_block_transforms(game)
    lam_max = weight + 1.0 + math.sqrt(weight * weight - weight + 1.0)
    kappa = lam_max * lam_max / (3.0 * weight)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    for _ in range(20):
        x_star = rng.uniform(-2.0, 2.0, 3)
        state = SeekerState(rng.uniform(-2.0, 2.0, 3), rng.normal(size=game.layout.size), 0.0)
        g = state.w + tree_walk_partials(game, state.x)
        expected = 0.0
        for b, d, diff in zip(game.layout.blocks, game.coalitions[0].dbar, state.x - x_star):
            assert b.members == (1, 2, 3)
            c = g[b.start : b.stop] - g[b.start : b.stop].mean()
            expected += 0.5 * (c[0] * c[0] / weight + c[2] * c[2])
            expected += 0.5 * (3 / d) * diff * diff
        got = lyapunov_value(game, state, x_star, transforms)
        assert abs(got - expected) <= (kappa + 10.0) * eps * expected


@pytest.mark.parametrize("weight", [1e-300, 1e300])
def test_an_unresolved_block_spectrum_is_named(weight):
    with pytest.raises(ValueError, match=r"block \(1,[123]\): its Laplacian has eigenvalues "):
        build_block_transforms(_path_game(weight))


# --- consensus residual ----------------------------------------------------------------


def test_consensus_state_has_zero_residual(example2_game):
    x = np.zeros(10)
    state = SeekerState(x, _consensus_w(example2_game, x), 0.0)
    for record in consensus_residual(example2_game, state).values():
        assert record.gbar_norm <= 1e-12
        assert record.mean_identity_error <= 1e-12


def test_initial_state_has_positive_residual(example2_game):
    state = SeekerState(np.zeros(10), np.zeros(36), 0.0)
    records = consensus_residual(example2_game, state)
    # block (3,1) holds partials (-1, 0, 0, 1): disagreement must show
    assert records[(3, 1)].gbar_norm > 0.1
    # the mean identity holds regardless (w sums to zero per block)
    assert all(r.mean_identity_error <= 1e-12 for r in records.values())


def test_converged_run_reaches_consensus(example2):
    import dataclasses

    seeker = Seeker(example2.game)
    # run past the preset horizon so the slow coordinates settle fully
    params = dataclasses.replace(example2.params, step=0.01, horizon=400.0)
    traj = seeker.integrate(example2.initial_state(seeker), params)
    assert traj.gbar_norm[-1] <= 1e-6


# --- deviation bound -------------------------------------------------------------------


def test_deviation_zero_at_consensus(example2_game):
    x = np.full(10, 0.3)
    state = SeekerState(x, _consensus_w(example2_game, x), 0.0)
    deviation, bound = deviation_bounds(example2_game, state)
    for slot in range(example2_game.layout.size):
        assert deviation[slot] <= 1e-12
        assert bound[slot] <= 1e-12


def test_two_agent_bound_is_tight():
    gi = Graph.build([1, 2], [(1, 2)])
    game = Game(
        coalitions=(
            Coalition(
                costs=(parse("2*x1_1 + x1_2"), parse("5*x1_1 + x1_2^2")),
                dbar=(1.0, 1.0),
                comm=gi,
                interference=gi,
            ),
        )
    )
    state = SeekerState(np.zeros(2), np.zeros(game.layout.size), 0.0)
    deviation, bound = deviation_bounds(game, state)
    for slot in range(game.layout.size):
        # dimension-2 blocks attain equality: |g - avg| = |gbar| / sqrt(2)
        assert deviation[slot] == pytest.approx(bound[slot], rel=1e-12, abs=1e-15)


def test_deviation_bound_on_random_states(example2_game):
    rng = np.random.default_rng(11)
    for _ in range(100):
        state = _random_protocol_state(example2_game, rng)
        deviation, bound = deviation_bounds(example2_game, state)
        for slot in range(example2_game.layout.size):
            assert deviation[slot] <= bound[slot] * (1 + 1e-12) + 1e-12


# --- one disagreement measure -------------------------------------------------------------


def _dense_records(game, state):
    """Reference: the consensus and deviation records from a dense
    Householder basis of each block's disagreement subspace."""
    pvec = game.kernel(game.as_profile(state.x))
    consensus, deviation = {}, {}
    for b in game.layout.blocks:
        seg = slice(b.start, b.stop)
        g, partials = state.w[seg] + pvec[seg], pvec[seg]
        basis = orthonormal_complement(b.size)
        gbar_norm = float(np.linalg.norm(basis.T @ g))
        avg = partials.sum() / b.size
        consensus[(b.coalition, b.k)] = (gbar_norm, float(abs(g.mean() - avg)))
        for pos, j in enumerate(b.members):
            beta = float(np.linalg.norm(basis[pos]))
            deviation[(b.coalition, j, b.k)] = (float(abs(g[pos] - avg)), beta * gbar_norm)
    return consensus, deviation


def _check_against_dense(game, state):
    consensus, deviation = _dense_records(game, state)
    pvec = game.kernel(game.as_profile(state.x))
    scale = 1.0 + float(np.abs(state.w + pvec).max())
    got = consensus_residual(game, state)
    assert list(got) == list(consensus)
    for key, record in got.items():
        ref_norm, ref_error = consensus[key]
        assert abs(record.gbar_norm - ref_norm) <= 1e-12 * scale
        assert abs(record.mean_identity_error - ref_error) <= 1e-12 * scale
    got_dev, got_bound = deviation_bounds(game, state)
    assert list(game.layout.keys) == list(deviation)
    for slot, key in enumerate(game.layout.keys):
        ref_dev, ref_bound = deviation[key]
        assert abs(got_dev[slot] - ref_dev) <= 1e-12 * scale
        assert abs(got_bound[slot] - ref_bound) <= 1e-12 * scale
    # A singleton block has no disagreement, and its bound is exactly 0.
    for b in game.layout.blocks:
        if b.size == 1:
            assert got_bound[game.layout.slots[(b.coalition, b.k, b.k)]] == 0.0
            assert consensus_residual(game, state)[(b.coalition, b.k)].gbar_norm == 0.0


@pytest.mark.parametrize(
    "preset, lo, hi",
    [("example2", -2.0, 2.0), ("coalition1-fig1", -2.0, 2.0), ("congestion-demo", 0.0, 1.0)],
)
def test_records_match_dense_basis_on_presets(preset, lo, hi):
    game = load_scenario(preset).game
    rng = np.random.default_rng(606)
    for _ in range(20):
        x = rng.uniform(lo, hi, game.n_actions)
        w = rng.normal(scale=rng.uniform(0.1, 3.0), size=game.layout.size)
        _check_against_dense(game, SeekerState(x, w, 0.0))
        _check_against_dense(game, _random_protocol_state(game, rng, span=hi))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_records_match_dense_basis_on_quadratic_games(seed):
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng, max_coalitions=3, max_agents=7).game
    x = rng.uniform(-3.0, 3.0, game.n_actions)
    w = rng.normal(scale=rng.uniform(0.1, 10.0), size=game.layout.size)
    _check_against_dense(game, SeekerState(x, w, 0.0))
    _check_against_dense(game, SeekerState(x, np.zeros(game.layout.size), 0.0))


# --- lyapunov value ---------------------------------------------------------------------


def test_value_zero_at_equilibrium_consensus(example2_game):
    transforms = build_block_transforms(example2_game)
    x_star = np.zeros(10)
    state = SeekerState(x_star, _consensus_w(example2_game, x_star), 0.0)
    assert lyapunov_value(example2_game, state, x_star, transforms) <= 1e-20


def test_value_unit_deviation():
    gi = Graph.build([1, 2], [(1, 2)])
    game = Game(
        coalitions=(
            Coalition(
                costs=(parse("x1_1^2 + x1_2"), parse("x1_2^2 + x1_1")),
                dbar=(1.0, 1.0),
                comm=gi,
                interference=gi,
            ),
        )
    )
    transforms = build_block_transforms(game)
    x_star = np.array([0.0, 0.0])
    x = np.array([1.0, 0.0])  # unit deviation in the first coordinate
    state = SeekerState(x, _consensus_w(game, x), 0.0)
    # consensus kills the disagreement part; blocks have 2 members and
    # unit gains, so V = (1/2) * 2 * 1
    assert lyapunov_value(game, state, x_star, transforms) == pytest.approx(1.0, abs=1e-12)


def test_value_positive_off_reference(example2_game):
    transforms = build_block_transforms(example2_game)
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = _random_protocol_state(example2_game, rng)
        v = lyapunov_value(example2_game, state, np.zeros(10), transforms)
        assert v > 0


def test_error_norm_tail_non_increasing(example2):
    # the stacked (disagreement, distance-to-reference) norm settles
    # monotonically once the transient has passed
    seeker = Seeker(example2.game)
    traj = seeker.integrate(
        example2.initial_state(seeker),
        IntegrateParams(step=0.01, horizon=200.0, record_stride=200, stop_tol=None),
    )
    x_star = np.array(example2.x_star)
    dist = np.linalg.norm(traj.states - x_star, axis=1)
    chi = np.sqrt(traj.gbar_norm**2 + dist**2)
    tail = chi[-max(2, len(chi) // 10) :]
    assert np.all(np.diff(tail) <= 1e-12)


def test_value_decreases_on_monotone_game(quadratic_corpus):
    sample = quadratic_corpus[1]
    import dataclasses

    game = dataclasses.replace(sample.game, delta=0.01)
    transforms = build_block_transforms(game)
    x_star = sample.equilibrium()
    seeker = Seeker(game)
    params = IntegrateParams(
        step=0.05,
        horizon=40.0,
        record_stride=10,
        stop_tol=None,
        lyapunov=lambda s: lyapunov_value(game, s, x_star, transforms),
    )
    rng = np.random.default_rng(9)
    traj = seeker.integrate(seeker.initial_state(rng.uniform(-2, 2, game.n_actions)), params)
    diffs = np.diff(traj.lyapunov)
    assert np.all(diffs <= 1e-12)


# --- cost accounting ----------------------------------------------------------------------


def test_costs_coalition3(example2_game):
    report = cost_accounting(example2_game)
    by_agent = {(a.coalition, a.agent): a for a in report.agents}
    assert by_agent[(3, 1)].aux_baseline == 12
    assert by_agent[(3, 1)].aux_proposed == 8
    assert by_agent[(3, 1)].dropped == (4, 5)
    assert by_agent[(3, 4)].aux_proposed == 6
    assert by_agent[(3, 4)].dropped == (1, 5, 6)
    assert by_agent[(3, 5)].aux_proposed == 6
    assert by_agent[(3, 5)].dropped == (1, 4, 6)
    assert by_agent[(3, 6)].aux_proposed == 8
    assert by_agent[(3, 6)].dropped == (4, 5)


def test_costs_complete_interference_halves_traffic():
    k3 = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    game = Game(
        coalitions=(
            Coalition(
                costs=(
                    parse("x1_1*x1_2*x1_3"),
                    parse("x1_1 + x1_2 + x1_3"),
                    parse("(x1_1 - x1_3)^2 + x1_2"),
                ),
                dbar=(1.0, 1.0, 1.0),
                comm=k3,
                interference=k3,
            ),
        )
    )
    report = cost_accounting(game)
    for a in report.agents:
        assert a.aux_proposed == a.aux_baseline
        assert a.tx_proposed == a.tx_baseline
        assert a.dropped == ()


def test_costs_baseline_is_the_complete_interference_layout(quadratic_corpus):
    # The baseline is the same game with every interference graph complete:
    # per agent, a pair per slot it holds and one estimate per block edge it
    # heads in that game's layout.
    games = [load_scenario(name).game for name in available_presets()]
    for game in games + [sample.game for sample in quadratic_corpus]:
        coalitions = []
        for c in game.coalitions:
            every_pair = itertools.combinations(c.comm.vertices, 2)
            coalitions.append(
                dataclasses.replace(c, interference=Graph.build(c.comm.vertices, every_pair))
            )
        complete = Layout(tuple(coalitions))
        held = np.bincount(complete.owner, minlength=game.n_actions)
        sent = np.bincount(complete.owner[complete.edges[0]], minlength=game.n_actions)
        report = cost_accounting(game)
        assert [a.aux_baseline for a in report.agents] == (2 * held).tolist()
        assert [a.tx_baseline for a in report.agents] == sent.tolist()


def test_costs_never_exceed_baseline(quadratic_corpus):
    for sample in quadratic_corpus:
        report = cost_accounting(sample.game)
        complete = True
        for a in report.agents:
            assert a.aux_proposed <= a.aux_baseline
            m = sample.game.coalitions[a.coalition - 1].m
            if a.aux_proposed < a.aux_baseline:
                complete = False
        for i, c in enumerate(sample.game.coalitions, start=1):
            full_edges = c.m * (c.m - 1) // 2
            if len(c.interference.edges) < full_edges:
                assert any(
                    a.aux_proposed < a.aux_baseline
                    for a in report.agents
                    if a.coalition == i
                )


def test_report_renderers(example2_game):
    report = cost_accounting(example2_game)
    text = report.render_text()
    assert "dropped" in text and "(3,4)" in text
    kv = report.render_kv()
    assert "agent.3_4.dropped=1,5,6" in kv
    assert f"total.aux_proposed={report.totals()[0]}" in kv
