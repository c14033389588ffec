import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek import oracle
from coalseek.corpus import random_quadratic_game
from coalseek.expr import DomainError, free_variables, parse
from coalseek.game import (
    Coalition,
    FlowAgent,
    Game,
    build_congestion_game,
    pseudo_gradient,
)
from coalseek.graphs import Graph
from coalseek.oracle import (
    _jacobian_function,
    check_monotonicity,
    gradient_check,
    solve_stationary,
    verify_nash,
)
from coalseek.scenario import load_scenario
from conftest import STATIONARY_SECOND, ring_game


def _quadratic_single(cost="(x1_1 - 3)^2"):
    trivial = Graph.build([1])
    return Game(coalitions=(Coalition((parse(cost),), (1.0,), trivial, trivial),))


# --- solve_stationary ------------------------------------------------------------


def test_newton_finds_second_stationary_point(example2_game):
    x0 = np.array([48.0, 14.0, 7.0, 0.0, 97.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    report = solve_stationary(example2_game, x0, tol=1e-10)
    assert report.converged
    assert report.residual <= 1e-9
    assert np.abs(report.x - STATIONARY_SECOND).max() <= 1e-7


def test_newton_finds_origin(example2_game):
    report = solve_stationary(example2_game, 0.1 * np.ones(10), tol=1e-10)
    assert report.converged
    assert np.abs(report.x).max() <= 1e-8


def test_newton_exact_on_quadratics(quadratic_corpus):
    for sample in quadratic_corpus[:8]:
        x_star = sample.equilibrium()
        report = solve_stationary(sample.game, np.zeros(sample.game.n_actions), tol=1e-12)
        assert report.converged
        assert report.iterations <= 2  # affine map: one Newton step suffices
        assert np.abs(report.x - x_star).max() <= 1e-10


def _dense_jacobian(game):
    """The compiled Jacobian's triplets as a function of the profile that
    returns the dense matrix."""
    rows, cols, values = _jacobian_function(game)

    def jacobian(x):
        jac = np.zeros((game.n_actions, game.n_actions))
        jac[rows, cols] = values(x)
        return jac

    return jacobian


def _central_difference_jacobian(game, x, h=1e-6):
    n = game.n_actions
    jac = np.empty((n, n))
    for col in range(n):
        up, down = x.copy(), x.copy()
        up[col] += h
        down[col] -= h
        jac[:, col] = (pseudo_gradient(game, up) - pseudo_gradient(game, down)) / (2.0 * h)
    return jac


def test_newton_fd_jacobian_agrees(
    example2_game, congestion_demo, quadratic_corpus
):
    rng = np.random.default_rng(12)
    cases = [(example2_game, 2.0), (congestion_demo.game, 0.5)]
    cases += [(sample.game, 3.0) for sample in quadratic_corpus[:5]]
    for game, span in cases:
        jacobian = _dense_jacobian(game)
        for _ in range(5):
            x = rng.uniform(-span, span, game.n_actions)
            compiled = jacobian(x)
            fd = _central_difference_jacobian(game, x)
            assert np.abs(compiled - fd).max() <= 1e-8 * max(1.0, np.abs(compiled).max())



def test_newton_fd_singular_at_cancellation_scale(example2_game):
    # at x31 = 97 the exp terms (~1e42) absorb every finite difference, so the
    # central-difference row of x31's agent degenerates; the compiled Jacobian
    # keeps that row, and Newton from there converges
    x0 = np.array([48.0, 14.0, 7.0, 0.0, 97.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    fd = _central_difference_jacobian(example2_game, x0)
    assert (fd[4] == 0.0).all()
    assert np.linalg.matrix_rank(fd) == example2_game.n_actions - 1
    compiled = _dense_jacobian(example2_game)(x0)
    assert np.isfinite(compiled).all()
    assert np.linalg.matrix_rank(compiled) == example2_game.n_actions
    report = solve_stationary(example2_game, x0, tol=1e-8)
    assert report.converged
    assert report.message == ""

def test_newton_singular_jacobian_reported():
    game = _quadratic_single("x1_1^3")  # P = 3 x^2, jacobian 6x vanishes at 0
    report = solve_stationary(game, np.array([0.0]), tol=1e-12)
    assert not report.converged or report.residual <= 1e-12
    assert report.message in ("singular jacobian", "")


def test_newton_singular_jacobian_at_a_start_reported():
    # P = 3 x^2 - 1 has the jacobian 6 x, which vanishes at the start 0.
    report = solve_stationary(_quadratic_single("x1_1^3 - x1_1"), np.array([0.0]))
    assert (report.converged, report.iterations, report.message) == (False, 0, "singular jacobian")
    # P = (x1 + x2 - 1, x1 + x2 + 1): a rank-one jacobian, with no solution.
    game = _one_agent_coalitions("0.5*x1_1^2 + x1_1*x2_1 - x1_1", "0.5*x2_1^2 + x1_1*x2_1 + x2_1")
    report = solve_stationary(game, np.zeros(2))
    assert (report.converged, report.iterations, report.message) == (False, 0, "singular jacobian")


def _dense_step(rows, cols, vals, b):
    """The Newton step by a dense LU solve of the densified triplets: the
    reference for the GMRES step."""
    jac = np.zeros((b.size, b.size))
    jac[rows, cols] = vals
    try:
        return np.linalg.solve(jac, b)
    except np.linalg.LinAlgError:
        return None


def _assert_newton_matches_dense(game, x0, tol=1e-10, atol=1e-10):
    got = solve_stationary(game, x0, tol=tol)
    with mock.patch.object(oracle, "_gmres", _dense_step):
        want = solve_stationary(game, x0, tol=tol)
    assert (got.iterations, got.converged, got.message) == (want.iterations, want.converged, want.message)
    assert np.abs(got.x - want.x).max() <= atol
    return got


def test_newton_gmres_matches_dense_on_presets(example2, congestion_demo, fig1_demo):
    starts = [(s.game, np.array(s.initial_x)) for s in (example2, congestion_demo, fig1_demo)]
    starts += [
        (example2.game, np.array([48.0, 14.0, 7.0, 0.0, 97.0, 0.0, 0.0, 0.0, 0.0, 0.0])),
        (example2.game, 0.1 * np.ones(10)),
    ]
    for game, x0 in starts:
        assert _assert_newton_matches_dense(game, x0).converged


def test_newton_gmres_matches_dense_on_a_congestion_network():
    paths = {(i, j): (f"c{i}_{j // 2}", f"s{j}", f"s{j % 6 + 1}") for i in (1, 2, 3) for j in range(1, 7)}
    agents = [FlowAgent(i, path, 2.0) for (i, _), path in paths.items()]
    links = {name: 20.0 for a in agents for name in a.path}
    game = build_congestion_game(links, agents, kappa=5.0)
    assert _assert_newton_matches_dense(game, np.full(game.n_actions, 0.5)).iterations >= 3


def test_newton_gmres_matches_dense_where_the_jacobian_is_singular():
    _assert_newton_matches_dense(_quadratic_single("x1_1^3 - x1_1"), np.array([0.0]))
    game = _one_agent_coalitions("0.5*x1_1^2 + x1_1*x2_1 - x1_1", "0.5*x2_1^2 + x1_1*x2_1 + x2_1")
    _assert_newton_matches_dense(game, np.zeros(2))


def test_newton_gmres_matches_dense_where_the_jacobian_is_ill_conditioned():
    # J = [[1, 1], [1, 1 + 1e-6]], b = (1, 0): the step is about (1e6, -1e6),
    # and the endpoint is determined only to kappa(J) * eps * |x|, about 9e-4.
    game = _one_agent_coalitions("0.5*x1_1^2 + x1_1*x2_1 - x1_1", "0.5000005*x2_1^2 + x1_1*x2_1")
    report = _assert_newton_matches_dense(game, np.zeros(2), atol=1e-3)
    assert report.converged and report.iterations == 1


def test_newton_gmres_step_below_its_tolerance_is_taken():
    # J = [[1, 1], [1, 1 + 1e-8]]: rounding in b - J s (about eps * |J| * |s|,
    # 4e-8) keeps every GMRES iterate above its tolerance.  The best one is
    # the step, and Newton converges, at most one iteration behind the dense
    # solve, to an endpoint within kappa(J) * eps * |x|.
    game = _one_agent_coalitions("0.5*x1_1^2 + x1_1*x2_1 - x1_1", "0.500000005*x2_1^2 + x1_1*x2_1")
    got = solve_stationary(game, np.zeros(2))
    with mock.patch.object(oracle, "_gmres", _dense_step):
        want = solve_stationary(game, np.zeros(2))
    assert (got.converged, got.message) == (want.converged, want.message) == (True, "")
    assert want.iterations <= got.iterations <= want.iterations + 1
    kappa = np.linalg.cond(_dense_jacobian(game)(np.zeros(2)))
    assert np.abs(got.x - want.x).max() <= kappa * np.finfo(float).eps * np.abs(want.x).max()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_newton_gmres_matches_dense_on_quadratic_games(seed):
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng).game
    assert _assert_newton_matches_dense(game, rng.uniform(-3.0, 3.0, game.n_actions)).converged


def test_newton_on_a_thousand_agent_ring_holds_no_dense_jacobian():
    game = ring_game(agents=1000)  # the benchmark's form, four rings of 250
    game.partials  # the symbolic partials belong to the game
    tracemalloc.start()
    try:
        report = solve_stationary(game, np.zeros(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations == 1
    # A dense 1000 x 1000 jacobian alone takes 7.6 MiB.
    assert peak <= 4 * 2**20


def test_newton_runtime_under_one_second(example2_game):
    import time

    start = time.perf_counter()
    solve_stationary(example2_game, np.array([48.0, 14, 7, 0, 97, 0, 0, 0, 0, 0]))
    assert time.perf_counter() - start < 1.0


# --- verify_nash -------------------------------------------------------------------


def test_origin_locally_consistent(example2_game):
    report = verify_nash(example2_game, np.zeros(10), radius=0.5, samples_per_coalition=200, seed=1)
    assert report.consistent
    assert report.worst_decrease <= 1e-9


def test_minimum_consistent_interior_point_not():
    game = _quadratic_single()
    good = verify_nash(game, np.array([3.0]), radius=1.0, seed=0)
    assert good.consistent
    bad = verify_nash(game, np.array([0.0]), radius=1.0, seed=0)
    assert not bad.consistent
    assert bad.witness_coalition == 1
    assert bad.worst_decrease > 0


def test_quadratic_equilibrium_consistent(quadratic_corpus):
    sample = quadratic_corpus[0]
    report = verify_nash(sample.game, sample.equilibrium(), radius=0.3, seed=5)
    assert report.consistent


def test_nash_domain_errors_counted(congestion_demo):
    game = congestion_demo.game
    x = np.full(game.n_actions, 0.05)  # radius reaches past the log wall
    report = verify_nash(game, x, radius=2.0, samples_per_coalition=300, seed=3)
    assert report.domain_errors > 0


# --- check_monotonicity ---------------------------------------------------------------


def test_stationary_pair_is_violation_witness(example2_game):
    report = check_monotonicity(
        example2_game,
        -2.0,
        2.0,
        pairs=100,
        seed=0,
        extra_pairs=[(np.zeros(10), STATIONARY_SECOND)],
    )
    assert not report.passed
    assert report.min_inner == 0.0
    assert report.witness is not None


def test_identity_quadratic_passes():
    game = _quadratic_single("x1_1^2")
    report = check_monotonicity(game, -5.0, 5.0, pairs=200, seed=1)
    assert report.passed
    assert report.min_inner > 0


def test_random_monotone_games_pass(quadratic_corpus):
    for sample in quadratic_corpus[:6]:
        n = sample.game.n_actions
        report = check_monotonicity(sample.game, -3.0, 3.0, pairs=100, seed=7)
        assert report.passed, f"violation on a strongly monotone game (n={n})"


# --- gradient_check -------------------------------------------------------------------


def test_gradient_check_example2(example2_game):
    rng = np.random.default_rng(11)
    for _ in range(20):
        err = gradient_check(example2_game, rng.uniform(-2, 2, 10))
        assert err <= 1e-6


def test_gradient_check_polynomial_tight():
    game = _quadratic_single("(x1_1 - 1)^2")
    assert gradient_check(game, np.array([0.25])) <= 1e-10


def test_gradient_check_near_capacity(congestion_demo):
    game = congestion_demo.game
    # push one shared link close to saturation: finite, flagged-large error ok
    x = np.full(game.n_actions, 0.1)
    x[game.action_index(1, 1)] = 13.0
    x[game.action_index(3, 1)] = 6.0  # load on the shared link ~19.2 of 20
    err = gradient_check(game, x)
    assert np.isfinite(err)
    assert err <= 1e-3


# --- the colored audit against the column-by-column one ----------------------------------


def _column_audit(game, x, h=1e-6):
    """The gradient audit column by column, two cost-kernel calls per action
    column: the reference the colored audit must equal."""
    x = game.as_profile(x)
    sym = game.kernel(x)
    worst = 0.0
    # Block ``col`` holds the partials d f_ij / d x_col over its members j.
    for col, b in enumerate(game.layout.blocks):
        agents = [game.action_index(b.coalition, j) for j in b.members]
        xp, xm = x.copy(), x.copy()
        xp[col] += h
        xm[col] -= h
        up = game.cost_kernel(xp)[agents]
        down = game.cost_kernel(xm)[agents]
        fd = (up - down) / (2.0 * h)
        s = sym[b.start : b.stop]
        worst = max(worst, float((np.abs(s - fd) / np.maximum(1.0, np.abs(s))).max()))
    return worst


def _outcome(audit, game, x):
    """The audit's bits, or the message of the DomainError it raises."""
    try:
        return audit(game, x).hex()
    except DomainError as err:
        return f"DomainError: {err}"


def _assert_same_audit(game, points):
    """Equal bits or the same DomainError at every point; the number of
    points outside the domain."""
    outside = 0
    for x in points:
        expected = _outcome(_column_audit, game, x)
        assert _outcome(gradient_check, game, x) == expected, x
        outside += expected.startswith("DomainError")
    return outside


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([1.0, 10.0, 1e100, 1e160]),
)
def test_colored_audit_matches_columns_on_quadratic_games(seed, scale):
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng).game
    _assert_same_audit(game, [scale * rng.uniform(-1.0, 1.0, game.n_actions) for _ in range(3)])


@pytest.mark.parametrize("fixture", ["example2", "congestion_demo", "fig1_demo"])
def test_colored_audit_matches_columns_on_presets(fixture, request):
    scenario = request.getfixturevalue(fixture)
    game = scenario.game
    rng = np.random.default_rng(31)
    base = np.array(scenario.initial_x)
    points = [base + rng.uniform(-0.5, 0.5, game.n_actions) for _ in range(10)]
    if fixture == "congestion_demo":
        # One flow a step from its log wall at -1: the column calls that
        # cross it fail, the others do not.
        for t in range(6):
            x = base + rng.uniform(0.0, 0.5, game.n_actions)
            x[t] = -1.0 + (t - 2) * 4e-7
            points.append(x)
    outside = _assert_same_audit(game, points)
    assert outside == (5 if fixture == "congestion_demo" else 0)


def test_colored_audit_matches_columns_on_a_congestion_network():
    paths = {(i, j): (f"c{i}_{j // 2}", f"s{j}", f"s{j % 6 + 1}") for i in (1, 2, 3) for j in range(1, 7)}
    agents = [FlowAgent(i, path, 2.0) for (i, _), path in paths.items()]
    links = {name: 20.0 for a in agents for name in a.path}
    game = build_congestion_game(links, agents, kappa=5.0)
    rng = np.random.default_rng(8)
    points = [rng.uniform(-0.5, 3.0, game.n_actions) for _ in range(10)]
    # Link c1_1 carries flows (1,2) and (1,3).  At a load of exactly its
    # capacity every kernel fails; a step below it, the column call that
    # moves flow (1,2) up to it fails; half a step above, no call meets it.
    for load in (20.0, 20.0 - 1e-6, 20.0 + 5e-7):
        x = np.full(game.n_actions, 0.5)
        x[game.action_index(1, 2)] = load - 0.5
        points.append(x)
    assert _assert_same_audit(game, points) == 2


def _one_agent_coalitions(*costs):
    trivial = Graph.build([1])
    return Game(tuple(Coalition((parse(cost),), (1.0,), trivial, trivial) for cost in costs))


def test_colored_audit_matches_columns_at_a_guard_wall():
    # log(x2_1) in the cost of agent (1,1) has no partial: only a guard of
    # the partials kernel and the cost kernel see its wall at 0.
    game = _one_agent_coalitions("(x1_1 - 1)^2 + log(x2_1)", "(x2_1 + 1)^2")
    rng = np.random.default_rng(5)
    points = [0.5 + rng.uniform(-0.5, 0.5, 2) for _ in range(20)]
    points += [np.array([0.5, k * 5e-7]) for k in range(-1, 5)]
    assert _assert_same_audit(game, points) == 4


def test_colored_audit_matches_columns_where_one_cost_reads_every_column():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    complete = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    costs = [
        "(x1_1 - 1)^2 + x1_1*x1_2*x2_1 + x2_2*x2_3 + log(x1_3 + 2)",
        "(x1_2 + 1)^2 + x1_1*x1_2 + x1_2*x1_3",
        "x1_3^4 + x1_2*x1_3",
    ]
    other = ["(x2_1 - 0.5)^2 + x2_1*x2_2", "exp(x2_2) + x2_2*x2_3", "(x2_3 - 2)^2 + x2_2*x2_3"]
    game = Game(
        (
            Coalition(tuple(map(parse, costs)), (1.0,) * 3, complete, complete),
            Coalition(tuple(map(parse, other)), (1.0,) * 3, g, g),
        )
    )
    assert game.audit_plan.colors.max() + 1 == game.n_actions
    rng = np.random.default_rng(2)
    points = [rng.uniform(-1.0, 1.0, game.n_actions) for _ in range(10)]
    points.append(np.array([0.0, 0.0, -2.0 + 5e-7, 0.0, 0.0, 0.0]))
    assert _assert_same_audit(game, points) == 1


def test_colored_audit_matches_columns_on_an_interference_edge_no_cost_reads():
    # The partial of the cost of (1,1) in x1_2 is stored and zero.  Its
    # cost reads x1_1, so x1_1 and x1_2 must not share a class, though no
    # cost reads both.
    g = Graph.build([1, 2], [(1, 2)])
    game = Game(
        (
            Coalition((parse("x1_1^3 + x2_1^2"), parse("x1_2^2")), (1.0, 1.0), g, g),
            Coalition((parse("(x2_1 - 1)^2"),), (1.0,), Graph.build([1]), Graph.build([1])),
        )
    )
    assert game.audit_plan.colors.tolist() == [0, 1, 2]
    rng = np.random.default_rng(4)
    _assert_same_audit(game, [rng.uniform(-2.0, 2.0, 3) for _ in range(5)])


def test_colored_audit_matches_columns_where_a_cost_fails_only_at_the_start():
    # The cost of agent (1,1) overflows quietly to inf at x1_1 = 1 and is
    # finite, with finite partials, a step off it, so the partials kernel
    # returns there.  Alone, both column calls return: the cost kernel at
    # the start fails, and the audit reruns column by column to return too.
    # With x2_1 in its class, the column call that moves only x2_1 fails,
    # and only the call at the start sees that.
    cost = "1.7976931348623157e308*(1 + 1e-10*(1 - 2e12*(x1_1 - 1)^2))"
    alone = _one_agent_coalitions(cost)
    x = np.array([1.0])
    with pytest.raises(DomainError):
        alone.cost_kernel(x)
    assert _assert_same_audit(alone, [x, x + 1e-3]) == 0
    paired = _one_agent_coalitions(cost, "(x2_1 - 1)^2")
    assert paired.audit_plan.colors.tolist() == [0, 0]
    assert _assert_same_audit(paired, [np.array([1.0, 0.5]), np.array([1.001, 0.5])]) == 1


# --- the audit's coloring -------------------------------------------------------------


def _assert_plan_partitions(game):
    plan = game.audit_plan
    n, size = game.n_actions, game.layout.size
    colors, slots, at, starts = plan.classes
    assert colors is plan.colors
    assert sorted(set(colors.tolist())) == list(range(starts.size - 1))
    assert sorted(slots.tolist()) == list(range(size))
    layout = game.layout
    for cost, f in enumerate(game.costs):
        # No support (the columns a cost reads and those of its stored
        # partials) holds two columns of one class.
        support = {game.var_index[name] for name in free_variables(f)}
        support |= set(layout.column[layout.owner == cost].tolist())
        assert len(set(colors[sorted(support)].tolist())) == len(support)
    keys = list(layout.slots)
    for c in range(starts.size - 1):
        part = slice(starts[c], starts[c + 1])
        for slot, pos in zip(slots[part].tolist(), at[part].tolist()):
            i, j, k = keys[slot]
            assert colors[game.action_index(i, k)] == c
            assert pos == c * n + game.action_index(i, j)


@pytest.mark.parametrize("preset, classes", [("example2", 10), ("congestion-demo", 6), ("coalition1-fig1", 4)])
def test_audit_plan_colors_presets(preset, classes):
    game = load_scenario(preset).game
    _assert_plan_partitions(game)
    assert game.audit_plan.colors.max() + 1 == classes


def test_audit_plan_colors_a_ring_with_six_classes():
    game = ring_game()
    _assert_plan_partitions(game)
    assert game.audit_plan.colors.max() + 1 == 6
    assert _assert_same_audit(game, [np.random.default_rng(3).uniform(-1.0, 1.0, 40)]) == 0


def test_audit_plan_partitions_quadratic_games(quadratic_corpus):
    for sample in quadratic_corpus:
        _assert_plan_partitions(sample.game)


def test_an_audit_in_the_domain_makes_one_call_per_class_and_sign_and_one_at_x():
    game = load_scenario("congestion-demo").game
    kernel = game.cost_kernel
    calls = []

    def counting(x):
        calls.append(x)
        return kernel(x)

    game.__dict__["cost_kernel"] = counting
    gradient_check(game, np.full(game.n_actions, 0.3))
    assert len(calls) == 1 + 2 * (game.audit_plan.colors.max() + 1) == 13
