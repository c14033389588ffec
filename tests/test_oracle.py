import numpy as np

from coalseek.expr import parse
from coalseek.game import Coalition, Game, pseudo_gradient
from coalseek.graphs import Graph
from coalseek.oracle import (
    _jacobian_function,
    check_monotonicity,
    gradient_check,
    solve_stationary,
    verify_nash,
)
from conftest import STATIONARY_SECOND


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
        jacobian = _jacobian_function(game)
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
    compiled = _jacobian_function(example2_game)(x0)
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
