import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek import dynamics
from coalseek.dynamics import (
    MAX_STEPS,
    _TABLEAUS,
    DomainUnrecoverableError,
    IntegrateParams,
    NonFiniteStateError,
    Seeker,
    SeekerState,
    StepLimitError,
)
from coalseek.corpus import random_quadratic_game
from coalseek.expr import parse
from coalseek.game import Coalition, Game, pseudo_gradient
from coalseek.graphs import Graph
from conftest import assignment, estimates, rhs, tree_walk_partials


def _single_agent_game(cost="(x1_1 - 3)^2", delta=1.0, dbar=1.0):
    trivial = Graph.build([1])
    return Game(
        coalitions=(Coalition((parse(cost),), (dbar,), trivial, trivial),), delta=delta
    )


def _two_agent_game():
    """One coalition, two agents on one unit edge, partials 2 and 5 for k=1."""
    gi = Graph.build([1, 2], [(1, 2)])
    return Game(
        coalitions=(
            Coalition(
                costs=(parse("2*x1_1 + x1_2"), parse("5*x1_1")),
                dbar=(1.0, 1.0),
                comm=gi,
                interference=gi,
            ),
        ),
        delta=1.0,
    )


# --- estimates -----------------------------------------------------------------


def test_estimates_zero_w_are_raw_partials(example2_game):
    seeker = Seeker(example2_game)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 10)
    est = estimates(seeker, seeker.initial_state(x))
    env = assignment(example2_game, x)
    from coalseek.expr import evaluate

    for key, value in est.items():
        assert value == pytest.approx(evaluate(example2_game.partials[key], env), abs=0)


def test_estimates_at_origin(example2_game):
    seeker = Seeker(example2_game)
    est = estimates(seeker, seeker.initial_state(np.zeros(10)))
    assert est[(3, 6, 1)] == 1.0  # d f_36 / d x_31 = exp(0)
    assert est[(3, 1, 1)] == -1.0  # d f_31 / d x_31 = -exp(0) + 0 - 0


def test_singleton_estimate_tracks_partial():
    game = _single_agent_game()
    seeker = Seeker(game)
    state = seeker.initial_state([0.0])
    assert estimates(seeker, state)[(1, 1, 1)] == -6.0
    dx, dw = rhs(seeker, state)
    assert dw.size == 1 and dw[0] == 0.0


# --- right-hand side ---------------------------------------------------------------


def test_rhs_single_agent():
    game = _single_agent_game()
    seeker = Seeker(game)
    dx, dw = rhs(seeker, seeker.initial_state([0.0]))
    assert dx[0] == 6.0
    assert np.all(dw == 0.0)


def test_rhs_consensus_two_agents():
    game = _two_agent_game()
    seeker = Seeker(game)
    state = seeker.initial_state([0.0, 0.0])
    est = estimates(seeker, state)
    assert est[(1, 1, 1)] == 2.0 and est[(1, 2, 1)] == 5.0
    dx, dw = rhs(seeker, state)
    layout = game.layout
    assert dw[layout.slot(1, 1, 1)] == 3.0  # -(2 - 5)
    assert dw[layout.slot(1, 2, 1)] == -3.0  # -(5 - 2)


def test_rhs_block_sums_vanish(example2_game):
    seeker = Seeker(example2_game)
    rng = np.random.default_rng(1)
    state = seeker.initial_state(rng.uniform(-2, 2, 10), rng.normal(size=36))
    _, dw = rhs(seeker, state)
    for b in example2_game.layout.blocks:
        assert abs(dw[b.start : b.stop].sum()) <= 1e-12


def test_rhs_stationarity_characterization():
    # rhs vanishes iff the pseudo-gradient vanishes and each block agrees
    gi = Graph.build([1, 2], [(1, 2)])
    game = Game(
        coalitions=(
            Coalition(
                costs=(parse("(x1_1 - 1)^2 + 0.5*x1_1*x1_2"), parse("(x1_2 + 1)^2 + 0.5*x1_1*x1_2")),
                dbar=(1.0, 1.0),
                comm=gi,
                interference=gi,
            ),
        ),
        delta=0.5,
    )
    seeker = Seeker(game)
    # solve the linear stationarity system: P(x) = 0
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([-2.0, 2.0])
    x_star = np.linalg.solve(m, -b)
    assert np.abs(pseudo_gradient(game, x_star)).max() <= 1e-12
    # consensus w: every estimate equals its block average
    env = assignment(game, x_star)
    from coalseek.expr import evaluate

    w = np.zeros(seeker.layout.size)
    for blk in game.layout.blocks:
        vals = np.array(
            [
                evaluate(game.partials[(blk.coalition, j, blk.k)], env)
                for j in blk.members
            ]
        )
        w[blk.start : blk.stop] = vals.mean() - vals
    state = SeekerState(x_star, w, 0.0)
    dx, dw = rhs(seeker, state)
    assert np.abs(dx).max() <= 1e-12
    assert np.abs(dw).max() <= 1e-12
    # perturbing w off the consensus manifold re-activates the flow
    w2 = w.copy()
    w2[0] += 0.1
    dx2, dw2 = rhs(seeker, SeekerState(x_star, w2, 0.0))
    assert max(np.abs(dx2).max(), np.abs(dw2).max()) > 1e-3


# --- integration ------------------------------------------------------------------


def test_scalar_linear_flow_matches_closed_form():
    game = _single_agent_game(delta=0.5)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([0.0]),
        IntegrateParams(step=1e-3, horizon=20.0, record_stride=1000, stop_tol=None),
    )
    # dx/dt = -(x - 3), so x(t) = 3(1 - e^{-t})
    expected = 3.0 * (1.0 - np.exp(-traj.times))
    assert np.abs(traj.states[:, 0] - expected).max() <= 1e-9
    assert abs(traj.final_x[0] - 3.0) <= 1e-6


def test_rk4_observed_order():
    game = _single_agent_game("(x1_1 - 3)^2 + 0.25*x1_1^2", delta=0.7)
    seeker = Seeker(game)

    def endpoint(h):
        traj = seeker.integrate(
            seeker.initial_state([10.0]),
            IntegrateParams(step=h, horizon=2.0, record_stride=10**6, stop_tol=None),
        )
        return traj.final_x[0]

    fine = endpoint(0.0005)
    err_h = abs(endpoint(0.08) - fine)
    err_h2 = abs(endpoint(0.04) - fine)
    order = np.log2(err_h / err_h2)
    assert order >= 3.5


def test_euler_method_supported():
    game = _single_agent_game(delta=0.5)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([0.0]),
        IntegrateParams(method="euler", step=1e-3, horizon=10.0, record_stride=1000, stop_tol=None),
    )
    assert abs(traj.final_x[0] - 3.0 * (1 - np.exp(-10.0))) <= 1e-3


def test_two_coalition_quadratic_endpoint_matches_linear_solve():
    gi = Graph.build([1, 2], [(1, 2)])
    trivial = Graph.build([1])
    game = Game(
        coalitions=(
            Coalition(
                costs=(
                    parse("(x1_1 - 2)^2 + 0.2*x1_1*x1_2 + 0.1*x1_1*x2_1"),
                    parse("(x1_2 + 1)^2 + 0.2*x1_1*x1_2"),
                ),
                dbar=(1.0, 0.8),
                comm=gi,
                interference=gi,
            ),
            Coalition(
                costs=(parse("(x2_1 - 1)^2 - 0.1*x2_1*x1_1"),),
                dbar=(1.2,),
                comm=trivial,
                interference=trivial,
            ),
        ),
        delta=0.1,
    )
    # stationarity: M x = -b assembled from the quadratic coefficients
    m = np.array([[2.0, 0.4, 0.1], [0.4, 2.0, 0.0], [-0.1, 0.0, 2.0]])
    b = np.array([-4.0, 2.0, -2.0])
    x_star = np.linalg.solve(m, -b)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state(np.zeros(3)),
        IntegrateParams(step=0.02, horizon=600.0, record_stride=500, stop_tol=1e-10),
    )
    assert np.abs(traj.final_x - x_star).max() <= 1e-4


def test_singleton_coalition_reduces_to_plain_descent():
    # a one-agent coalition inside a larger game keeps its auxiliary frozen at
    # zero, so its action follows the raw partial of its own cost
    gi = Graph.build([1, 2], [(1, 2)])
    trivial = Graph.build([1])
    game = Game(
        coalitions=(
            Coalition(
                costs=(parse("(x1_1 - 1)^2 + 0.3*x1_1*x1_2"), parse("(x1_2 - 2)^2")),
                dbar=(1.0, 1.0),
                comm=gi,
                interference=gi,
            ),
            Coalition(
                costs=(parse("(x2_1 + 1)^2 + 0.2*x2_1*x1_1"),),
                dbar=(1.0,),
                comm=trivial,
                interference=trivial,
            ),
        ),
        delta=0.2,
    )
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state(np.zeros(3)),
        IntegrateParams(step=0.02, horizon=30.0, record_stride=50, stop_tol=None, record_w=True),
    )
    slot = game.layout.slot(2, 1, 1)
    assert np.all(traj.w_samples[:, slot] == 0.0)
    # along the run, d x_21 / dt = -delta * d f_21 / d x_21 exactly
    for x, w in zip(traj.states[::5], traj.w_samples[::5]):
        dx, _ = rhs(seeker, SeekerState(x, w, 0.0))
        expected = -0.2 * (2.0 * (x[2] + 1.0) + 0.2 * x[0])
        assert dx[2] == pytest.approx(expected, rel=0, abs=1e-15)


def test_conservation_and_mean_identity(example2):
    seeker = Seeker(example2.game)
    params = IntegrateParams(
        step=0.01, horizon=20.0, record_stride=50, stop_tol=None, record_w=True
    )
    traj = seeker.integrate(example2.initial_state(seeker), params)
    layout = example2.game.layout
    for x, w in zip(traj.states, traj.w_samples):
        pvec = tree_walk_partials(example2.game, x)
        for blk in layout.blocks:
            seg = slice(blk.start, blk.stop)
            assert abs(w[seg].sum()) <= 1e-8
            g = w[seg] + pvec[seg]
            assert abs(g.mean() - pvec[seg].sum() / blk.size) <= 1e-8


def test_early_stop_on_tolerances():
    game = _single_agent_game(delta=0.5)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([0.0]),
        IntegrateParams(step=1e-2, horizon=500.0, record_stride=100, stop_tol=1e-10),
    )
    assert traj.stopped_early
    assert traj.final_time < 500.0
    assert traj.pg_norm[-1] <= 1e-10


def test_domain_exit_step_rejection_recovers():
    # double log barrier on (-1, 2): a coarse step overshoots past a wall,
    # the stage leaves the cost domain, and the halved retry recovers
    game = _single_agent_game("-10*log(2 - x1_1) - 10*log(x1_1 + 1)", delta=1.0)
    seeker = Seeker(game)
    # near the x = 2 wall the slope is ~100, so the first 0.2-steps overshoot
    # out of the domain and must be halved before they commit
    traj = seeker.integrate(
        seeker.initial_state([1.9]),
        IntegrateParams(step=0.2, horizon=30.0, record_stride=10, stop_tol=1e-10),
    )
    assert np.all(traj.states[:, 0] < 2.0)
    assert np.all(traj.states[:, 0] > -1.0)
    # the two barrier slopes balance exactly at the interval midpoint
    assert abs(traj.final_x[0] - 0.5) <= 1e-6


def test_unrecoverable_domain_exit_raises():
    # gradient ascent on a log cost races into the x = -1 wall in finite
    # time; once even the smallest halved step leaves the domain, give up
    game = _single_agent_game("10*log(x1_1 + 1)", delta=1.0)
    seeker = Seeker(game)
    with pytest.raises(DomainUnrecoverableError):
        seeker.integrate(
            seeker.initial_state([-0.5]),
            IntegrateParams(step=1.0, horizon=50.0, record_stride=1, stop_tol=None),
        )


def test_a_step_is_halved_until_accepted():
    # From x1_1 = 2e-16 next to the wall of log(x1_1), every RK4 step longer
    # than about 1e-15 has a stage past the wall: 0.01 is halved 45 times
    # before an attempt is accepted, and the next full step lands.
    game = _single_agent_game("x1_1^2 - log(x1_1)", delta=1.0)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([2e-16]),
        IntegrateParams(step=0.01, horizon=0.01, record_stride=1, stop_tol=None),
    )
    assert (traj.steps, traj.rejected_steps) == (2, 45)
    assert traj.times.tolist() == [0.0, 0.01 / 2**45, 0.01]


def test_a_rejected_landing_step_is_not_stretched_again(monkeypatch):
    # A step of 1e-12 is stretched by less than the landing tolerance to the
    # horizon 1.5e-12, and that attempt leaves the domain.  Its halved retry
    # must not be stretched back to the same attempt; with a cap of 100
    # attempts such a loop would end in StepLimitError.
    monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
    game = _single_agent_game("x1_1^2 - log(x1_1)", delta=1.0)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([2e-16]),
        IntegrateParams(step=1e-12, horizon=1.5e-12, record_stride=1, stop_tol=None),
    )
    assert (traj.steps, traj.rejected_steps) == (2, 12)
    assert traj.times[-1] == 1.5e-12


def test_nonfinite_initial_state_rejected():
    game = _single_agent_game()
    seeker = Seeker(game)
    state = seeker.initial_state([0.0])
    state.x = np.array([np.nan])
    with pytest.raises(NonFiniteStateError):
        seeker.integrate(state, IntegrateParams(horizon=1.0))


def test_strictly_increasing_sample_times(example2):
    seeker = Seeker(example2.game)
    traj = seeker.integrate(
        example2.initial_state(seeker),
        IntegrateParams(step=0.01, horizon=5.0, record_stride=17, stop_tol=None),
    )
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(5.0, abs=1e-9)


def test_csv_round_trip(tmp_path, example2):
    seeker = Seeker(example2.game)
    traj = seeker.integrate(
        example2.initial_state(seeker),
        IntegrateParams(step=0.01, horizon=1.0, record_stride=20, stop_tol=None),
    )
    out = tmp_path / "run.csv"
    traj.write_csv(out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[: 1 + 10] == ["t", *example2.game.var_names]
    assert header[-2:] == ["pgnorm", "gbar_norm"]
    assert len(lines) == 1 + len(traj.times)
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # shortest round-trip decimal formatting reproduces the arrays exactly
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:11], traj.states)


def test_integrate_counts_fixed_steps(example2):
    seeker = Seeker(example2.game)
    traj = seeker.integrate(
        example2.initial_state(seeker),
        IntegrateParams(step=0.01, horizon=0.5, record_stride=10, stop_tol=None),
    )
    assert traj.steps == 50


@pytest.mark.parametrize("method, stages", [("rk4", 4), ("euler", 1), ("dopri5", 6)])
def test_fixed_steps_reuse_the_endpoint_partials(example2, monkeypatch, method, stages):
    # Each step's first stage is the previous endpoint's partials, so N
    # attempts that stay in the domain make stages * N + 1 kernel calls; a
    # dopri5 attempt rejected for its error still evaluates its endpoint.
    game = example2.game
    kernel = game.kernel
    calls = []

    def counting(x):
        calls.append(x)
        return kernel(x)

    monkeypatch.setitem(game.__dict__, "kernel", counting)
    seeker = Seeker(game)
    if method == "dopri5":
        params = IntegrateParams(method=method, step=0.5, horizon=5.0, record_dt=0.5, stop_tol=None)
    else:
        params = IntegrateParams(method=method, step=0.01, horizon=0.5, record_stride=10, stop_tol=None)
    traj = seeker.integrate(example2.initial_state(seeker), params)
    if method == "dopri5":
        assert traj.rejected_steps > 0  # a first trial step of 0.5 fails the error test
    else:
        assert (traj.steps, traj.rejected_steps) == (50, 0)  # a halving needs more steps
    assert len(calls) == stages * (traj.steps + traj.rejected_steps) + 1 == traj.rhs_evals


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_tableau_attempt_matches_textbook_formula(example2, method):
    # The classical formulas, written out, as the reference for one attempt.
    seeker = Seeker(example2.game)
    state = example2.initial_state(seeker)
    rng = np.random.default_rng(3)
    f = seeker._rhs
    h = 0.05
    for _ in range(3):
        z = np.concatenate((state.x, rng.uniform(-1.0, 1.0, state.w.size)))
        k1 = f(z)
        if method == "euler":
            ref = z + h * k1
        else:
            k2 = f(z + h / 2 * k1)
            k3 = f(z + h / 2 * k2)
            k4 = f(z + h * k3)
            ref = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        zn, pvec, kn, err = seeker._step(z, h, k1, _TABLEAUS[method])
        assert np.all(np.abs(zn - ref) <= 1e-15 * (1 + np.abs(z)))
        assert np.array_equal(pvec, seeker.partial_vector(zn[: state.x.size]))
        assert np.array_equal(kn, f(zn))
        assert err == 0.0


# --- error-controlled integration ------------------------------------------------


def _dopri5(horizon, record_dt, **kw):
    return IntegrateParams(method="dopri5", horizon=horizon, record_dt=record_dt, **kw)


@pytest.mark.parametrize("preset", ["example2", "congestion_demo", "fig1_demo"])
def test_dopri5_matches_fine_rk4_on_presets(request, preset):
    scenario = request.getfixturevalue(preset)
    assert scenario.params.method == "dopri5"
    seeker = Seeker(scenario.game)
    state = scenario.initial_state(seeker)
    rk4 = seeker.integrate(
        state, IntegrateParams(step=0.01, horizon=60.0, record_stride=500, stop_tol=None)
    )
    dopri5 = seeker.integrate(
        state, dataclasses.replace(scenario.params, horizon=60.0, stop_tol=None)
    )
    assert np.abs(dopri5.final_x - rk4.final_x).max() <= 1e-8
    assert dopri5.final_time == 60.0
    assert dopri5.rhs_evals * 5 <= rk4.rhs_evals


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_dopri5_matches_fine_rk4_on_quadratic_games(seed):
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng).game
    seeker = Seeker(game)
    state = seeker.initial_state(rng.uniform(-2, 2, game.n_actions))
    rk4 = seeker.integrate(
        state, IntegrateParams(step=0.01, horizon=10.0, record_stride=100, stop_tol=None)
    )
    dopri5 = seeker.integrate(state, _dopri5(10.0, 1.0, step=0.01, stop_tol=None))
    assert np.abs(dopri5.final_x - rk4.final_x).max() <= 1e-8


def test_dopri5_records_on_the_time_grid():
    game = _single_agent_game(delta=0.5)
    seeker = Seeker(game)
    traj = seeker.integrate(
        seeker.initial_state([0.0]), _dopri5(10.25, 0.1, step=1e-3, stop_tol=None)
    )
    # t_k = k * record_dt by multiplication, then the horizon itself
    assert traj.times.tolist() == [k * 0.1 for k in range(103)] + [10.25]
    # dx/dt = -(x - 3), so x(t) = 3(1 - e^{-t})
    assert np.abs(traj.states[:, 0] - 3.0 * (1.0 - np.exp(-traj.times))).max() <= 1e-8
    assert traj.steps < len(traj.times) * 3


def test_dopri5_stops_on_tolerances_at_record_times():
    game = _single_agent_game(delta=0.5)
    seeker = Seeker(game)
    traj = seeker.integrate(seeker.initial_state([0.0]), _dopri5(500.0, 1.0, stop_tol=1e-10))
    assert traj.stopped_early
    assert traj.final_time == float(round(traj.final_time)) < 500.0
    assert traj.pg_norm[-1] <= 1e-10 < traj.pg_norm[-2]


def test_dopri5_domain_exit_is_halved_and_counted():
    # The double log barrier of test_domain_exit_step_rejection_recovers: a
    # first trial step of 1 from next to the x = 2 wall leaves the domain.
    game = _single_agent_game("-10*log(2 - x1_1) - 10*log(x1_1 + 1)", delta=1.0)
    seeker = Seeker(game)
    traj = seeker.integrate(seeker.initial_state([1.9]), _dopri5(30.0, 1.0, step=1.0, stop_tol=None))
    assert traj.rejected_steps > 0
    assert traj.rhs_evals <= 6 * (traj.steps + traj.rejected_steps) + 1
    assert np.all((traj.states[:, 0] > -1.0) & (traj.states[:, 0] < 2.0))
    assert abs(traj.final_x[0] - 0.5) <= 1e-8


def test_step_collapse_names_an_estimate_by_its_index(example2):
    # The message names the state entry moving fastest; past the actions,
    # an entry of z = [x; w] is the estimate stored in that slot.
    seeker = Seeker(example2.game)
    dz = np.zeros(example2.game.n_actions + seeker.layout.size)
    dz[example2.game.n_actions + seeker.layout.slot(3, 2, 6)] = -7.0
    assert seeker._fastest_entry(dz) == "estimate (3,2,6) moves fastest, at |dz/dt| = 7"
    dz[1] = 8.0
    assert seeker._fastest_entry(dz) == "x2_1 moves fastest, at |dz/dt| = 8"


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(method="dopri5"), "record_dt"),
        (dict(method="dopri5", record_dt=0.0), "record_dt"),
        (dict(method="dopri5", record_dt=float("inf")), "record_dt"),
        (dict(method="rk4", record_dt=1.0), "record_dt is for dopri5"),
        (dict(method="dopri5", record_dt=1.0, record_stride=10), "record_stride is for rk4"),
    ],
)
def test_record_dt_belongs_to_dopri5(kw, message):
    with pytest.raises(ValueError, match=message):
        IntegrateParams(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(step=1e-300, horizon=0.5), "step asks for more than"),
        (dict(step=1e-3, horizon=1e20), "step asks for more than"),
        (dict(step=1e-9, horizon=100.0, record_stride=10**400), "step asks for more than"),
        (dict(method="dopri5", horizon=0.5, record_dt=1e-300), "record_dt asks for more than"),
        (dict(method="dopri5", horizon=0.5, record_dt=5e-324), "record_dt asks for more than"),
        (dict(method="dopri5", horizon=100.0, record_dt=100.0 / (2 * MAX_STEPS)), "record_dt asks"),
    ],
)
def test_a_run_that_would_not_end_is_rejected(kw, message):
    with pytest.raises(ValueError, match=message):
        IntegrateParams(**kw)


def test_the_step_cap_admits_its_own_count():
    IntegrateParams(step=100.0 / MAX_STEPS, horizon=100.0)
    IntegrateParams(method="dopri5", horizon=100.0, record_dt=100.0 / MAX_STEPS)
    # Under dopri5 ``step`` is only the first trial: the controller grows it.
    IntegrateParams(method="dopri5", step=1e-300, horizon=100.0, record_dt=1.0)


def test_a_tiny_first_dopri5_step_grows(example2):
    seeker = Seeker(example2.game)
    params = IntegrateParams(method="dopri5", step=1e-20, horizon=5.0, record_dt=1.0, stop_tol=None)
    traj = seeker.integrate(SeekerState(np.array(example2.initial_x), np.zeros(seeker.layout.size)), params)
    assert traj.times[-1] == 5.0 and traj.steps < 200


def test_a_run_stops_at_the_step_cap(example2, monkeypatch):
    seeker = Seeker(example2.game)
    params = IntegrateParams(method="dopri5", horizon=200.0, record_dt=1.0, stop_tol=None)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 50)  # validated above at the real cap
    state = SeekerState(np.array(example2.initial_x), np.zeros(seeker.layout.size))
    with pytest.raises(StepLimitError, match=r"the run made 50 step attempts and stopped at t="):
        seeker.integrate(state, params)
