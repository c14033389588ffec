"""Acceptance suite: one test per shipped criterion, each printing a single
pass/fail line (visible under ``pytest -s``) and asserting at the criterion's
stated tolerance."""

import dataclasses
import time

import numpy as np

from coalseek.analysis import (
    build_block_transforms,
    cost_accounting,
    deviation_bounds,
    lyapunov_value,
)
from coalseek.corpus import random_containment_pair
from coalseek.dynamics import IntegrateParams, Seeker, SeekerState
from coalseek.game import pseudo_gradient
from coalseek.graphs import interference_to_k_graph, is_connected, validate_containment
from coalseek.oracle import check_monotonicity, gradient_check, solve_stationary, verify_nash
from conftest import STATIONARY_SECOND, tree_walk_partials


def _report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num:>2}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_stationarity(example2_game):
    start = time.perf_counter()
    r0 = np.abs(pseudo_gradient(example2_game, np.zeros(10))).max()
    r1 = np.abs(pseudo_gradient(example2_game, STATIONARY_SECOND)).max()
    elapsed = time.perf_counter() - start
    ok = r0 <= 1e-9 and r1 <= 1e-9 and elapsed < 1.0
    _report(1, "pseudo-gradient vanishes at both stationary points", ok,
            f"residuals {r0:.1e}/{r1:.1e}, {elapsed:.2f}s")


def test_criterion_02_example2_convergence(example2):
    assert example2.params.horizon <= 200.0
    assert tuple(example2.initial_x) == (4.0, 1.6, -1.2, -0.8, 0.0, 0.4, 1.0, 1.4, 1.8, 4.0)
    seeker = Seeker(example2.game)
    start = time.perf_counter()
    traj = seeker.integrate(example2.initial_state(seeker), example2.params)
    elapsed = time.perf_counter() - start
    final = np.abs(traj.final_x).max()
    ok = final <= 0.05 and traj.final_time <= 200.0 + 1e-9 and elapsed < 60.0
    _report(2, "example2 converges to the origin", ok,
            f"|x(T)|_inf {final:.2e} at T={traj.final_time:.0f}, {elapsed:.1f}s")


def test_criterion_03_monotonicity_witness(example2_game):
    start = time.perf_counter()
    report = check_monotonicity(
        example2_game, -2.0, 2.0, pairs=100, seed=0,
        extra_pairs=[(np.zeros(10), STATIONARY_SECOND)],
    )
    elapsed = time.perf_counter() - start
    ok = (not report.passed) and report.min_inner == 0.0 and report.witness is not None and elapsed < 1.0
    _report(3, "stationary pair witnesses the monotonicity violation", ok,
            f"min inner product {report.min_inner}, {elapsed:.2f}s")


def test_criterion_04_neighborhood_connectivity():
    start = time.perf_counter()
    rng = np.random.default_rng(8282)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        gi, gc = random_containment_pair(rng, n)
        assert validate_containment(gi, gc).passed
        for k in gi.vertices:
            if not is_connected(interference_to_k_graph(gc, gi, k)):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _report(4, "every neighborhood graph of 200 compliant pairs is connected", ok,
            f"{failures} counterexamples, {elapsed:.1f}s")


def _trajectory_battery(example2, congestion_demo, fig1_demo, quadratic_corpus):
    runs = []
    seeker = Seeker(example2.game)
    runs.append(
        (example2.game, seeker,
         seeker.integrate(example2.initial_state(seeker),
                          IntegrateParams(step=0.01, horizon=200.0, record_stride=400,
                                          stop_tol=None, record_w=True)))
    )
    seeker = Seeker(fig1_demo.game)
    runs.append(
        (fig1_demo.game, seeker,
         seeker.integrate(fig1_demo.initial_state(seeker),
                          IntegrateParams(step=0.01, horizon=150.0, record_stride=300,
                                          stop_tol=None, record_w=True)))
    )
    seeker = Seeker(congestion_demo.game)
    runs.append(
        (congestion_demo.game, seeker,
         seeker.integrate(congestion_demo.initial_state(seeker),
                          IntegrateParams(step=0.01, horizon=60.0, record_stride=200,
                                          stop_tol=None, record_w=True)))
    )
    rng = np.random.default_rng(5)
    for sample in quadratic_corpus[:3]:
        seeker = Seeker(sample.game)
        state = seeker.initial_state(rng.uniform(-2, 2, sample.game.n_actions))
        runs.append(
            (sample.game, seeker,
             seeker.integrate(state,
                              IntegrateParams(step=0.05, horizon=100.0, record_stride=50,
                                              stop_tol=None, record_w=True)))
        )
    return runs


def test_criterion_05_conservation_and_mean_identity(
    example2, congestion_demo, fig1_demo, quadratic_corpus
):
    worst_sum = 0.0
    worst_mean = 0.0
    for game, seeker, traj in _trajectory_battery(
        example2, congestion_demo, fig1_demo, quadratic_corpus
    ):
        layout = game.layout
        for x, w in zip(traj.states, traj.w_samples):
            pvec = tree_walk_partials(game, x)
            for blk in layout.blocks:
                seg = slice(blk.start, blk.stop)
                worst_sum = max(worst_sum, abs(w[seg].sum()))
                g = w[seg] + pvec[seg]
                worst_mean = max(worst_mean, abs(g.mean() - pvec[seg].sum() / blk.size))
    ok = worst_sum <= 1e-8 and worst_mean <= 1e-8
    _report(5, "per-block conservation and mean-estimate identity on all runs", ok,
            f"max |sum w| {worst_sum:.1e}, max mean gap {worst_mean:.1e}")


def test_criterion_06_deviation_bound(example2_game):
    rng = np.random.default_rng(606)
    layout = example2_game.layout
    violations = 0
    checked = 0
    for _ in range(500):
        x = rng.uniform(-3, 3, 10)
        w = rng.normal(scale=rng.uniform(0.1, 3.0), size=layout.size)
        for blk in layout.blocks:
            seg = slice(blk.start, blk.stop)
            w[seg] -= w[seg].mean()
        state = SeekerState(x, w, 0.0)
        deviation, bound = deviation_bounds(example2_game, state)
        for slot in range(layout.size):
            checked += 1
            if deviation[slot] > bound[slot] * (1 + 1e-12) + 1e-12:
                violations += 1
    ok = violations == 0 and checked >= 500 * layout.size
    _report(6, "per-agent deviation bound holds on 500 randomized states", ok,
            f"{checked} indices checked, {violations} violations")


def test_criterion_07_oracle_equivalence(quadratic_corpus):
    start = time.perf_counter()
    worst = 0.0
    for sample in quadratic_corpus:
        game = sample.game
        newton = solve_stationary(game, np.zeros(game.n_actions), tol=1e-11)
        assert newton.converged
        seeker = Seeker(game)
        traj = seeker.integrate(
            seeker.initial_state(np.zeros(game.n_actions)),
            IntegrateParams(step=0.05, horizon=900.0, record_stride=100, stop_tol=1e-9),
        )
        worst = max(worst, float(np.abs(traj.final_x - newton.x).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(7, "dynamics endpoint matches Newton on 20 monotone quadratic games", ok,
            f"worst gap {worst:.1e}, {elapsed:.1f}s")


def test_criterion_08_lyapunov_decrease(quadratic_corpus):
    rng = np.random.default_rng(88)
    worst_rise = -np.inf
    worst_residual = 0.0
    for sample in quadratic_corpus:
        game = dataclasses.replace(sample.game, delta=0.01)
        transforms = build_block_transforms(game)
        for tr in transforms.values():
            dim = tr.lyapunov_matrix.shape[0]
            if dim:
                resid = np.abs(
                    tr.lyapunov_matrix @ tr.reduced_laplacian
                    + tr.reduced_laplacian @ tr.lyapunov_matrix
                    - np.eye(dim)
                ).max()
                worst_residual = max(worst_residual, resid)
        x_star = sample.equilibrium()
        seeker = Seeker(game)
        params = IntegrateParams(
            step=0.05, horizon=40.0, record_stride=10, stop_tol=None,
            lyapunov=lambda s, est, g=game, xs=x_star, trf=transforms: lyapunov_value(g, s, xs, trf, est),
        )
        traj = seeker.integrate(
            seeker.initial_state(rng.uniform(-2, 2, game.n_actions)), params
        )
        worst_rise = max(worst_rise, float(np.diff(traj.lyapunov).max()))
    ok = worst_rise <= 1e-12 and worst_residual <= 1e-10
    _report(8, "energy non-increasing on the quadratic corpus at delta 0.01", ok,
            f"max step rise {worst_rise:.1e}, max equation residual {worst_residual:.1e}")


def test_criterion_09_cost_accounting(example2_game):
    report = cost_accounting(example2_game)
    dropped = {
        (a.coalition, a.agent): a.dropped for a in report.agents if a.coalition == 3
    }
    expected = {
        (3, 1): (4, 5),
        (3, 2): (),
        (3, 3): (),
        (3, 4): (1, 5, 6),
        (3, 5): (1, 4, 6),
        (3, 6): (4, 5),
    }
    ok = dropped == expected
    _report(9, "coalition-3 dropped-component lists match the documented set", ok,
            f"got {dropped}" if not ok else "")


def test_criterion_10_gradient_fidelity(example2, congestion_demo, fig1_demo):
    worst = 0.0
    cases = [
        (example2.game, -2.0, 2.0),
        (fig1_demo.game, -2.0, 2.0),
        (congestion_demo.game, 0.0, 1.0),  # interior of barrier/capacity domain
    ]
    rng = np.random.default_rng(1010)
    for game, lo, hi in cases:
        for _ in range(100):
            err = gradient_check(game, rng.uniform(lo, hi, game.n_actions))
            worst = max(worst, err)
    ok = worst <= 1e-6
    _report(10, "symbolic partials match central differences on all presets", ok,
            f"max relative error {worst:.1e}")


def test_criterion_11_congestion_demo_oracle_equivalence(congestion_demo):
    ref = congestion_demo.reference.get("published_equilibrium")
    metadata_ok = ref == [12.63, 5.58, 3.68, 6.12, 5.16, 2.03, 2.03, 10.16, 10.16, 5.63]
    game = congestion_demo.game
    newton = solve_stationary(game, np.ones(game.n_actions), tol=1e-11)
    seeker = Seeker(game)
    traj = seeker.integrate(congestion_demo.initial_state(seeker), congestion_demo.params)
    gap = float(np.abs(traj.final_x - newton.x).max())
    probe = verify_nash(game, newton.x, radius=0.5, samples_per_coalition=200, seed=11)
    ok = metadata_ok and newton.converged and gap <= 1e-3 and probe.consistent
    _report(11, "reconstructed congestion demo: dynamics match the oracle", ok,
            f"endpoint gap {gap:.1e}, probe consistent {probe.consistent}, "
            f"published vector bundled as metadata only")
