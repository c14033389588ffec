"""Independent ground truth for the dynamics: a damped Newton solver for
stationary points of the pseudo-gradient, a sampling check of the equilibrium
property, a monotonicity probe, and a finite-difference audit of the symbolic
gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError, compile_vector_function, differentiate, free_variables
from .game import Game, coalition_cost, evaluate_in_domain, pseudo_gradient

__all__ = [
    "StationaryReport",
    "NashProbeReport",
    "MonotonicityReport",
    "solve_stationary",
    "verify_nash",
    "check_monotonicity",
    "gradient_check",
]


@dataclass(frozen=True)
class StationaryReport:
    x: np.ndarray
    residual: float  # inf-norm of the pseudo-gradient at x
    iterations: int
    converged: bool
    message: str = ""


def _jacobian_exprs(game: Game):
    """Second-derivative expressions of each pseudo-gradient component, keyed
    (row index, column index); absent keys are identically zero."""
    out = {}
    for b in game.layout.blocks:
        row = game.action_index(b.coalition, b.k)
        for j in b.members:
            first = game.partials[(b.coalition, j, b.k)]
            for name in free_variables(first):
                col = game.var_index.get(name)
                if col is None:
                    continue
                key = (row, col)
                second = differentiate(first, name)
                out[key] = second if key not in out else out[key] + second
    return out


def _jacobian_function(game: Game):
    """Compiled pseudo-gradient Jacobian: a function of the profile ``x``
    returning the dense ``n x n`` matrix; raises DomainError, naming the
    entry and the operation, where an entry is not finite."""
    exprs = _jacobian_exprs(game)
    entries, names = list(exprs.values()), game.var_names
    second = compile_vector_function(entries, names)
    rows = np.array([row for row, _ in exprs], dtype=np.intp)
    cols = np.array([col for _, col in exprs], dtype=np.intp)
    n = game.n_actions

    def label(pos: int) -> str:
        return f"the jacobian entry d/d{names[cols[pos]]} of component {names[rows[pos]]}"

    def jacobian(x: np.ndarray) -> np.ndarray:
        jac = np.zeros((n, n))
        jac[rows, cols] = evaluate_in_domain(second, x, entries, names, label)
        return jac

    return jacobian


def solve_stationary(
    game: Game,
    x0,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_halvings: int = 30,
) -> StationaryReport:
    """Damped Newton iteration on the pseudo-gradient.

    The step is halved until the 2-norm of the pseudo-gradient decreases (or
    the trial point leaves every cost domain), up to ``max_halvings`` times;
    the best iterate seen is returned either way.  A singular Jacobian is
    reported, not raised.
    """
    jacobian = None
    x = game.as_profile(x0)
    p = pseudo_gradient(game, x)
    best_x, best_res = x.copy(), float(np.abs(p).max())
    for it in range(max_iter):
        res_inf = float(np.abs(p).max())
        if res_inf < best_res:
            best_x, best_res = x.copy(), res_inf
        if res_inf <= tol:
            return StationaryReport(x, res_inf, it, True)
        # Compiled on the first step, so a start that has converged skips it.
        jacobian = jacobian or _jacobian_function(game)
        try:
            jac = jacobian(x)
        except DomainError as err:
            return StationaryReport(best_x, best_res, it, best_res <= tol,
                                    f"jacobian left the domain: {err}")
        try:
            step = np.linalg.solve(jac, -p)
        except np.linalg.LinAlgError:
            return StationaryReport(best_x, best_res, it, best_res <= tol,
                                    "singular jacobian")
        merit = float(np.linalg.norm(p))
        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            trial = x + alpha * step
            try:
                p_trial = pseudo_gradient(game, trial)
            except DomainError:
                alpha *= 0.5
                continue
            if float(np.linalg.norm(p_trial)) < merit:
                x, p = trial, p_trial
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return StationaryReport(best_x, best_res, it + 1, best_res <= tol,
                                    "no descent after backtracking")
    res_inf = float(np.abs(p).max())
    if res_inf < best_res:
        best_x, best_res = x.copy(), res_inf
    return StationaryReport(best_x, best_res, max_iter, best_res <= tol,
                            "iteration limit reached")


@dataclass(frozen=True)
class NashProbeReport:
    consistent: bool
    worst_decrease: float
    witness_coalition: int | None
    witness_block: np.ndarray | None
    samples: int
    domain_errors: int
    tol: float


def verify_nash(
    game: Game,
    x_hat,
    radius: float = 0.5,
    samples_per_coalition: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> NashProbeReport:
    """Sampling probe of the no-profitable-unilateral-deviation property.

    For each coalition, ``samples_per_coalition`` random deviations of its own
    action block within a ball of the given radius are evaluated with the
    other blocks frozen.  The verdict is local and sampling-based, not a
    global certificate.  Deviations that leave a cost domain are counted and
    skipped.
    """
    if not (radius > 0):
        raise ValueError("radius must be positive")
    x_hat = game.as_profile(x_hat)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    domain_errors = 0
    total = 0
    offset = 0
    for i, c in enumerate(game.coalitions, start=1):
        m = c.m
        base = coalition_cost(game, i, x_hat)
        for _ in range(samples_per_coalition):
            direction = rng.normal(size=m)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            r = radius * rng.random() ** (1.0 / m)
            trial = x_hat.copy()
            trial[offset : offset + m] += r * direction / norm
            total += 1
            try:
                val = coalition_cost(game, i, trial)
            except DomainError:
                domain_errors += 1
                continue
            decrease = base - val
            if decrease > worst:
                worst = decrease
                witness = (i, trial[offset : offset + m].copy())
        offset += m
    consistent = worst <= tol
    return NashProbeReport(
        consistent=consistent,
        worst_decrease=worst,
        witness_coalition=None if (consistent or witness is None) else witness[0],
        witness_block=None if (consistent or witness is None) else witness[1],
        samples=total,
        domain_errors=domain_errors,
        tol=tol,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool  # every sampled pair had a strictly positive inner product
    min_inner: float
    witness: tuple[np.ndarray, np.ndarray] | None
    samples: int
    domain_errors: int


def check_monotonicity(
    game: Game,
    lo,
    hi,
    pairs: int = 200,
    seed: int = 0,
    extra_pairs=(),
) -> MonotonicityReport:
    """Probe strict monotonicity of the pseudo-gradient on a box.

    Samples random distinct point pairs (plus any caller-supplied pairs,
    checked first) and reports the minimum of (x - y) . (P(x) - P(y)); a value
    that is not strictly positive is a violation witness.
    """
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (game.n_actions,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (game.n_actions,))
    if np.any(hi < lo):
        raise ValueError("empty region")
    rng = np.random.default_rng(seed)
    min_inner = np.inf
    witness = None
    evaluated = 0
    domain_errors = 0

    def probe(x, y):
        nonlocal min_inner, witness, evaluated, domain_errors
        if np.array_equal(x, y):
            return
        try:
            inner = float((x - y) @ (pseudo_gradient(game, x) - pseudo_gradient(game, y)))
        except DomainError:
            domain_errors += 1
            return
        evaluated += 1
        if inner < min_inner:
            min_inner = inner
            witness = (x.copy(), y.copy())

    for x, y in extra_pairs:
        probe(game.as_profile(x), game.as_profile(y))
    for _ in range(pairs):
        probe(rng.uniform(lo, hi), rng.uniform(lo, hi))

    passed = evaluated > 0 and min_inner > 0.0
    return MonotonicityReport(
        passed=passed,
        min_inner=float(min_inner) if evaluated else np.nan,
        witness=None if passed else witness,
        samples=evaluated,
        domain_errors=domain_errors,
    )


def gradient_check(game: Game, x, h: float = 1e-6) -> float:
    """Max over all stored partials of the relative gap between the symbolic
    derivative and a central finite difference of the per-agent cost."""
    x = game.as_profile(x)
    sym = game.costs_and_partials(x)[1]
    worst = 0.0
    # Block ``col`` holds the partials d f_ij / d x_col over its members j.
    for col, b in enumerate(game.layout.blocks):
        agents = [game.action_index(b.coalition, j) for j in b.members]
        xp, xm = x.copy(), x.copy()
        xp[col] += h
        xm[col] -= h
        up = game.costs_and_partials(xp)[0][agents]
        down = game.costs_and_partials(xm)[0][agents]
        fd = (up - down) / (2.0 * h)
        s = sym[b.start : b.stop]
        worst = max(worst, float((np.abs(s - fd) / np.maximum(1.0, np.abs(s))).max()))
    return worst
