"""Independent ground truth for the dynamics: a damped Newton solver for
stationary points of the pseudo-gradient, a sampling check of the equilibrium
property, a monotonicity probe, and a finite-difference audit of the symbolic
gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import DomainError, compile_vector_function, gradient_shaped, templates_for
from .expr import gradient as differentiate  # ``bench/tracing.py`` times it by this name
from .game import Game, coalition_cost, pseudo_gradient

__all__ = [
    "AuditPlan",
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


def _jacobian_exprs(game: Game, keys: list | None = None):
    """Second-derivative expressions of each pseudo-gradient component, keyed
    (row index, column index); absent keys are identically zero.  Rows sum
    their partials in slot order, each partial's columns in ascending order.
    Each partial is differentiated in every name, once per template.  Where
    ``keys`` is given, each entry's key for ``compile_vector_function`` is
    appended to it, in entry order: one number per sequence of its terms'
    keys, each its partial's template and the first leaf of its name in
    the cost, and None where a partial has no template."""
    index = game.var_index
    leaves = [names for c in game.coalitions for *_, names in c.forms]
    templates = game.partial_templates
    seen = templates_for(templates)
    out = {}
    codes: dict[tuple[int, int], int | None] = {}
    chain: dict[tuple, int] = {}  # (the number of some terms, the next term's key) -> theirs
    for row, owner, template, partial in zip(
        game.layout.column.tolist(), game.layout.owner.tolist(), templates, game.partials.values()
    ):
        derivs = gradient_shaped(partial, index, template, seen, differentiate)[0]
        for name in sorted(derivs, key=index.__getitem__):
            key = (row, index[name])
            out[key] = derivs[name] if key not in out else out[key] + derivs[name]
            prev = codes.get(key, -1)
            term = (prev, template, leaves[owner].index(name))
            codes[key] = None if None in term else chain.setdefault(term, len(chain))
    if keys is not None:
        keys += codes.values()
    return out


def _jacobian_function(game: Game):
    """The pseudo-gradient Jacobian as triplets: ``(rows, cols, values)``,
    where ``values`` is a compiled function of the profile ``x`` returning
    the entries at ``(rows, cols)`` and raising DomainError, naming the
    entry and the operation, where an entry is not finite.  No position is
    listed twice."""
    keys: list = []
    exprs = _jacobian_exprs(game, keys)
    names = game.var_names
    rows = np.array([row for row, _ in exprs], dtype=np.intp)
    cols = np.array([col for _, col in exprs], dtype=np.intp)

    def label(pos: int) -> str:
        return f"the jacobian entry d/d{names[cols[pos]]} of component {names[rows[pos]]}"

    return rows, cols, compile_vector_function(exprs.values(), names, label, keys=keys)


# Restarted GMRES for the Newton step (Saad & Schultz, *SIAM J. Sci. Stat.
# Comput.* 7, 1986): the Krylov basis restarts after GMRES_RESTART vectors,
# a step is solved once the residual of the scaled system is at most
# GMRES_RTOL times its right-hand side, and GMRES_MAX_ITER matrix-vector
# products bound the search.  Short of the tolerance, the best iterate is
# the step.
GMRES_RESTART = 30
GMRES_RTOL = 1e-12
GMRES_MAX_ITER = 300

NEWTON_MAX_ITER = 50  # Newton steps of one solve
NEWTON_MAX_HALVINGS = 30  # halvings of one Newton step in search of descent
AUDIT_STEP = 1e-6  # the central-difference step of the gradient audit


@np.errstate(all="ignore")  # an overflow ends in a non-finite residual, which fails
def _gmres(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The solution of ``J s = b`` for the Jacobian held as triplets, by
    restarted GMRES on the system with each row divided by its diagonal
    entry (Jacobi scaling; rows with a zero diagonal are left as they are).
    Where the tolerance is out of reach (the residual cannot be computed
    that finely, or the cap comes first), the iterate with the smallest
    residual, for the merit test to judge.  None where ``J`` maps a Krylov
    vector to 0, an entry is not finite, or no iterate reduces the residual
    at all."""
    n = b.size
    diag = np.ones(n)
    on_diag = rows == cols
    diag[rows[on_diag]] = vals[on_diag]
    diag[diag == 0.0] = 1.0
    scaled, b = vals / diag[rows], b / diag
    if not (np.isfinite(scaled).all() and np.isfinite(b).all()):
        return None

    def matvec(v: np.ndarray) -> np.ndarray:
        return np.bincount(rows, scaled * v[cols], n)

    x = np.zeros(n)
    r = b
    beta = beta0 = math.sqrt(r @ r)
    target = GMRES_RTOL * beta
    iterations = 0
    while beta > target and iterations < GMRES_MAX_ITER:
        basis = np.empty((GMRES_RESTART + 1, n))
        basis[0] = r / beta
        # The rotated Hessenberg matrix by columns, its Givens rotations and
        # the rotated right-hand side, as Python floats.
        hess: list[list[float]] = []
        cs: list[float] = []
        sn: list[float] = []
        g = [beta]
        while len(hess) < GMRES_RESTART and iterations < GMRES_MAX_ITER:
            k = len(hess)
            w = matvec(basis[k])
            iterations += 1
            # Classical Gram-Schmidt, applied twice.
            v = basis[: k + 1]
            h = v @ w
            w -= h @ v
            again = v @ w
            w -= again @ v
            col = (h + again).tolist()
            h_next = math.sqrt(w @ w)
            for i in range(k):
                top, low = col[i], col[i + 1]
                col[i], col[i + 1] = cs[i] * top + sn[i] * low, cs[i] * low - sn[i] * top
            denom = math.hypot(col[k], h_next)
            if not 0.0 < denom < math.inf:
                return None  # J maps a Krylov vector to 0, or an entry overflowed
            cs.append(col[k] / denom)
            sn.append(h_next / denom)
            col[k] = denom
            hess.append(col)
            g.append(-sn[k] * g[k])
            g[k] *= cs[k]
            if abs(g[k + 1]) <= target or h_next == 0.0:
                break
            basis[k + 1] = w / h_next
        k = len(hess)
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - sum(hess[j][i] * y[j] for j in range(i + 1, k))) / hess[i][i]
        x_next = x + np.array(y) @ basis[:k]
        r = b - matvec(x_next)
        beta_next = math.sqrt(r @ r)
        if not beta_next < beta:
            break  # a restart that gains nothing gains nothing again
        x, beta = x_next, beta_next
    return x if beta < beta0 or beta <= target else None


def solve_stationary(game: Game, x0, tol: float = 1e-10) -> StationaryReport:
    """Damped Newton iteration on the pseudo-gradient.

    Each step solves the Newton system by restarted GMRES over the
    Jacobian's triplets (``_gmres``); a step it cannot solve is reported as
    a singular Jacobian, not raised.  The step is halved until the 2-norm of
    the pseudo-gradient decreases (or the trial point leaves every cost
    domain), up to ``NEWTON_MAX_HALVINGS`` times; the best iterate seen is
    returned either way.
    """
    jacobian = None
    x = game.as_profile(x0)
    p = pseudo_gradient(game, x)
    best_x, best_res = x.copy(), float(np.abs(p).max())
    for it in range(NEWTON_MAX_ITER):
        res_inf = float(np.abs(p).max())
        if res_inf < best_res:
            best_x, best_res = x.copy(), res_inf
        if res_inf <= tol:
            return StationaryReport(x, res_inf, it, True)
        # Compiled on the first step, so a start that has converged skips it.
        jacobian = jacobian or _jacobian_function(game)
        rows, cols, values = jacobian
        try:
            vals = values(x)
        except DomainError as err:
            return StationaryReport(best_x, best_res, it, best_res <= tol,
                                    f"jacobian left the domain: {err}")
        step = _gmres(rows, cols, vals, -p)
        if step is None:
            return StationaryReport(best_x, best_res, it, best_res <= tol,
                                    "singular jacobian")
        # hypot scales its arguments, so a finite residual has a finite norm.
        merit = math.hypot(*p.tolist())
        alpha = 1.0
        accepted = False
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            trial = x + alpha * step
            try:
                p_trial = pseudo_gradient(game, trial)
            except DomainError:
                alpha *= 0.5
                continue
            if math.hypot(*p_trial.tolist()) < merit:
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
    return StationaryReport(best_x, best_res, NEWTON_MAX_ITER, best_res <= tol,
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


class AuditPlan:
    """The gradient audit's column coloring (Curtis, Powell & Reid, *IMA J.
    Appl. Math.* 13, 1974).  A cost's support is the action columns it
    reads, with the columns of its stored partials; two columns conflict
    when one support holds both.  The columns are colored greedily in index
    order, so no support holds two columns of one class, and perturbing a
    whole class in one cost-kernel call moves each cost, and each of its
    partials, along one column at most.

    ``classes`` and ``singletons`` are partitions of the columns into
    ``(columns, slots, costs)``: a class's columns, the slots of their
    partials, and the profile index of each slot's cost.  ``singletons``
    holds one column per class, in column order."""

    def __init__(self, game: Game):
        n = game.n_actions
        layout = game.layout
        support = [set(cols) for cols in game.supports]
        for col, cost in zip(layout.column.tolist(), layout.owner.tolist()):
            support[cost].add(col)
        readers: list[list[int]] = [[] for _ in range(n)]
        for cost, cols in enumerate(support):
            for col in cols:
                readers[col].append(cost)
        color: list[int] = []
        for col in range(n):
            taken = {color[c] for cost in readers[col] for c in support[cost] if c < col}
            color.append(next(c for c in range(len(taken) + 1) if c not in taken))
        self.colors = np.array(color, dtype=np.intp)
        self._slot_col, self._slot_cost = layout.column, layout.owner
        self.classes = self._partition(self.colors)

    @cached_property
    def singletons(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self._partition(np.arange(len(self.colors)))

    def _partition(self, colors: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        def groups(keys: np.ndarray) -> list[np.ndarray]:
            return np.split(np.argsort(keys, kind="stable"), np.cumsum(np.bincount(keys))[:-1])

        slots = groups(colors[self._slot_col])
        return [(cols, s, self._slot_cost[s]) for cols, s in zip(groups(colors), slots)]


def _difference_audit(game: Game, x: np.ndarray, sym: np.ndarray, classes, h: float) -> float:
    """The audit over a partition of the columns: each class moved by +h and
    by -h in one cost-kernel call each, in class order."""
    fd = np.empty_like(sym)
    for cols, slots, costs in classes:
        xp, xm = x.copy(), x.copy()
        xp[cols] += h
        xm[cols] -= h
        fd[slots] = (game.cost_kernel(xp)[costs] - game.cost_kernel(xm)[costs]) / (2.0 * h)
    return float((np.abs(sym - fd) / np.maximum(1.0, np.abs(sym))).max())


def gradient_check(game: Game, x) -> float:
    """Max over all stored partials of the relative gap between the symbolic
    derivative and a central finite difference of the per-agent cost.

    The differences perturb one color class of ``game.audit_plan`` per
    cost-kernel call, 1 + 2 * classes calls in all with the call at ``x``,
    and equal column-by-column differences bit for bit, since no cost reads
    two columns of a class.  Where any of these calls leaves the domain,
    the audit reruns one column per class, which raises exactly where, and
    with the message with which, a column-by-column audit raises."""
    x = game.as_profile(x)
    sym = game.kernel(x)
    plan = game.audit_plan
    try:
        # A colored call fails only where a single-column one does, and a
        # single-column failure that no colored call sees comes from an
        # output that fails at x itself.
        game.cost_kernel(x)
        return _difference_audit(game, x, sym, plan.classes, AUDIT_STEP)
    except DomainError:
        return _difference_audit(game, x, sym, plan.singletons, AUDIT_STEP)
