"""Continuous-time seeking dynamics and their integration by one explicit
Runge–Kutta step loop: fixed-step RK4 or Euler, or error-controlled
Dormand–Prince 5(4), each a tableau.

Each agent descends its own estimated gradient component while a consensus
protocol, run per component over the neighborhood communication graph, drives
the per-agent estimates toward the block average of the cost partials.  The
same right-hand side covers single-agent descent, single-coalition social
minimization and the general multi-coalition game without special cases:
the consensus term is a sum over the directed edges inside each block, and a
singleton block simply has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .expr import DomainError, all_finite
from .game import Game, Layout

__all__ = [
    "SeekerState",
    "Trajectory",
    "IntegrateParams",
    "Seeker",
    "NumericsError",
    "DomainUnrecoverableError",
    "NonFiniteStateError",
    "StepLimitError",
    "check_step_budget",
]

# The most step attempts, accepted and rejected, of one run, like NMAX in
# Hairer's DOPRI5.  Validation turns away a run that asks for more: more
# fixed steps (``horizon / step``), or more dopri5 record times
# (``horizon / record_dt``), each of which ends a step.
MAX_STEPS = 1_000_000

# An error-controlled step is accepted when the RMS over z = [x; w] of its error
# estimate, each entry scaled by ATOL + RTOL * max(|z|, |z_new|), is at most 1.
RTOL = 1e-8
ATOL = 1e-10


class _Tableau(NamedTuple):
    """An explicit Runge–Kutta method (Hairer, Norsett & Wanner, Solving ODEs
    I, sec. II.1): ``rows[s]`` weighs k1..k(s+1) into stage s + 2 and
    ``weights`` every stage into the endpoint, as ``(j, a)`` for a * k(j+1)
    alone or as ``(None, weights)``; ``error``, if any, weighs the stages and
    the endpoint's derivative into the local error estimate."""

    rows: tuple
    weights: tuple
    error: np.ndarray | None


def _tableau(rows, weights, error=None) -> _Tableau:
    def terms(row):
        # A lone weight a applied as (h * a) * k[j] keeps the bits of the
        # matmul form only when a is a power of two.
        nonzero = [j for j, a in enumerate(row) if a != 0.0]
        lone = len(nonzero) == 1 and abs(math.frexp(row[nonzero[0]])[0]) == 0.5
        return (nonzero[0], row[nonzero[0]]) if lone else (None, np.array(row))

    error = None if error is None else np.array(error)
    return _Tableau(tuple(map(terms, rows)), terms(weights), error)


_TABLEAUS = {
    "rk4": _tableau(((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
    "euler": _tableau((), (1.0,)),
    # Dormand & Prince, J. Comput. Appl. Math. 6 (1980): the fifth-order
    # endpoint, whose derivative is the seventh stage (first same as last),
    # and fifth- minus fourth-order weights as the error estimate.
    "dopri5": _tableau(
        (
            (1 / 5,),
            (3 / 40, 9 / 40),
            (44 / 45, -56 / 15, 32 / 9),
            (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
            (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        ),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
        (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
    ),
}
METHODS = tuple(_TABLEAUS)

# Step control (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4): the next
# step is the last one times the PI factor _SAFETY * err^-_ALPHA *
# err_prev^_BETA, clamped to [_MIN_FACTOR, _MAX_FACTOR].
_SAFETY = 0.9
_ALPHA = 0.2 - 0.75 * 0.04
_BETA = 0.04
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class NumericsError(RuntimeError):
    pass


class DomainUnrecoverableError(NumericsError):
    """A step shrank below the resolution of t at the horizon.  The message
    ends with its last domain exit since the last accepted step, if any,
    else with the state entry moving fastest at the last accepted state."""


class NonFiniteStateError(NumericsError):
    pass


class StepLimitError(NumericsError):
    """The run made ``MAX_STEPS`` step attempts short of its horizon."""


@dataclass
class SeekerState:
    """Full dynamical state: actions ``x``, flat auxiliary vector ``w``
    (ordered per ``Game.layout``), virtual time ``t``."""

    x: np.ndarray
    w: np.ndarray
    t: float = 0.0


@dataclass
class IntegrateParams:
    """Under "rk4" and "euler" every ``step`` is the same and every
    ``record_stride``-th one is recorded (``None``: every 100th).  Under
    "dopri5" ``step`` is the first trial step, the error control picks the
    rest, and the run is recorded at the times ``k * record_dt`` after the
    start.  Every method lands exactly on the horizon."""

    method: str = "rk4"  # one of METHODS
    step: float = 1e-3
    horizon: float = 100.0
    record_stride: int | None = None
    record_dt: float | None = None
    stop_tol: float | None = 1e-8
    record_w: bool = False
    # Called at each record with the state and its estimates ``w + partials``.
    lyapunov: Callable[["SeekerState", np.ndarray], float] | None = None

    def __post_init__(self):
        if not (0 < self.step < math.inf):
            raise ValueError("step must be positive and finite")
        if not (0 < self.horizon < math.inf):
            raise ValueError("horizon must be positive and finite")
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")
        if _TABLEAUS[self.method].error is not None:
            if self.record_stride is not None:
                raise ValueError(f"record_stride is for rk4 and euler, not {self.method}")
            if self.record_dt is None or not (0 < self.record_dt < math.inf):
                raise ValueError(f"{self.method} needs a positive, finite record_dt")
            if self.horizon / self.record_dt > MAX_STEPS:
                raise ValueError(f"record_dt asks for more than {MAX_STEPS} records, each a step")
            return
        if self.record_dt is not None:
            raise ValueError(f"record_dt is for dopri5; {self.method} records every record_stride steps")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.horizon / self.step > MAX_STEPS:
            raise ValueError(f"step asks for more than {MAX_STEPS} steps")


# The length of dopri5's real stability interval (Hairer & Wanner, Solving
# ODEs II, sec. IV.2): a step of length h follows decay rates up to 3.3 / h.
DOPRI5_STABILITY = 3.3


def check_step_budget(layout: Layout, params: IntegrateParams) -> float | None:
    """The steps a dopri5 run takes for its consensus alone, and None under
    a fixed-step method: the horizon times the fastest decay rate of a
    block, its Laplacian's largest eigenvalue, which is at most twice its
    largest weighted degree (Gershgorin), over ``DOPRI5_STABILITY``.  Raises
    ValueError, naming the block and the count, where that exceeds
    ``MAX_STEPS``."""
    if params.method != "dopri5":
        return None
    head, _, weight = layout.edges
    degrees = np.maximum.reduceat(np.bincount(head, weight, layout.size), layout.block_starts)
    b = int(degrees.argmax())
    degree = float(degrees[b])
    steps = params.horizon * 2.0 * degree / DOPRI5_STABILITY  # Python floats: inf, never a warning
    if steps > MAX_STEPS:
        block = layout.blocks[b]
        raise ValueError(
            f"the consensus of block ({block.coalition},{block.k}) would take dopri5 about "
            f"{steps:.3g} steps (horizon {params.horizon:g} times twice its largest weighted "
            f"degree, {degree:.3g}, over {DOPRI5_STABILITY}), more than {MAX_STEPS}"
        )
    return steps


@dataclass
class Trajectory:
    """Time-indexed record of a run; ``w_samples`` and ``lyapunov`` are None
    when not recorded.  ``steps`` counts accepted steps, ``rejected_steps``
    the attempts thrown away (for leaving the domain or, under dopri5, for
    their error), and ``rhs_evals`` the partial-vector evaluations, one per
    right-hand side, the initial one included."""

    var_names: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray
    pg_norm: np.ndarray
    gbar_norm: np.ndarray
    w_samples: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    stopped_early: bool = False
    steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0

    @property
    def final_x(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def write_csv(self, target) -> None:
        """Write ``t, <actions>, pgnorm [, V], gbar_norm`` rows; float fields
        use shortest round-trip decimal formatting."""
        close = False
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            fh = open(target, "w", encoding="utf-8")
            close = True
        else:
            fh = target
        try:
            header = ["t", *self.var_names, "pgnorm"]
            columns = [self.times, *self.states.T, self.pg_norm]
            if self.lyapunov is not None:
                header.append("V")
                columns.append(self.lyapunov)
            header.append("gbar_norm")
            columns.append(self.gbar_norm)
            fh.write(",".join(header) + "\n")
            for row in np.column_stack(columns):
                fh.write(",".join(map(repr, row.tolist())) + "\n")
        finally:
            if close:
                fh.close()


def _advance(z, terms, k, h, out=None):
    """``z`` plus ``h`` times the combination ``terms`` of the stages in
    ``k``, written to ``out`` if given."""
    j, a = terms
    if j is not None:
        out = np.multiply(h * a, k[j], out=out)
    else:
        out = np.matmul(a, k[: a.size], out=out)
        np.multiply(h, out, out=out)
    return np.add(z, out, out=out)


class Seeker:
    """Dynamics engine bound to one game; reusable across integrations."""

    def __init__(self, game: Game):
        self.game = game
        self.layout: Layout = game.layout
        self._kernel = game.kernel  # compiled here, so building a Seeker includes the compile
        self._n = game.n_actions
        self._own = self.layout.own_slots
        self._neg_gain = -game.delta * np.array(
            [d for c in game.coalitions for d in c.dbar]
        )
        self._head, self._tail, self._weight = self.layout.edges
        self._multi_member = self.layout.block_sizes > 1
        self.evaluations = 0

    # -- state construction --------------------------------------------------

    def initial_state(self, x0, w0=None, t: float = 0.0) -> SeekerState:
        x = self.game.as_profile(x0)
        if w0 is None:
            w = np.zeros(self.layout.size)
        else:
            w = np.asarray(w0, dtype=float)
            if w.shape != (self.layout.size,):
                raise ValueError(
                    f"w must have {self.layout.size} entries (one per stored estimate)"
                )
        if not (all_finite(x) and all_finite(w)):
            raise NonFiniteStateError("initial state contains non-finite entries")
        return SeekerState(x, w, t)

    # -- core evaluations -----------------------------------------------------

    def partial_vector(self, x: np.ndarray) -> np.ndarray:
        """Flat cost-partial vector at ``x``, which must lie in the game's
        domain (see ``Game.kernel``).  Every integration stage evaluates
        through here, and ``evaluations`` counts the calls;
        ``bench/tracing.py`` times it as ``dynamics.partials``."""
        self.evaluations += 1
        return self._kernel(x)

    def _rhs_from_pvec(
        self, z: np.ndarray, pvec: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Time derivative of the state ``z = [x; w]`` whose partial vector
        is ``pvec``, as one array ``[dx; dw]``, written to ``out`` if given."""
        if out is None:
            out = np.empty_like(z)
        g = z[self._n :] + pvec
        np.multiply(self._neg_gain, g[self._own], out=out[: self._n])
        diff = g[self._tail] - g[self._head]
        diff *= self._weight
        out[self._n :] = np.bincount(self._head, diff, self.layout.size)
        return out

    def _rhs(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self._rhs_from_pvec(z, self.partial_vector(z[: self._n]), out)

    def block_residuals(self, g: np.ndarray) -> np.ndarray:
        """2-norm of the disagreement component (estimates minus their block
        mean) of every block with more than one member, in block order."""
        return self.layout.block_spread(g)[1][self._multi_member]

    def _fastest_entry(self, dz: np.ndarray) -> str:
        """Names the entry of ``z = [x; w]`` with the largest ``|dz/dt|``: an
        action by its name, an estimate by its ``(i,j,k)``."""
        pos = int(np.argmax(np.abs(dz)))
        if pos < self._n:
            name = self.game.var_names[pos]
        else:
            name = "estimate ({},{},{})".format(*self.layout.keys[pos - self._n])
        return f"{name} moves fastest, at |dz/dt| = {abs(dz[pos]):.3g}"

    # -- stepping ---------------------------------------------------------------
    #
    # ``integrate`` runs the steps and the records under ``np.errstate``: a
    # stage that overflows is caught by the finiteness checks and rejected,
    # and a recorded norm that overflows reads inf, with no warning.

    def _step(self, z, h, k1, tableau):
        """One attempt of ``tableau`` from ``z``, whose derivative is ``k1``:
        the endpoint, its partial vector, its derivative (the next attempt's
        ``k1``) and the scaled RMS error estimate, 0 without error weights.
        A stage or endpoint outside the cost domain raises ``DomainError``.
        Every stage state is built in one buffer."""
        k = np.empty((len(tableau.rows) + 2, z.size))
        k[0] = k1
        stage = np.empty_like(z)
        for s, row in enumerate(tableau.rows, 1):
            self._rhs(_advance(z, row, k, h, stage), k[s])
        zn = _advance(z, tableau.weights, k, h)
        if not all_finite(zn):
            raise DomainError("step produced a non-finite state")
        pvec = self.partial_vector(zn[: self._n])
        self._rhs_from_pvec(zn, pvec, k[-1])
        if tableau.error is None:
            return zn, pvec, k[-1], 0.0
        scaled = (h * (tableau.error @ k)) / (ATOL + RTOL * np.maximum(np.abs(z), np.abs(zn)))
        err = math.sqrt(float(scaled @ scaled) / z.size)
        if not math.isfinite(err):
            raise DomainError("step produced a non-finite error estimate")
        return zn, pvec, k[-1], err

    def _steps(self, z, t, pvec, t_end, params, record):
        """Steps of ``params.method`` from ``(z, t)`` to ``t_end``.  A step
        leaving the domain is halved, one failing the error test shrunk by
        the controller, until one is accepted or the step falls below the
        resolution of t at ``t_end``.  A step is cut short, or stretched by
        less than ``eps`` unless it retries a rejected one, to land exactly
        on ``t_end`` and, under an error-controlled method, on the record
        times ``t + k * record_dt``; ``record`` is called there and, under a
        fixed-step method, after every ``record_stride``-th step.  Returns
        (accepted, rejected, stopped); raises StepLimitError at
        ``MAX_STEPS`` attempts."""
        tableau = _TABLEAUS[params.method]
        stride = params.record_stride or 100
        t0 = t
        eps = 1e-12 * max(1.0, abs(t_end))
        k1 = self._rhs_from_pvec(z, pvec)
        h = params.step
        err_prev = 1.0
        grow = True  # no growth right after a rejection
        steps = rejected = 0
        domain_exit = None  # the last domain exit since the last accepted step
        n_rec = 1
        while True:
            t_rec = t_end if params.record_dt is None else t0 + n_rec * params.record_dt
            if t_rec >= t_end - eps:
                t_rec = t_end
            land = t + h >= t_rec - (eps if grow else 0.0)
            h_try = t_rec - t if land else h
            if steps + rejected == MAX_STEPS:
                raise StepLimitError(f"the run made {MAX_STEPS} step attempts and stopped at t={t:.6g}")
            # A shrunk step is measured at the horizon, not at t: near t = 0
            # any positive step advances t, however far it has shrunk.
            if h_try < params.step and t_end + h_try == t_end:
                if domain_exit is not None:
                    cause = f", after leaving the domain: {domain_exit}"
                else:
                    cause = f"; {self._fastest_entry(k1)}"
                raise DomainUnrecoverableError(
                    f"step at t={t:.6g} failed: the step shrank to {h_try:.3g}, "
                    f"below the resolution of t at the horizon {t_end:.6g}{cause}"
                )
            try:
                zn, pvec_n, kn, err = self._step(z, h_try, k1, tableau)
            except DomainError as exc:
                domain_exit = exc
                rejected += 1
                h, grow = 0.5 * h_try, False
                continue
            if err > 1.0:
                rejected += 1
                h, grow = h_try * max(_MIN_FACTOR, _SAFETY * err**-_ALPHA), False
                continue
            if tableau.error is None:
                h = params.step
            else:
                factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err**-_ALPHA * err_prev**_BETA
                factor = min(max(factor, _MIN_FACTOR), _MAX_FACTOR if grow else 1.0)
                err_prev = max(err, 1e-4)
                # A step cut short to land on a record time does not shrink the next one.
                h = max(h_try * factor, h) if land else h_try * factor
            z, pvec, k1 = zn, pvec_n, kn
            t = t_rec if land else t + h_try
            steps += 1
            domain_exit = None
            grow = True
            if land or (params.record_dt is None and steps % stride == 0):
                if record(t, z, pvec):
                    return steps, rejected, True
            if land:
                if t == t_end:
                    return steps, rejected, False
                n_rec += 1

    def integrate(self, state0: SeekerState, params: IntegrateParams | None = None) -> Trajectory:
        params = params or IntegrateParams()
        if not (all_finite(state0.x) and all_finite(state0.w)):
            raise NonFiniteStateError("initial state contains non-finite entries")
        evaluations = self.evaluations
        n = self._n
        z = np.concatenate((state0.x, state0.w))
        pvec = self.partial_vector(z[:n])  # validates the initial cost domain

        times, states, pg, gbar, vvals = [], [], [], [], []
        w_samples = [] if params.record_w else None

        def record(t, z, pvec) -> bool:
            """Record the sample at ``t``; True when both stop tolerances hold."""
            times.append(t)
            states.append(z[:n].copy())
            if w_samples is not None:
                w_samples.append(z[n:].copy())
            g = z[n:] + pvec
            p_inf = float(np.abs(np.add.reduceat(pvec, self.layout.block_starts)).max())
            resid = self.block_residuals(g)
            pg.append(p_inf)
            gbar.append(float(np.sqrt((resid**2).sum())))
            if params.lyapunov is not None:
                vvals.append(params.lyapunov(SeekerState(z[:n], z[n:], t), g))
            max_resid = float(resid.max()) if resid.size else 0.0
            tol = params.stop_tol
            return tol is not None and p_inf <= tol and max_resid <= tol

        t_end = state0.t + params.horizon
        with np.errstate(over="ignore", invalid="ignore"):
            record(state0.t, z, pvec)
            steps, rejected, stopped = self._steps(z, state0.t, pvec, t_end, params, record)

        return Trajectory(
            var_names=self.game.var_names,
            times=np.array(times),
            states=np.array(states),
            pg_norm=np.array(pg),
            gbar_norm=np.array(gbar),
            w_samples=np.array(w_samples) if w_samples is not None else None,
            lyapunov=np.array(vvals) if params.lyapunov is not None else None,
            stopped_early=stopped,
            steps=steps,
            rejected_steps=rejected,
            rhs_evals=self.evaluations - evaluations,
        )
