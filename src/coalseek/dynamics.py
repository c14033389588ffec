"""Continuous-time seeking dynamics and their fixed-step integration.

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
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import DomainError
from .game import Game, Layout

__all__ = [
    "SeekerState",
    "Trajectory",
    "IntegrateParams",
    "Seeker",
    "NumericsError",
    "DomainUnrecoverableError",
    "NonFiniteStateError",
]

# Halvings of a rejected step before the run gives up.
MAX_HALVINGS = 40


class NumericsError(RuntimeError):
    pass


class DomainUnrecoverableError(NumericsError):
    """A step stayed outside the cost domain after ``MAX_HALVINGS`` halvings;
    the message ends with the cause of the last rejection."""


class NonFiniteStateError(NumericsError):
    pass


@dataclass
class SeekerState:
    """Full dynamical state: actions ``x``, flat auxiliary vector ``w``
    (ordered per ``Game.layout``), virtual time ``t``."""

    x: np.ndarray
    w: np.ndarray
    t: float = 0.0


@dataclass
class IntegrateParams:
    method: str = "rk4"  # "rk4" | "euler"
    step: float = 1e-3
    horizon: float = 100.0
    record_stride: int = 100
    stop_tol: float | None = 1e-8
    record_w: bool = False
    lyapunov: Callable[["SeekerState"], float] | None = None

    def __post_init__(self):
        if not (0 < self.step < math.inf):
            raise ValueError("step must be positive and finite")
        if not (0 < self.horizon < math.inf):
            raise ValueError("horizon must be positive and finite")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"unknown method '{self.method}'")


@dataclass
class Trajectory:
    """Time-indexed record of a run; ``w_samples`` and ``lyapunov`` are None when not recorded."""

    var_names: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray
    pg_norm: np.ndarray
    gbar_norm: np.ndarray
    w_samples: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    stopped_early: bool = False
    steps: int = 0
    wall_time: float = 0.0

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
            for row in zip(*columns):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        finally:
            if close:
                fh.close()


class Seeker:
    """Dynamics engine bound to one game; reusable across integrations."""

    def __init__(self, game: Game):
        self.game = game
        self.layout: Layout = game.layout
        game.kernel  # compiled here, so building a Seeker includes the compile
        self._costs_and_partials = game.costs_and_partials
        self._n = game.n_actions
        self._own = self.layout.own_slots
        self._neg_gain = -game.delta * np.array(
            [d for c in game.coalitions for d in c.dbar]
        )
        self._head, self._tail, self._weight = self.layout.edges
        self._multi_member = self.layout.block_sizes > 1

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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
            raise NonFiniteStateError("initial state contains non-finite entries")
        return SeekerState(x, w, t)

    # -- core evaluations -----------------------------------------------------

    def partial_vector(self, x: np.ndarray) -> np.ndarray:
        """Flat cost-partial vector at ``x``, which must lie in the game's
        domain (see ``Game.costs_and_partials``).  Every integration stage
        evaluates through here; ``bench/tracing.py`` times it as
        ``dynamics.partials``."""
        return self._costs_and_partials(x)[1]

    def _rhs_from_pvec(self, z: np.ndarray, pvec: np.ndarray) -> np.ndarray:
        """Time derivative of the state ``z = [x; w]`` whose partial vector
        is ``pvec``, as one array ``[dx; dw]``."""
        g = z[self._n :] + pvec
        dx = self._neg_gain * g[self._own]
        dw = np.bincount(
            self._head, self._weight * (g[self._tail] - g[self._head]), self.layout.size
        )
        return np.concatenate((dx, dw))

    def _rhs(self, z: np.ndarray) -> np.ndarray:
        return self._rhs_from_pvec(z, self.partial_vector(z[: self._n]))

    def block_residuals(self, g: np.ndarray) -> np.ndarray:
        """2-norm of the disagreement component (estimates minus their block
        mean) of every block with more than one member, in block order."""
        return self.layout.block_spread(g)[1][self._multi_member]

    # -- stepping ---------------------------------------------------------------

    def _step(self, z, h, method, pvec):
        """One step of the state ``z = [x; w]``.  An accepted step needs every
        stage AND the committed endpoint to stay inside the cost domains; the
        endpoint's partial vector doubles as the next step's first stage."""
        k1 = self._rhs_from_pvec(z, pvec)
        if method == "euler":
            zn = z + h * k1
        else:
            k2 = self._rhs(z + 0.5 * h * k1)
            k3 = self._rhs(z + 0.5 * h * k2)
            k4 = self._rhs(z + h * k3)
            zn = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(zn).all():
            raise DomainError("step produced a non-finite state")
        return zn, self.partial_vector(zn[: self._n])

    def integrate(self, state0: SeekerState, params: IntegrateParams | None = None) -> Trajectory:
        params = params or IntegrateParams()
        if not (np.all(np.isfinite(state0.x)) and np.all(np.isfinite(state0.w))):
            raise NonFiniteStateError("initial state contains non-finite entries")
        start = time.perf_counter()
        n = self._n
        z = np.concatenate((state0.x, state0.w))
        t = state0.t
        t_end = state0.t + params.horizon
        pvec = self.partial_vector(z[:n])  # validates the initial cost domain

        times = [t]
        states = [z[:n].copy()]
        w_samples = [z[n:].copy()] if params.record_w else None
        pg, gbar, vvals = [], [], []

        def record_diag() -> tuple[float, float]:
            g = z[n:] + pvec
            p = np.add.reduceat(pvec, self.layout.block_starts)
            p_inf = float(np.abs(p).max())
            resid = self.block_residuals(g)
            max_resid = float(resid.max()) if resid.size else 0.0
            pg.append(p_inf)
            gbar.append(float(np.sqrt((resid**2).sum())))
            if params.lyapunov is not None:
                vvals.append(params.lyapunov(SeekerState(z[:n], z[n:], t)))
            return p_inf, max_resid

        record_diag()
        stopped = False
        steps = 0
        eps = 1e-12 * max(1.0, abs(t_end))
        while t < t_end - eps:
            h_try = min(params.step, t_end - t)
            halvings = 0
            while True:
                try:
                    zn, pvec_n = self._step(z, h_try, params.method, pvec)
                    break
                except DomainError as err:
                    halvings += 1
                    if halvings > MAX_HALVINGS:
                        raise DomainUnrecoverableError(
                            f"step at t={t:.6g} failed after {MAX_HALVINGS} halvings: {err}"
                        ) from None
                    h_try *= 0.5
            z, t, pvec = zn, t + h_try, pvec_n
            steps += 1
            at_end = t >= t_end - eps
            if steps % params.record_stride == 0 or at_end:
                times.append(t)
                states.append(z[:n].copy())
                if w_samples is not None:
                    w_samples.append(z[n:].copy())
                p_inf, max_resid = record_diag()
                if (
                    params.stop_tol is not None
                    and p_inf <= params.stop_tol
                    and max_resid <= params.stop_tol
                ):
                    stopped = True
                    break

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
            wall_time=time.perf_counter() - start,
        )

