"""Diagnostics for the seeking dynamics: disagreement coordinates per
estimation block, the per-agent deviation bound, energy values along
trajectories, and communication/computation cost accounting against the
dense-estimation baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SeekerState
from .game import Game
from .graphs import is_connected, orthonormal_complement

__all__ = [
    "BlockTransform",
    "build_block_transforms",
    "ConsensusRecord",
    "consensus_residual",
    "deviation_bounds",
    "lyapunov_value",
    "AgentCost",
    "CostReport",
    "cost_accounting",
]


# ---------------------------------------------------------------------------
# Block transforms and the Lyapunov equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTransform:
    """Per-block change of coordinates: ``basis`` spans the disagreement
    subspace, ``reduced_laplacian`` is the block Laplacian in that basis, and
    ``lyapunov_matrix`` solves P A + A P = I for it.  The basis is the
    Laplacian's own eigenbasis, so both matrices are diagonal."""

    basis: np.ndarray
    reduced_laplacian: np.ndarray
    lyapunov_matrix: np.ndarray


def build_block_transforms(game: Game) -> dict[tuple[int, int], BlockTransform]:
    """One transform per estimation block: on the eigenbasis of the block's
    reduced Laplacian, with eigenvalues ``lam``, P = diag(1 / (2 lam)).
    Raises ValueError, naming the block, where its communication graph is
    disconnected or its spectrum is not resolved in double precision: the
    smallest eigenvalue at most ``size * eps`` times the largest."""
    out = {}
    eps = np.finfo(float).eps
    for b in game.layout.blocks:
        name = f"block ({b.coalition},{b.k})"
        if not is_connected(game.coalitions[b.coalition - 1].comm.induced(b.members)):
            raise ValueError(
                f"the energy value needs the communication graph of {name} connected"
            )
        householder = orthonormal_complement(b.size)
        lap = game.layout.block_laplacians[(b.coalition, b.k)]
        lam, vec = np.linalg.eigh(householder.T @ lap @ householder)
        if lam.size and not lam[0] > b.size * eps * lam[-1]:
            raise ValueError(
                f"the energy value cannot resolve the communication graph of {name}: "
                f"its Laplacian has eigenvalues {lam[0]:.3g} and {lam[-1]:.3g}"
            )
        out[(b.coalition, b.k)] = BlockTransform(
            householder @ vec, np.diag(lam), np.diag(0.5 / lam)
        )
    return out


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def _estimates(game: Game, state: SeekerState) -> tuple[np.ndarray, np.ndarray]:
    """The estimates ``g = w + cost partials`` and the partials, in slot order."""
    pvec = game.kernel(game.as_profile(state.x))
    return state.w + pvec, pvec


@dataclass(frozen=True)
class ConsensusRecord:
    gbar_norm: float
    mean_identity_error: float


def consensus_residual(game: Game, state: SeekerState) -> dict[tuple[int, int], ConsensusRecord]:
    """Per-block disagreement norm and the gap between the mean estimate and
    the block-size-normalized sum of all cost partials for that component."""
    layout = game.layout
    g, pvec = _estimates(game, state)
    means, norms = layout.block_spread(g)
    errors = np.abs(means - layout.block_spread(pvec)[0])
    return {
        (b.coalition, b.k): ConsensusRecord(gbar_norm=float(norm), mean_identity_error=float(err))
        for b, norm, err in zip(layout.blocks, norms, errors)
    }


def deviation_bounds(game: Game, state: SeekerState) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimate deviation from the block-average partial, and the tight
    per-agent bound on it: the norm of the agent's row of a disagreement
    basis, ``sqrt(1 - 1/size)`` for every row of every orthonormal one,
    times the block disagreement norm.  Both arrays are in slot order
    (``Layout.keys``)."""
    layout = game.layout
    sizes = layout.block_sizes
    g, pvec = _estimates(game, state)
    norms = layout.block_spread(g)[1]
    deviation = np.abs(g - np.repeat(layout.block_spread(pvec)[0], sizes))
    bound = np.repeat(np.sqrt(1.0 - 1.0 / sizes) * norms, sizes)
    return deviation, bound


def lyapunov_value(
    game: Game,
    state: SeekerState,
    x_star,
    transforms: dict[tuple[int, int], BlockTransform],
    g: np.ndarray | None = None,
) -> float:
    """Energy along trajectories: disagreement quadratic forms plus the
    weighted squared distance of the actions from the reference profile.
    ``g`` is the state's estimates ``w + partials``, where the caller has
    them (the integrator's records do); else the kernel computes them."""
    x_star = game.as_profile(x_star)
    if g is None:
        g = _estimates(game, state)[0]
    total = 0.0
    for b in game.layout.blocks:
        tr = transforms[(b.coalition, b.k)]
        gbar = tr.basis.T @ g[b.start : b.stop]
        total += float(gbar @ tr.lyapunov_matrix @ gbar)
    # Blocks are in profile order, one per action.
    dbar = [d for c in game.coalitions for d in c.dbar]
    for b, d, diff in zip(game.layout.blocks, dbar, state.x - x_star):
        total += 0.5 * (b.size / d) * diff * diff
    return total


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentCost:
    coalition: int
    agent: int
    aux_proposed: int
    aux_baseline: int
    tx_proposed: int
    tx_baseline: int
    dropped: tuple[int, ...]  # components the agent does not estimate


@dataclass(frozen=True)
class CostReport:
    agents: tuple[AgentCost, ...]

    def totals(self) -> tuple[int, int, int, int]:
        acc = [0, 0, 0, 0]
        for a in self.agents:
            acc[0] += a.aux_proposed
            acc[1] += a.aux_baseline
            acc[2] += a.tx_proposed
            acc[3] += a.tx_baseline
        return tuple(acc)

    def render_text(self) -> str:
        header = f"{'agent':>8} {'aux':>9} {'aux-full':>9} {'tx/step':>9} {'tx-full':>9}  dropped"
        lines = [header, "-" * len(header)]
        for a in self.agents:
            dropped = ",".join(map(str, a.dropped)) if a.dropped else "-"
            lines.append(
                f"({a.coalition},{a.agent})".rjust(8)
                + f" {a.aux_proposed:>9} {a.aux_baseline:>9}"
                + f" {a.tx_proposed:>9} {a.tx_baseline:>9}  {dropped}"
            )
        tot = self.totals()
        lines.append("-" * len(header))
        lines.append(
            f"{'total':>8} {tot[0]:>9} {tot[1]:>9} {tot[2]:>9} {tot[3]:>9}"
        )
        return "\n".join(lines)

    def render_kv(self) -> str:
        lines = []
        for a in self.agents:
            prefix = f"agent.{a.coalition}_{a.agent}"
            lines.append(f"{prefix}.aux_proposed={a.aux_proposed}")
            lines.append(f"{prefix}.aux_baseline={a.aux_baseline}")
            lines.append(f"{prefix}.tx_proposed={a.tx_proposed}")
            lines.append(f"{prefix}.tx_baseline={a.tx_baseline}")
            lines.append(f"{prefix}.dropped={','.join(map(str, a.dropped))}")
        tot = self.totals()
        lines.append(f"total.aux_proposed={tot[0]}")
        lines.append(f"total.aux_baseline={tot[1]}")
        lines.append(f"total.tx_proposed={tot[2]}")
        lines.append(f"total.tx_baseline={tot[3]}")
        return "\n".join(lines)


def cost_accounting(game: Game) -> CostReport:
    """Per-agent storage and per-step transmission counts.

    Proposed scheme: agent j stores an estimate/auxiliary pair per component
    in its closed interference neighborhood (one per slot it holds) and
    sends each estimate to its communication neighbors inside that
    component's neighborhood graph (one per block edge it heads).
    Baseline: the same scheme on complete interference graphs, the strategy
    the reduced one is measured against: a pair per component of the whole
    coalition, and each estimate sent to every communication neighbor.
    """
    layout = game.layout
    held = np.bincount(layout.owner, minlength=game.n_actions).tolist()
    sent = np.bincount(layout.owner[layout.edges[0]], minlength=game.n_actions).tolist()
    # estimated[a, k]: agent a (profile order) estimates component k.
    estimated = np.zeros((game.n_actions, max(game.sizes) + 1), dtype=bool)
    estimated[layout.owner, [k for _, _, k in layout.keys]] = True
    agents = []
    for i, c in enumerate(game.coalitions, start=1):
        for j in range(1, c.m + 1):
            a = len(agents)
            agents.append(
                AgentCost(
                    coalition=i,
                    agent=j,
                    aux_proposed=2 * held[a],
                    aux_baseline=2 * c.m,
                    tx_proposed=sent[a],
                    tx_baseline=c.m * c.comm.degree(j),
                    dropped=tuple((np.flatnonzero(~estimated[a, 1 : c.m + 1]) + 1).tolist()),
                )
            )
    return CostReport(agents=tuple(agents))
