"""Diagnostics for the seeking dynamics: disagreement coordinates per
estimation block, the per-agent deviation bound, energy values along
trajectories, and communication/computation cost accounting against the
dense-estimation baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SeekerState
from .game import Game
from .graphs import interference_to_k_graph, orthonormal_complement

__all__ = [
    "BlockTransform",
    "build_block_transforms",
    "solve_lyapunov",
    "ConsensusRecord",
    "consensus_residual",
    "DeviationRecord",
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
    ``lyapunov_matrix`` solves P A + A P = Q for it."""

    coalition: int
    k: int
    members: tuple[int, ...]
    basis: np.ndarray
    reduced_laplacian: np.ndarray
    lyapunov_matrix: np.ndarray


def solve_lyapunov(a: np.ndarray, q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Unique symmetric P with P A + A P = Q for symmetric positive definite
    A and Q, via the eigendecomposition of A."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if a.shape != q.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and Q must be square matrices of the same size")
    if a.size == 0:
        return np.zeros_like(a)
    scale_a = max(1.0, float(np.abs(a).max()))
    scale_q = max(1.0, float(np.abs(q).max()))
    if np.abs(a - a.T).max() > 1e-10 * scale_a or np.abs(q - q.T).max() > 1e-10 * scale_q:
        raise ValueError("A and Q must be symmetric")
    lam, vec = np.linalg.eigh(a)
    if lam[0] <= 0 or np.linalg.eigvalsh(q)[0] <= 0:
        raise ValueError("A and Q must be positive definite")
    q_tilde = vec.T @ q @ vec
    p_tilde = q_tilde / np.add.outer(lam, lam)
    p = vec @ p_tilde @ vec.T
    p = 0.5 * (p + p.T)
    residual = np.abs(p @ a + a @ p - q).max()
    if residual > tol * scale_q:
        raise ValueError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return p


def build_block_transforms(
    game: Game, q: np.ndarray | None = None
) -> dict[tuple[int, int], BlockTransform]:
    """One transform per estimation block; ``q`` defaults to the identity of
    each block's reduced dimension."""
    out = {}
    for b in game.layout.blocks:
        basis = orthonormal_complement(b.size)
        lap = game.layout.block_laplacians[(b.coalition, b.k)]
        reduced = basis.T @ lap @ basis
        reduced = 0.5 * (reduced + reduced.T)
        dim = b.size - 1
        q_block = np.eye(dim) if q is None else np.asarray(q, dtype=float)[:dim, :dim]
        p_block = solve_lyapunov(reduced, q_block) if dim > 0 else np.zeros((0, 0))
        out[(b.coalition, b.k)] = BlockTransform(
            coalition=b.coalition,
            k=b.k,
            members=b.members,
            basis=basis,
            reduced_laplacian=reduced,
            lyapunov_matrix=p_block,
        )
    return out


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def _estimate_blocks(game: Game, state: SeekerState):
    """Yield (block, g_block, partial_block) with g = w + cost partials."""
    pvec = game.costs_and_partials(game.as_profile(state.x))[1]
    for b in game.layout.blocks:
        seg = slice(b.start, b.stop)
        yield b, state.w[seg] + pvec[seg], pvec[seg]


@dataclass(frozen=True)
class ConsensusRecord:
    gbar_norm: float
    mean_identity_error: float


def consensus_residual(game: Game, state: SeekerState) -> dict[tuple[int, int], ConsensusRecord]:
    """Per-block disagreement norm and the gap between the mean estimate and
    the block-size-normalized sum of all cost partials for that component."""
    out = {}
    for b, g, partials in _estimate_blocks(game, state):
        basis = orthonormal_complement(b.size)
        gbar = basis.T @ g
        target = partials.sum() / b.size
        out[(b.coalition, b.k)] = ConsensusRecord(
            gbar_norm=float(np.linalg.norm(gbar)),
            mean_identity_error=float(abs(g.mean() - target)),
        )
    return out


@dataclass(frozen=True)
class DeviationRecord:
    deviation: float  # |g_ijk - block average of the cost partials|
    bound: float  # row-norm constant times the disagreement norm


def deviation_bounds(game: Game, state: SeekerState) -> dict[tuple[int, int, int], DeviationRecord]:
    """Per-estimate deviation from the block-average partial, with the tight
    per-agent bound: the norm of the agent's row of the disagreement basis
    times the block disagreement norm."""
    out = {}
    for b, g, partials in _estimate_blocks(game, state):
        basis = orthonormal_complement(b.size)
        gbar_norm = float(np.linalg.norm(basis.T @ g))
        avg = partials.sum() / b.size
        for pos, j in enumerate(b.members):
            beta = float(np.linalg.norm(basis[pos]))
            out[(b.coalition, j, b.k)] = DeviationRecord(
                deviation=float(abs(g[pos] - avg)),
                bound=beta * gbar_norm,
            )
    return out


def lyapunov_value(
    game: Game,
    state: SeekerState,
    x_star,
    transforms: dict[tuple[int, int], BlockTransform],
) -> float:
    """Energy along trajectories: disagreement quadratic forms plus the
    weighted squared distance of the actions from the reference profile."""
    x_star = game.as_profile(x_star)
    total = 0.0
    for b, g, _ in _estimate_blocks(game, state):
        tr = transforms[(b.coalition, b.k)]
        gbar = tr.basis.T @ g
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

    def coalition_totals(self) -> dict[int, tuple[int, int, int, int]]:
        out: dict[int, list[int]] = {}
        for a in self.agents:
            acc = out.setdefault(a.coalition, [0, 0, 0, 0])
            acc[0] += a.aux_proposed
            acc[1] += a.aux_baseline
            acc[2] += a.tx_proposed
            acc[3] += a.tx_baseline
        return {i: tuple(v) for i, v in out.items()}

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
    in its closed interference neighborhood and sends each estimate to its
    communication neighbors inside that component's neighborhood graph.
    Baseline: a pair per component of the whole coalition, with both values
    sent to every communication neighbor.
    """
    agents = []
    for i, c in enumerate(game.coalitions, start=1):
        for j in range(1, c.m + 1):
            hood = set(c.interference.neighbors(j)) | {j}
            dropped = tuple(k for k in range(1, c.m + 1) if k not in hood)
            tx = 0
            for k in sorted(hood):
                sub = interference_to_k_graph(c.comm, c.interference, k)
                if j in sub.vertices:
                    tx += sub.degree(j)
            agents.append(
                AgentCost(
                    coalition=i,
                    agent=j,
                    aux_proposed=2 * len(hood),
                    aux_baseline=2 * c.m,
                    tx_proposed=tx,
                    tx_baseline=2 * c.m * c.comm.degree(j),
                    dropped=dropped,
                )
            )
    return CostReport(agents=tuple(agents))
