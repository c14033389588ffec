"""Diagnostics for the seeking dynamics: disagreement coordinates per
estimation block, the per-agent deviation bound, energy values along
trajectories, and communication/computation cost accounting against the
dense-estimation baseline."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import SeekerState
from .expr import DomainError
from .game import Game, Layout
from .graphs import is_connected, orthonormal_complement
from .oracle import block_rows

__all__ = [
    "BlockTransform",
    "build_block_transforms",
    "ConsensusRecord",
    "consensus_residual",
    "deviation_bounds",
    "deviation_spot_checks",
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
    errors = np.abs(means - layout.block_means(pvec))
    return {
        (b.coalition, b.k): ConsensusRecord(gbar_norm=float(norm), mean_identity_error=float(err))
        for b, norm, err in zip(layout.blocks, norms, errors)
    }


def deviation_bounds(game: Game, state: SeekerState) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimate deviation from the block-average partial, and the tight
    per-agent bound on it: the norm of the agent's row of a disagreement
    basis, ``sqrt(1 - 1/size)`` for every row of every orthonormal one,
    times the block disagreement norm.  Both arrays are in slot order
    (``Layout.keys``).  This is one row of ``_deviation_rows``."""
    pvec = game.kernel(game.as_profile(state.x))
    return _deviation_rows(game.layout, state.w, pvec)


def _deviation_rows(layout: Layout, w: np.ndarray, pvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``deviation_bounds`` of the auxiliaries ``w`` at the partials
    ``pvec``, along their last axis: each row of matrices gets the bits it
    gets alone."""
    sizes = layout.block_sizes
    g = w + pvec
    deviation = np.abs(g - np.repeat(layout.block_means(pvec), sizes, axis=-1))
    bound = np.repeat(np.sqrt(1.0 - 1.0 / sizes) * layout.block_spread(g)[1], sizes, axis=-1)
    return deviation, bound


def deviation_spot_checks(
    game: Game, base, rng: np.random.Generator, samples: int
) -> tuple[list[float], int]:
    """``check``'s spot checks of the deviation bound.  Each of ``samples``
    states is drawn in turn: a profile uniform within 1 of ``base``, then
    auxiliaries standard normal, less their block means.  Returns the
    largest excess of a deviation over its bound of each state in the
    domain (0.0 where none exceeds it; a NaN excess is passed over), in
    draw order, and the number of states outside the domain.

    The states are checked a block at a time (``oracle.block_rows``): the
    draws and the kernel calls are per state, in order, and the rest is one
    array pass per block."""
    base = game.as_profile(base)
    layout = game.layout
    n, size = game.n_actions, layout.size
    gaps: list[float] = []
    outside = 0
    rows = block_rows(size)
    for start in range(0, samples, rows):
        k = min(rows, samples - start)
        offsets, w, pvec = np.empty((k, n)), np.empty((k, size)), np.empty((k, size))
        for r in range(k):
            offsets[r] = rng.uniform(-1.0, 1.0, n)
            w[r] = rng.normal(size=size)
        kept = []
        # Within 1 of a finite base, every profile is finite.
        for r, x in enumerate(base + offsets):
            try:
                pvec[len(kept)] = game.kernel(x)
            except DomainError:
                outside += 1
                continue
            kept.append(r)
        w = w[kept]
        w -= np.repeat(layout.block_means(w), layout.block_sizes, axis=-1)
        deviation, bound = _deviation_rows(layout, w, pvec[: len(kept)])
        gaps += np.fmax.reduce(deviation - bound, axis=-1, initial=0.0).tolist()
    return gaps, outside


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
    held: tuple[int, ...]  # components the agent estimates, ascending
    coalition_size: int

    @property
    def dropped(self) -> tuple[int, ...]:
        """Components the agent does not estimate, ascending."""
        held = set(self.held)
        return tuple(k for k in range(1, self.coalition_size + 1) if k not in held)


class _Labels:
    """The text ``"1,2,...,m,"`` of one coalition size ``m``, with
    ``starts[k - 1]`` the offset of label ``k`` and ``starts[m]`` its
    length, so that any run of consecutive labels is one slice."""

    def __init__(self, m: int):
        labels = [f"{k}," for k in range(1, m + 1)]
        self.text = "".join(labels)
        self.starts = [0, *itertools.accumulate(map(len, labels))]

    def unheld(self, held: tuple[int, ...]) -> list[str]:
        """Slices of ``text`` that spell, comma-separated, the labels not in
        ``held`` (ascending): one slice per gap between held components."""
        text, starts = self.text, self.starts
        out = []
        p = 0  # the last held component, 0 before the first
        for k in held:
            if k > p + 1:
                out.append(text[starts[p] : starts[k - 1]])
            p = k
        if p + 1 < len(starts):
            out.append(text[starts[p] : -1])  # the tail, less its final comma
        elif out:
            out[-1] = out[-1][:-1]
        return out


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

    def _dropped(self) -> Iterator[tuple[AgentCost, list[str]]]:
        """Each agent with the slices that spell its dropped components."""
        labels: dict[int, _Labels] = {}
        for a in self.agents:
            if a.coalition_size not in labels:
                labels[a.coalition_size] = _Labels(a.coalition_size)
            yield a, labels[a.coalition_size].unheld(a.held)

    def text_chunks(self) -> Iterator[str]:
        """The text report: the header, one row per agent, then the totals,
        each chunk ending in a newline."""
        header = f"{'agent':>8} {'aux':>9} {'aux-full':>9} {'tx/step':>9} {'tx-full':>9}  dropped"
        rule = "-" * len(header)
        yield f"{header}\n{rule}\n"
        for a, dropped in self._dropped():
            head = (
                f"{f'({a.coalition},{a.agent})':>8} {a.aux_proposed:>9} {a.aux_baseline:>9}"
                f" {a.tx_proposed:>9} {a.tx_baseline:>9}  "
            )
            yield "".join([head, *(dropped or ["-"]), "\n"])
        tot = self.totals()
        yield f"{rule}\n{'total':>8} {tot[0]:>9} {tot[1]:>9} {tot[2]:>9} {tot[3]:>9}\n"

    def kv_chunks(self) -> Iterator[str]:
        """The kv report: five lines per agent, then the totals, each chunk
        ending in a newline."""
        for a, dropped in self._dropped():
            p = f"agent.{a.coalition}_{a.agent}"
            head = (
                f"{p}.aux_proposed={a.aux_proposed}\n{p}.aux_baseline={a.aux_baseline}\n"
                f"{p}.tx_proposed={a.tx_proposed}\n{p}.tx_baseline={a.tx_baseline}\n{p}.dropped="
            )
            yield "".join([head, *dropped, "\n"])
        tot = self.totals()
        yield (
            f"total.aux_proposed={tot[0]}\ntotal.aux_baseline={tot[1]}\n"
            f"total.tx_proposed={tot[2]}\ntotal.tx_baseline={tot[3]}\n"
        )

    def render_text(self) -> str:
        return "".join(self.text_chunks())[:-1]

    def render_kv(self) -> str:
        return "".join(self.kv_chunks())[:-1]


def cost_accounting(game: Game) -> CostReport:
    """Per-agent storage and per-step transmission counts.

    Proposed scheme: agent j stores an estimate/auxiliary pair per component
    in its closed interference neighborhood (one per slot it holds) and
    sends each estimate to its communication neighbors inside that
    component's neighborhood graph (one per block edge it heads).
    Baseline: the same scheme on complete interference graphs, the strategy
    the reduced one is measured against: a pair per component of the whole
    coalition, and each estimate sent to every communication neighbor.

    Each agent keeps the components it holds, O(slots) in all, where the
    ones it drops would be O(agents * coalition size).  Its sends are
    counted from its communication neighbors in each of its blocks, with no
    edge weight read (``Layout.edges`` holds the same edges, weighted).
    """
    layout = game.layout
    slots = np.bincount(layout.owner, minlength=game.n_actions).tolist()
    sent = [0] * game.n_actions
    owner = layout.owner.tolist()
    adjacent = [{j: set(c.comm.neighbors(j)) for j in c.comm.vertices} for c in game.coalitions]
    for b in layout.blocks:
        members, neighbors = set(b.members), adjacent[b.coalition - 1]
        for slot, j in enumerate(b.members, start=b.start):
            sent[owner[slot]] += len(neighbors[j] & members)
    # Slot keys (i, j, k), grouped by agent; k ascends within each.
    components = [layout.keys[s][2] for s in np.argsort(layout.owner, kind="stable").tolist()]
    ends = list(itertools.accumulate(slots))
    agents = []
    for i, c in enumerate(game.coalitions, start=1):
        for j in range(1, c.m + 1):
            a = len(agents)
            agents.append(
                AgentCost(
                    coalition=i,
                    agent=j,
                    aux_proposed=2 * slots[a],
                    aux_baseline=2 * c.m,
                    tx_proposed=sent[a],
                    tx_baseline=c.m * c.comm.degree(j),
                    held=tuple(components[ends[a] - slots[a] : ends[a]]),
                    coalition_size=c.m,
                )
            )
    return CostReport(agents=tuple(agents))
