"""Seeded scenario generators for the benchmark workloads.

Each generator returns a ``coalseek/scenario-v1`` document (a plain dict ready
for ``json.dump``); the program under test only ever sees that file.  The same
seed always gives the same document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from coalseek.expr import render
from coalseek.game import FlowAgent, build_congestion_game

SCHEMA = "coalseek/scenario-v1"


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (1 if i < total % parts else 0) for i in range(parts)]


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    # Four decimals keep the cost strings short; the closed form uses the
    # same rounded values the program parses.
    return round(float(rng.uniform(lo, hi)), 4)


@dataclass(frozen=True)
class RingGame:
    """A ring scenario and its affine pseudo-gradient ``P(x) = M x + b``."""

    doc: dict
    matrix: np.ndarray
    offset: np.ndarray

    def equilibrium(self) -> np.ndarray:
        return np.linalg.solve(self.matrix, -self.offset)


def ring_game(
    seed: int,
    agents: int = 1000,
    coalitions: int = 4,
    *,
    horizon: float = 200.0,
    stop_tol: float | None = 1e-8,
) -> RingGame:
    """Quadratic game whose coalitions are rings.

    Agent ``(i, j)`` pays ``h x_ij^2 + b x_ij + e x_ij (x_i,j-1 + x_i,j+1)
    + c x_ij x_i',j`` where ``i'`` is the next coalition, so interference and
    communication are both the ring and every estimation block has size 3.
    Communication edges have weight 4, so consensus settles about as fast as
    the actions do and a run stops after roughly 200 steps.
    Coefficients keep the symmetric part of ``M`` strictly diagonally
    dominant (diagonal >= 10, off-diagonal row sum <= 0.85), so the game is
    strongly monotone and ``M x + b = 0`` is its unique equilibrium.
    """
    rng = np.random.default_rng(seed)
    sizes = _split(agents, coalitions)
    if min(sizes) < 3:
        raise ValueError("every ring needs at least 3 agents")
    row_of = {}
    for i, m in enumerate(sizes, start=1):
        for j in range(1, m + 1):
            row_of[(i, j)] = len(row_of)
    matrix = np.zeros((agents, agents))
    offset = np.zeros(agents)
    blocks = []
    for i, m in enumerate(sizes, start=1):
        nxt = i % coalitions + 1
        costs = []
        for j in range(1, m + 1):
            prev, succ = (j - 2) % m + 1, j % m + 1
            h = _coef(rng, 5.0, 5.5)
            b = _coef(rng, -1.0, 1.0)
            e = _coef(rng, 0.15, 0.2)
            row = row_of[(i, j)]
            matrix[row, row] += 2.0 * h
            offset[row] += b
            for k in (prev, succ):
                matrix[row, row_of[(i, k)]] += e
                matrix[row_of[(i, k)], row] += e
            text = (
                f"{h}*x{i}_{j}^2 + {b}*x{i}_{j}"
                f" + {e}*x{i}_{j}*(x{i}_{prev} + x{i}_{succ})"
            )
            if coalitions > 1:
                c = _coef(rng, 0.02, 0.05)
                partner = min(j, sizes[nxt - 1])
                matrix[row, row_of[(nxt, partner)]] += c
                text += f" + {c}*x{i}_{j}*x{nxt}_{partner}"
            costs.append(text)
        blocks.append(
            {"costs": costs, "communication": [[j, j % m + 1, 4] for j in range(1, m + 1)]}
        )
    doc = {
        "schema": SCHEMA,
        "name": f"ring-{agents}-seed{seed}",
        "delta": 1.0,
        "coalitions": blocks,
        "integrator": {
            "method": "rk4",
            "step": 0.05,
            "horizon": horizon,
            "record_stride": 10,
            "stop_tol": stop_tol,
        },
        "initial_x": [_coef(rng, -1.0, 1.0) for _ in range(agents)],
        "seed": seed,
    }
    return RingGame(doc=doc, matrix=matrix, offset=offset)


def congestion_network(
    seed: int,
    coalitions: int = 4,
    agents_per_coalition: int = 12,
) -> dict:
    """Flow-control game on a random 3-link-path network of fixed shape.

    Consecutive agents of a coalition share a private chain link, so every
    coalition's interference graph is a path and hence connected.  Each path
    is topped up to three links from a pool of shared links; every shared
    link carries exactly one agent of each coalition, chosen by a random
    permutation per coalition.  So every seed gives the same expression sizes
    and the same estimate count, and only the meeting pattern, capacities and
    utility weights change.  Capacities leave room for every sharer to send
    5 units, and the initial flows lie in [1.5, 2.5], so the +-2 box that
    ``check`` samples stays inside every ``log(x + 1)`` and
    ``kappa / (capacity - load)`` domain.
    """
    m = agents_per_coalition
    # Agents 1 and m have one chain link, so they take two shared links.
    slots = [1] + list(range(1, m + 1)) + [m]
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(1, coalitions + 1):
        order = rng.permutation(len(slots))
        shared = {j: [] for j in range(1, m + 1)}
        for link, slot in enumerate(order, start=1):
            shared[slots[slot]].append(f"s{link}")
        for j in range(1, m + 1):
            chain = [f"c{i}_{k}" for k in (j - 1, j) if 1 <= k < m]
            path = tuple(chain + sorted(shared[j]))
            agents.append(FlowAgent(i, path, _coef(rng, 8.0, 12.0)))
    sharers: dict[str, int] = {}
    for a in agents:
        for name in a.path:
            sharers[name] = sharers.get(name, 0) + 1
    links = {name: 5.0 * s + _coef(rng, 2.0, 6.0) for name, s in sorted(sharers.items())}
    game = build_congestion_game(links, agents, kappa=10.0, delta=1.0)
    n = game.n_actions
    return {
        "schema": SCHEMA,
        "name": f"congestion-net-seed{seed}",
        "delta": game.delta,
        "coalitions": [
            {
                "costs": [render(f) for f in c.costs],
                "communication": [[j, l] for j, l in c.comm.edge_pairs()],
            }
            for c in game.coalitions
        ],
        "integrator": {
            "method": "rk4",
            "step": 0.05,
            "horizon": 200.0,
            "record_stride": 100,
            "stop_tol": None,
        },
        "initial_x": [_coef(rng, 1.5, 2.5) for _ in range(n)],
        "seed": seed,
    }
