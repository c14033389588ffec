"""Multi-coalition game model.

A game is a tuple of coalitions; each coalition carries one scalar cost per
agent, per-agent gains, a communication graph and an interference graph.  The
interference graph must cover the actual same-coalition dependencies of the
costs, which is validated at construction.  All evaluation helpers work on a
flat action profile ordered coalition-major: (1,1), (1,2), ..., (N, m_N),
through two compiled kernels.  ``Game.kernel`` computes the cost partials,
which the dynamics, the pseudo-gradient and the diagnostics read, and
guards the costs' operations that can fail; ``Game.cost_kernel`` computes
the costs followed by the partials, and is compiled only when something
reads a cost.  Both raise ``DomainError`` outside the game's domain under
the compiler's rule.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    TEMPLATE_MIN_TREES,
    Binary,
    Const,
    Expression,
    Unary,
    Var,
    all_finite,
    compile_vector_function,
    free_variables,
    # Bound as ``differentiate``: ``bench/tracing.py`` times each pass by that name.
    gradient as differentiate,
    gradient_shaped,
    shape,
    template_key,
    templates_for,
)
from .graphs import Graph, laplacian

__all__ = [
    "Coalition",
    "Game",
    "GameError",
    "Block",
    "Layout",
    "FlowAgent",
    "action_name",
    "split_action_name",
    "infer_interference_graph",
    "pseudo_gradient",
    "coalition_cost",
    "build_congestion_game",
]

_ACTION_SPLIT = re.compile(r"x([1-9]\d*)_([1-9]\d*)\Z")


class GameError(ValueError):
    pass


def action_name(i: int, j: int) -> str:
    return f"x{i}_{j}"


def split_action_name(name: str) -> tuple[int, int] | None:
    """(coalition, agent) for a canonical action identifier, else None."""
    m = _ACTION_SPLIT.match(name)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class Coalition:
    """One coalition: per-agent costs, gains and graphs on agents 1..m.

    ``forms`` holds each cost's shape (see ``expr.shape``), in cost order:
    the ``shapes`` passed where the caller has them (loading reads them
    from each cost's tokens), else one walk of each tree.
    ``dataclasses.replace`` passes no ``shapes``, so it derives them from
    the new costs."""

    costs: tuple[Expression, ...]
    dbar: tuple[float, ...]
    comm: Graph
    interference: Graph
    shapes: InitVar[Sequence[tuple[str, tuple, tuple]] | None] = None
    forms: tuple[tuple[str, tuple, tuple], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self, shapes):
        object.__setattr__(self, "forms", tuple(shapes or map(shape, self.costs)))

    @property
    def m(self) -> int:
        return len(self.costs)

    @property
    def reads(self) -> tuple[frozenset[str], ...]:
        """The set of names each cost reads."""
        return tuple([frozenset(names) for _, _, names in self.forms])


@dataclass(frozen=True)
class Block:
    """Estimation block for one gradient component: coalition ``i``,
    component ``k``, and the agents holding an estimate of it."""

    coalition: int
    k: int
    members: tuple[int, ...]
    start: int  # slice of the flat auxiliary vector

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def stop(self) -> int:
        return self.start + self.size


@dataclass(frozen=True)
class Game:
    coalitions: tuple[Coalition, ...]
    delta: float = 0.1

    def __post_init__(self):
        if not self.coalitions:
            raise GameError("a game needs at least one coalition")
        if not (0 < self.delta < math.inf):
            raise GameError("delta must be positive and finite")
        for i, c in enumerate(self.coalitions, start=1):
            m = c.m
            if m < 1:
                raise GameError(f"coalition {i} has no agents")
            if len(c.dbar) != m:
                raise GameError(f"coalition {i}: dbar length != number of agents")
            if any(not (d > 0) for d in c.dbar):
                raise GameError(f"coalition {i}: gains must be positive")
            expected = tuple(range(1, m + 1))
            for label, g in (("communication", c.comm), ("interference", c.interference)):
                if g.vertices != expected:
                    raise GameError(
                        f"coalition {i}: {label} graph must be on vertices 1..{m}"
                    )
        self.supports  # validates every cost's reads

    # -- indexing ----------------------------------------------------------

    @property
    def n_coalitions(self) -> int:
        return len(self.coalitions)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.m for c in self.coalitions)

    @cached_property
    def n_actions(self) -> int:
        return sum(self.sizes)

    @cached_property
    def var_names(self) -> tuple[str, ...]:
        return tuple(
            action_name(i, j)
            for i, c in enumerate(self.coalitions, start=1)
            for j in range(1, c.m + 1)
        )

    @cached_property
    def var_index(self) -> dict[str, int]:
        return {name: idx for idx, name in enumerate(self.var_names)}

    def action_index(self, i: int, j: int) -> int:
        return self.var_index[action_name(i, j)]

    def as_profile(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n_actions,):
            raise GameError(f"profile must have {self.n_actions} entries")
        if not all_finite(arr):
            raise GameError("profile entries must be finite")
        return arr

    # -- derivative cache and block layout ----------------------------------

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """For each cost, in profile order, the ascending profile indices of
        the actions it reads.  Raises GameError at the first name, in sorted
        order, that is no action or that the interference graph excludes."""
        out = []
        first = 0  # profile index of agent (i, 1)
        for i, c in enumerate(self.coalitions, start=1):
            for j, names in enumerate(c.reads, start=1):
                cols = []
                for name in sorted(names):
                    col = self.var_index.get(name)
                    if col is None:
                        raise GameError(
                            f"cost of agent ({i},{j}) references unknown action '{name}'"
                        )
                    k = col - first + 1  # the agent of a name of coalition i
                    if 1 <= k <= c.m and k != j and not c.interference.has_edge(j, k):
                        raise GameError(
                            f"cost of agent ({i},{j}) depends on x{i}_{k} but the "
                            f"interference graph of coalition {i} has no edge ({j},{k})"
                        )
                    cols.append(col)
                out.append(tuple(sorted(cols)))
            first += c.m
        return tuple(out)

    @cached_property
    def templates(self) -> tuple[int | None, ...]:
        """For each cost, in profile order, the number of its derivatives'
        template in its coalition's names, one per ``expr.template_key``,
        or None where too few costs share its skeleton to share a
        template.  A number hashes in one step, where a key hashes every
        item it holds."""
        skeletons = Counter(form[0] for c in self.coalitions for form in c.forms)
        powers: dict = {}
        out = []
        for i, c in enumerate(self.coalitions, start=1):
            own = frozenset(action_name(i, k) for k in range(1, c.m + 1))
            for form in c.forms:
                enough = skeletons[form[0]] >= TEMPLATE_MIN_TREES
                out.append(template_key(form, own, powers) if enough else None)
        number: dict = {None: None}
        return tuple([number.setdefault(key, len(number) - 1) for key in out])

    @cached_property
    def partial_templates(self) -> tuple[tuple | None, ...]:
        """For each partial, in slot order, the key of its template: its
        cost's key in ``templates`` and the first leaf of the name it is
        differentiated in (None where the cost reads no such name), or
        None where its cost has no key."""
        templates, names = self.templates, self.var_names
        leaves = [names for c in self.coalitions for *_, names in c.forms]
        columns = map(names.__getitem__, self.layout.column.tolist())
        return tuple([
            None if templates[owner] is None
            else (templates[owner], leaves[owner].index(name) if name in leaves[owner] else None)
            for owner, name in zip(self.layout.owner.tolist(), columns)
        ])

    @cached_property
    def partials(self) -> dict[tuple[int, int, int], Expression]:
        """Symbolic d f_ij / d x_ik for every stored estimate index (i, j, k),
        in slot order (``Layout.keys``), each cost differentiated in its
        coalition's names once per template."""
        seen = templates_for(self.templates)
        templates = iter(self.templates)
        grads = []
        for i, c in enumerate(self.coalitions, start=1):
            own = {action_name(i, k) for k in range(1, c.m + 1)}
            grads += [gradient_shaped(f, own, next(templates), seen, differentiate) for f in c.costs]
        names, layout = self.var_names, self.layout
        out = {}
        for key, owner, column in zip(layout.keys, layout.owner.tolist(), layout.column.tolist()):
            derivs, zero = grads[owner]
            out[key] = derivs.get(names[column], zero)
        return out

    @cached_property
    def layout(self) -> "Layout":
        return Layout(self.coalitions)

    @cached_property
    def costs(self) -> tuple[Expression, ...]:
        """Every cost, in profile order."""
        return tuple(f for c in self.coalitions for f in c.costs)

    @cached_property
    def kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        """The game's compiled partials: the flat partial vector (slot
        order) at a profile.  The game's domain is where every cost and
        every partial is finite.  This raises DomainError, naming the first
        cost or partial that fails, where a partial is not finite or an
        operation of a cost fails; it may return where a cost computes a
        non-finite value with no failing operation (see
        ``compile_vector_function``)."""
        return compile_vector_function(
            tuple(self.partials.values()), self.var_names,
            partial(_kernel_label, self.var_names, self.layout.keys), guarded=self.costs,
            keys=self.templates + self.partial_templates,
        )

    @cached_property
    def cost_kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        """The game's compiled costs and partials: every agent's cost
        (profile order), then the flat partial vector (slot order), at a
        profile, with DomainError, named as ``kernel`` names it, where a
        cost or a partial is not finite.  Compiled on first use, so
        integrating or solving never builds it."""
        return compile_vector_function(
            self.costs + tuple(self.partials.values()), self.var_names,
            partial(_kernel_label, self.var_names, self.layout.keys),
            keys=self.templates + self.partial_templates,
        )

    @cached_property
    def audit_plan(self):
        """The gradient audit's coloring of the action columns
        (``oracle.AuditPlan``), built on the first audit, so integrating,
        solving and counting costs never build it."""
        from .oracle import AuditPlan

        return AuditPlan(self)


def _kernel_label(names: tuple[str, ...], keys: tuple, pos: int) -> str:
    """Names position ``pos`` of the costs, one per name of ``names``,
    followed by the partials, one per slot key of ``keys``.  The kernels
    bind it to the game's names and keys, not to the game, so a kernel keeps
    no game alive."""
    if pos < len(names):
        i, j = split_action_name(names[pos])
        return f"the cost of agent ({i},{j})"
    i, j, k = keys[pos - len(names)]
    return f"the partial of the cost of agent ({i},{j}) in {action_name(i, k)}"


class Layout:
    """Flat storage layout of the per-block auxiliary/estimate vectors.

    Entries are ordered block-major: coalitions in order, components k in
    order, members j of k's closed interference neighborhood sorted within
    the block.  Slot ``s`` is agent j's estimate ``keys[s] = (i, j, k)``;
    ``owner[s]`` is the profile index of the cost (i, j) and ``column[s]``
    that of the action (i, k) it is differentiated in.
    """

    def __init__(self, coalitions: Sequence[Coalition]):
        blocks, keys, owner, column = [], [], [], []
        first = 0  # profile index of agent (i, 1)
        for i, c in enumerate(coalitions, start=1):
            for k in range(1, c.m + 1):
                members = tuple(sorted(set(c.interference.neighbors(k)) | {k}))
                blocks.append(Block(coalition=i, k=k, members=members, start=len(keys)))
                for j in members:
                    keys.append((i, j, k))
                    owner.append(first + j - 1)
                    column.append(first + k - 1)
            first += c.m
        self.coalitions = tuple(coalitions)
        self.blocks: tuple[Block, ...] = tuple(blocks)
        self.keys = tuple(keys)
        self.owner = np.array(owner, dtype=np.intp)
        self.column = np.array(column, dtype=np.intp)
        self.slots = {key: slot for slot, key in enumerate(keys)}
        self.size = len(keys)

    def slot(self, i: int, j: int, k: int) -> int:
        return self.slots[(i, j, k)]

    @cached_property
    def block_laplacians(self) -> dict[tuple[int, int], np.ndarray]:
        out = {}
        for b in self.blocks:
            comm = self.coalitions[b.coalition - 1].comm
            out[(b.coalition, b.k)] = laplacian(comm.induced(b.members))
        return out

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed communication edges inside every block, in slot
        coordinates: ``(head, tail, weight)``, one entry per ordered pair of
        adjacent members, sorted by head then tail.  With these,
        ``-L g = bincount(head, weight * (g[tail] - g[head]), size)`` for the
        block-diagonal Laplacian ``L``.  Each entry is one estimate sent per
        step, and every edge appears in both directions, so the entries
        counted by the agent holding the head slot are the traffic
        ``tx_proposed`` of ``analysis.cost_accounting``."""
        head: list[int] = []
        tail: list[int] = []
        weight: list[float] = []
        for b in self.blocks:
            comm = self.coalitions[b.coalition - 1].comm
            slot_of = {j: b.start + pos for pos, j in enumerate(b.members)}
            for j in b.members:
                for l in comm.neighbors(j):
                    if l in slot_of:
                        head.append(slot_of[j])
                        tail.append(slot_of[l])
                        weight.append(comm.weight(j, l))
        return (
            np.array(head, dtype=np.intp),
            np.array(tail, dtype=np.intp),
            np.array(weight, dtype=float),
        )

    @cached_property
    def block_starts(self) -> np.ndarray:
        """First slot of each block.  Blocks are in profile order, so
        ``np.add.reduceat(pvec, block_starts)`` is the pseudo-gradient."""
        return np.array([b.start for b in self.blocks], dtype=np.intp)

    @cached_property
    def block_sizes(self) -> np.ndarray:
        """Member count of each block."""
        return np.array([b.size for b in self.blocks], dtype=np.intp)

    def block_means(self, g: np.ndarray) -> np.ndarray:
        """Per-block mean of the slot vectors ``g`` along its last axis, in
        block order."""
        return np.add.reduceat(g, self.block_starts, axis=-1) / self.block_sizes

    def block_spread(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-block mean of the slot vectors ``g`` along its last axis and
        2-norm of ``g`` minus that mean, in block order; a singleton block's
        norm is exactly 0.  For any orthonormal basis B of the block's
        disagreement subspace (the complement of the all-ones vector) the
        norm is ``|B^T g|``.  Each row of a matrix ``g`` gets the bits it
        gets alone."""
        means = self.block_means(g)
        dev = g - np.repeat(means, self.block_sizes, axis=-1)
        return means, np.sqrt(np.add.reduceat(dev * dev, self.block_starts, axis=-1))

    @cached_property
    def own_slots(self) -> np.ndarray:
        """Slot of (i, j, j) for each action, in profile order."""
        return np.flatnonzero(self.owner == self.column)


# ---------------------------------------------------------------------------
# Game-level evaluations
# ---------------------------------------------------------------------------


def infer_interference_graph(
    costs: Sequence[Expression],
    coalition: int,
    reads: Sequence[Iterable[str]] | None = None,
) -> Graph:
    """Dependency graph of one coalition: agents j and k are adjacent iff the
    cost of j depends on the action of k or vice versa (syntactically).
    ``reads`` holds the names each cost reads, where the caller has them;
    without it, each tree is walked for them."""
    m = len(costs)
    if reads is None:
        reads = [free_variables(f) for f in costs]
    agent = {action_name(coalition, k): k for k in range(1, m + 1)}
    edges = set()
    for j, names in enumerate(reads, start=1):
        for name in names:
            k = agent.get(name, j)
            if k != j:
                edges.add((min(j, k), max(j, k)))
    return Graph.build(range(1, m + 1), sorted(edges))


def pseudo_gradient(game: Game, x) -> np.ndarray:
    """Stacked gradient of each coalition's cost in its own action block,
    entry (i, k) summed over the closed interference neighborhood of k."""
    pvec = game.kernel(game.as_profile(x))
    return np.add.reduceat(pvec, game.layout.block_starts)


def coalition_cost(game: Game, i: int, x) -> float:
    if not 1 <= i <= game.n_coalitions:
        raise GameError(f"no coalition {i}")
    costs = game.cost_kernel(game.as_profile(x))
    start = sum(game.sizes[: i - 1])
    return sum(costs[start : start + game.sizes[i - 1]].tolist())


# ---------------------------------------------------------------------------
# Congestion-game builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowAgent:
    """A flow-routing agent: coalition label, path as a tuple of link names,
    and the utility weight on its own logarithmic throughput term."""

    coalition: int
    path: tuple[str, ...]
    u: float


def build_congestion_game(
    links: Mapping[str, float] | Iterable[tuple[str, float]],
    agents: Sequence[FlowAgent],
    kappa: float,
    delta: float = 0.1,
) -> Game:
    """Congestion game over a shared-link network.

    Each agent pays, per link on its path, ``kappa / (capacity - load)`` where
    the load is the total flow of every agent (any coalition) routing through
    the link, minus ``u * log(own flow + 1)``.  Interference graphs are
    inferred from shared links restricted to same-coalition agents, and the
    communication graphs default to the interference graphs.
    """
    capacity = dict(links)
    for name, cap in capacity.items():
        if not (cap > 0):
            raise GameError(f"link '{name}' must have positive capacity")

    by_coalition: dict[int, list[int]] = {}
    var_of_agent: list[str] = []
    for a in agents:
        if a.coalition < 1:
            raise GameError("coalition labels must be positive integers")
        idx = by_coalition.setdefault(a.coalition, [])
        idx.append(len(var_of_agent))
        var_of_agent.append(action_name(a.coalition, len(idx)))
    n = len(by_coalition)
    if sorted(by_coalition) != list(range(1, n + 1)):
        raise GameError("coalition labels must be contiguous 1..N")

    # Total flow per link, in coalition-major agent order.
    sharers: dict[str, list[str]] = {name: [] for name in capacity}
    order = sorted(range(len(agents)), key=lambda t: (agents[t].coalition, t))
    for t in order:
        for name in agents[t].path:
            if name not in capacity:
                raise GameError(
                    f"agent {var_of_agent[t]} routes through unknown link '{name}'"
                )
            sharers[name].append(var_of_agent[t])

    def load_term(name: str) -> Expression:
        expr: Expression = Const(float(capacity[name]))
        for vname in sharers[name]:
            expr = Binary("sub", expr, Var(vname))
        return Binary("div", Const(float(kappa)), expr)

    coalitions = []
    for i in range(1, n + 1):
        costs = []
        for pos, t in enumerate(by_coalition[i], start=1):
            a = agents[t]
            own = Var(action_name(i, pos))
            total: Expression | None = None
            for name in a.path:
                term = load_term(name)
                total = term if total is None else Binary("add", total, term)
            if total is None:
                raise GameError(f"agent {action_name(i, pos)} has an empty path")
            barrier = Binary(
                "mul",
                Const(float(a.u)),
                Unary("log", Binary("add", own, Const(1.0))),
            )
            costs.append(Binary("sub", total, barrier))
        forms = [shape(f) for f in costs]
        interference = infer_interference_graph(costs, i, [frozenset(names) for *_, names in forms])
        coalitions.append(
            Coalition(
                costs=tuple(costs),
                dbar=(1.0,) * len(costs),
                comm=interference,
                interference=interference,
                shapes=forms,
            )
        )
    return Game(coalitions=tuple(coalitions), delta=delta)
