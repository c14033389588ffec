"""The cost report renders each agent's dropped components from the ones it
holds, a chunk per agent.

Each check pins ``analysis.cost_accounting`` and its two renderers to a
reference kept here: the dropped components of every agent read off an
agents x components table, and each report one joined list of lines with
every label formatted on its own.
"""

import io
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from coalseek import cli
from coalseek.analysis import cost_accounting
from coalseek.corpus import random_quadratic_game
from coalseek.scenario import SCHEMA_KEY, available_presets, load_scenario, parse_scenario
from conftest import bench_generators, ring_game


def _reference_dropped(game):
    """Per agent, in profile order, the components it does not estimate."""
    layout = game.layout
    estimated = np.zeros((game.n_actions, max(game.sizes) + 1), dtype=bool)
    estimated[layout.owner, [k for _, _, k in layout.keys]] = True
    out = []
    for c in game.coalitions:
        for j in range(1, c.m + 1):
            a = len(out)
            out.append(tuple((np.flatnonzero(~estimated[a, 1 : c.m + 1]) + 1).tolist()))
    return out


def _reference_text(report, dropped):
    header = f"{'agent':>8} {'aux':>9} {'aux-full':>9} {'tx/step':>9} {'tx-full':>9}  dropped"
    lines = [header, "-" * len(header)]
    for a, d in zip(report.agents, dropped):
        d = ",".join(map(str, d)) if d else "-"
        lines.append(
            f"({a.coalition},{a.agent})".rjust(8)
            + f" {a.aux_proposed:>9} {a.aux_baseline:>9}"
            + f" {a.tx_proposed:>9} {a.tx_baseline:>9}  {d}"
        )
    tot = report.totals()
    lines.append("-" * len(header))
    lines.append(f"{'total':>8} {tot[0]:>9} {tot[1]:>9} {tot[2]:>9} {tot[3]:>9}")
    return "\n".join(lines)


def _reference_kv(report, dropped):
    lines = []
    for a, d in zip(report.agents, dropped):
        prefix = f"agent.{a.coalition}_{a.agent}"
        lines.append(f"{prefix}.aux_proposed={a.aux_proposed}")
        lines.append(f"{prefix}.aux_baseline={a.aux_baseline}")
        lines.append(f"{prefix}.tx_proposed={a.tx_proposed}")
        lines.append(f"{prefix}.tx_baseline={a.tx_baseline}")
        lines.append(f"{prefix}.dropped={','.join(map(str, d))}")
    tot = report.totals()
    lines.append(f"total.aux_proposed={tot[0]}")
    lines.append(f"total.aux_baseline={tot[1]}")
    lines.append(f"total.tx_proposed={tot[2]}")
    lines.append(f"total.tx_baseline={tot[3]}")
    return "\n".join(lines)


def _one_coalition(costs, communication):
    doc = {"schema": SCHEMA_KEY, "coalitions": [{"costs": costs, "communication": communication}]}
    return parse_scenario(doc).game


def _star(m):
    """Agent 1 reads every action, and every other agent only its own and
    agent 1's: agent 1 holds every component, the others two."""
    others = " + ".join(f"x1_{k}" for k in range(2, m + 1))
    costs = [f"x1_1^2 + 0.1*x1_1*({others})"]
    costs += [f"x1_{j}^2 + 0.1*x1_{j}*x1_1" for j in range(2, m + 1)]
    return _one_coalition(costs, [[1, j] for j in range(2, m + 1)])


def _complete(m):
    """Every agent reads every action: complete interference graphs."""
    costs = []
    for j in range(1, m + 1):
        others = " + ".join(f"x1_{k}" for k in range(1, m + 1) if k != j)
        costs.append(f"x1_{j}^2 + 0.1*x1_{j}*({others})")
    return _one_coalition(costs, [[j, k] for j in range(1, m + 1) for k in range(j + 1, m + 1)])


def _games():
    games = {name: load_scenario(name).game for name in available_presets()}
    rng = np.random.default_rng(20241020)
    for index in range(6):
        games[f"quadratic-{index}"] = random_quadratic_game(rng, max_agents=6).game
    games["congestion-net"] = parse_scenario(bench_generators().congestion_network(5)).game
    games["ring-1"] = _one_coalition(["(x1_1 - 1)^2"], [])
    games["ring-2"] = _one_coalition(["x1_1^2 + 0.1*x1_1*x1_2", "x1_2^2 - 0.1*x1_1*x1_2"], [[1, 2]])
    # Label widths change between 9 and 10 and between 99 and 100.
    for m in (9, 10, 11, 99, 100, 101):
        games[f"ring-{m}"] = ring_game(m, coalitions=1)
    games["star-12"] = _star(12)
    games["complete-5"] = _complete(5)
    return games


GAMES = _games()


@pytest.mark.parametrize("name", sorted(GAMES))
def test_reports_match_their_references(name):
    game = GAMES[name]
    report = cost_accounting(game)
    dropped = _reference_dropped(game)
    assert [a.dropped for a in report.agents] == dropped
    assert report.render_kv() == _reference_kv(report, dropped)
    assert report.render_text() == _reference_text(report, dropped)
    # The renderers are the join of the chunks ``costs`` streams, one per agent.
    kv, text = list(report.kv_chunks()), list(report.text_chunks())
    assert len(kv) == len(report.agents) + 1 and len(text) == len(report.agents) + 2
    assert all(chunk.endswith("\n") for chunk in kv + text)


def test_the_cases_cover_every_edge_of_a_dropped_list():
    agents = [(name, a) for name, game in GAMES.items() for a in cost_accounting(game).agents]
    assert any(a.held == tuple(range(1, a.coalition_size + 1)) and a.coalition_size > 1 for _, a in agents)
    assert any(a.held[0] == 1 and a.dropped for _, a in agents)
    assert any(a.held[-1] == a.coalition_size and a.dropped for _, a in agents)
    assert any(a.dropped[0] == 1 and a.dropped[-1] == a.coalition_size for _, a in agents if a.dropped)


class _Writes(io.StringIO):
    """A stdout that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["kv", "text"])
def test_costs_streams_the_rendered_report(monkeypatch, fmt):
    game = GAMES["star-12"]
    monkeypatch.setattr(cli, "_load", lambda args: SimpleNamespace(game=game))
    monkeypatch.setattr("sys.stdout", _Writes())
    assert cli._cmd_costs(SimpleNamespace(format=fmt)) == 0
    writes = sys.stdout.writes
    report = cost_accounting(game)
    rendered = report.render_kv() if fmt == "kv" else report.render_text()
    assert "".join(writes) == rendered + "\n"
    assert len(writes) > len(report.agents)
    # Agent 1 of the star holds every component.
    hub = writes[0] if fmt == "kv" else writes[1]
    assert hub.endswith(".dropped=\n" if fmt == "kv" else "  -\n")


def test_costs_memory_is_one_line_plus_the_held_components():
    # One ring of 800 agents: each holds 3 components and drops 797, so the
    # dropped lists alone would be 637 600 entries.
    game = ring_game(800, coalitions=1)
    game.layout.edges  # built by every command that reads the layout
    tracemalloc.start()
    try:
        longest = 0
        for chunk in cost_accounting(game).kv_chunks():
            longest = max(longest, len(chunk))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A few copies of the longest chunk (its slices, their join), and per
    # slot of the layout its component and a share of its agent's record.
    assert peak < 8 * longest + 256 * game.layout.size, (peak, longest)
