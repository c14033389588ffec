"""Loading parses each cost skeleton once per document and only tokenizes
every later cost of that skeleton, whose tree is built from the first one's
on its first read: the trees, the names each cost reads and every load
error must be those of a per-cost ``expr.parse``."""

import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.expr import (
    _TOKEN_RE,
    MAX_HEIGHT,
    Binary,
    Const,
    ParseError,
    Unary,
    Var,
    _tokens,
    free_variables,
    parse,
    render,
)
from coalseek.scenario import SCHEMA_KEY, ScenarioError, parse_scenario
from conftest import bench_generators

M = 4  # agents in each of the document's two coalitions
NAMES = [f"x{i}_{j}" for i in (1, 2) for j in range(1, M + 1)]
# Signed zeros and ones among the literals: a leaf whose sign is not its
# token's (``-0``, ``-1``, ``x^-1``) is a negated hole of its skeleton.
LITERALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.25, 3.0, 1e-3, 1e300])
EXPONENTS = st.sampled_from([2.0, 3.0, -1.0, 0.5, 0.0, -0.0, 1.0])


def _trees(depth=3):
    leaf = st.one_of(LITERALS.map(Const), st.sampled_from(NAMES).map(Var))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(
            lambda t: Binary(*t)
        ),
        st.tuples(sub, EXPONENTS).map(lambda t: Binary("pow", t[0], Const(t[1]))),
        st.tuples(st.sampled_from(["neg", "exp", "log"]), sub).map(lambda t: Unary(*t)),
    )


def _relabel(tree, draw):
    """``tree`` with a freshly drawn literal and name in every leaf."""
    if isinstance(tree, Const):
        return Const(draw(LITERALS))
    if isinstance(tree, Var):
        return Var(draw(st.sampled_from(NAMES)))
    if isinstance(tree, Unary):
        return Unary(tree.op, _relabel(tree.arg, draw))
    return Binary(tree.op, _relabel(tree.left, draw), _relabel(tree.right, draw))


def _document(texts):
    return {
        "schema": SCHEMA_KEY,
        "coalitions": [{"costs": texts[:M]}, {"costs": texts[M:]}],
    }


@settings(max_examples=150, deadline=None)
@given(tree=_trees(), data=st.data())
def test_costs_of_one_skeleton_load_as_parsed(tree, data):
    # The tree and relabelled copies of it, rendered into one document: most
    # share its skeleton, and a copy whose literals change sign does not.
    texts = [render(tree)] + [render(_relabel(tree, data.draw)) for _ in range(2 * M - 1)]
    game = parse_scenario(_document(texts)).game
    assert len(game.costs) == len(texts)
    # The costs and the partials read in a drawn order: a partial of a
    # template reads the tree of its cost, which may not be built yet.
    partials = game.partial_rows
    reads = [("cost", j) for j in range(len(texts))] + [("partial", s) for s in range(len(partials))]
    first = {}
    for kind, at in data.draw(st.permutations(reads)):
        if kind == "cost":
            first[at] = game.coalitions[at // M].costs[at % M] if at % 2 else game.costs[at]
        else:
            partials[at]
    for j, text in enumerate(texts):
        assert repr(first[j]) == repr(parse(text))
        assert game.costs[j] is first[j] and game.coalitions[j // M].costs[j % M] is first[j]
    reads = [names for c in game.coalitions for names in c.reads]
    assert reads == [free_variables(parse(text)) for text in texts]


def test_costs_of_a_skeleton_of_the_greatest_height_load_as_parsed():
    # A division chain in each agent's action: every later cost of the
    # skeleton is built from the first one's tree, MAX_HEIGHT levels high.
    chain = "{x}" + "".join(f"/({j + 2} + {{x}})" for j in range(MAX_HEIGHT - 1))
    texts = [chain.format(x=name) for name in NAMES]
    game = parse_scenario(_document(texts)).game
    assert [repr(cost) for cost in game.costs] == [repr(parse(text)) for text in texts]


GOOD = [
    "5.4025*x1_1^2 + -0.6159*x1_1 + 0.1758*x1_1*(x1_4 + x1_2) + 0.0286*x1_1*x2_1",
    "5.027*x1_2^2 + -0.2333*x1_2 + 0.1704*x1_2*(x1_1 + x1_3) + 0.0214*x1_2*x2_2",
    "5.0244*x1_3^2 + -0.9984*x1_3 + 0.1826*x1_3*(x1_2 + x1_4) + 0.027*x1_3*x2_3",
    "5.1*x1_4^2 + -0.5*x1_4 + 0.16*x1_4*(x1_3 + x1_1) + 0.03*x1_4*x2_4",
]
# Tokens that keep the skeleton but fail on their own, in place of a
# literal or a name of a repeat; stray characters and spaces the parser
# skips (as its byte offsets count them: two or three bytes in UTF-8),
# inserted anywhere.
BAD_LITERALS = ["1e999", "1e400"]
BAD_NAMES = ["x01_1", "x1_0", "x1_"]
INSERTS = ["#", "$", ".", "\u00e9", "\x00", "1e999", "x01_1", "\u00a0", "\u3000", "\u2003"]
TOKEN = re.compile(r"x\d+_\d+|[\d.]+")


def _swap_coalitions(text):
    return text.replace("x1_", "x0_").replace("x2_", "x1_").replace("x0_", "x2_")


@st.composite
def faulty_repeat(draw):
    """The index of one repeat of the good skeleton and its faulty text:
    a token that fails on its own, a literal and a name swapped for each
    other, an operator moved across a leaf, or an insertion."""
    cost = draw(st.integers(1, 2 * M - 1))
    text = (GOOD + [_swap_coalitions(text) for text in GOOD])[cost]
    token = draw(st.sampled_from(list(TOKEN.finditer(text))))
    head, leaf, tail = text[: token.start()], token.group(), text[token.end() :]
    is_name = leaf.startswith("x")
    mode = draw(st.sampled_from(["bad token", "other kind", "operator", "insert"]))
    if mode == "bad token":
        return cost, head + draw(st.sampled_from(BAD_NAMES if is_name else BAD_LITERALS)) + tail
    if mode == "other kind":
        return cost, head + ("2" if is_name else "x1_1") + tail
    if mode == "operator" and head[-1:] in ("+", "-", "*", "/", "^", "(", ")"):
        return cost, head[:-1] + leaf + head[-1] + tail
    at = draw(st.integers(0, len(text)))
    replace = draw(st.booleans())
    return cost, text[:at] + draw(st.sampled_from(INSERTS)) + text[at + replace :]


@settings(max_examples=300, deadline=None)
@given(faulty_repeat())
def test_a_fault_in_a_repeated_skeleton_fails_as_its_own_parse(fault):
    cost, text = fault
    texts = GOOD + [_swap_coalitions(text) for text in GOOD]
    texts[cost] = text
    doc = _document(texts)
    try:
        tree = parse(text)
    except ParseError as err:
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(doc)
        where = f"$.coalitions[{cost // M}].costs[{cost % M}]"
        assert str(raised.value) == f"{where}: {err}"
    else:
        unknown = sorted(free_variables(tree) - set(NAMES))
        if unknown:  # an insertion made a well-formed name of no agent
            with pytest.raises(ScenarioError, match=f"unknown action '{unknown[0]}'"):
                parse_scenario(doc)
        else:
            assert repr(parse_scenario(doc).game.costs[cost]) == repr(tree)


def test_first_error_in_document_order_wins():
    texts = GOOD + GOOD[:1] + ["x1_1 + 1e999"] + ["x01_1 + 1"] + GOOD[3:]
    with pytest.raises(ScenarioError) as raised:
        parse_scenario(_document(texts))
    assert str(raised.value).startswith("$.coalitions[1].costs[1]: numeric literal '1e999'")


def test_leaves_and_stray_characters_leave_exactly_the_parsers_whitespace():
    # Between its matches the token pattern leaves only the operators, the
    # parentheses and the code points ``str.isspace`` accepts; the key
    # drops the same ones with ``str.split``, and keeps each operator and
    # parenthesis as a token of its own.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert sorted(_TOKEN_RE.sub("", every)) == sorted(spaces + "()*+-/^")
    assert "".join(every.split()) == "".join(c for c in every if not c.isspace())
    assert _tokens(spaces.join("()*+-/^")) == ("()*+-/^", [], [])


def test_loading_walks_no_tree_for_its_names(monkeypatch):
    # The names and the shape read from each cost's tokens serve the
    # inferred interference graphs, ``Game.supports`` and the templates of
    # ``Game.partials``.
    import coalseek.expr
    import coalseek.game

    def walk(tree):
        raise AssertionError("a tree was walked for its names")

    monkeypatch.setattr(coalseek.game, "free_variables", walk)
    monkeypatch.setattr(coalseek.expr, "free_variables", walk)
    monkeypatch.setattr(coalseek.game, "shape", walk)
    game = parse_scenario(_document(GOOD + [_swap_coalitions(text) for text in GOOD])).game
    assert game.supports[0] == (0, 1, 3, 4)
    assert len(game.partials) == 24


def test_the_ring_builds_no_cost_tree_it_does_not_read(monkeypatch):
    # The ring's costs have two skeletons and reach vector mode: its kernel,
    # its Newton Jacobian and its cost report read the first cost of each
    # template, and gather the others' literals and names from their forms.
    import coalseek.rows
    from coalseek.analysis import cost_accounting
    from coalseek.dynamics import Seeker
    from coalseek.oracle import solve_stationary

    built = []
    run = coalseek.rows.run
    monkeypatch.setattr(coalseek.rows, "run", lambda *args: built.append(args) or run(*args))
    scenario = parse_scenario(bench_generators().ring_game(5).doc)
    game = scenario.game
    Seeker(game)
    solve_stationary(game, scenario.initial_x)
    cost_accounting(game).render_kv()
    assert game.n_actions == 1000
    assert len(built) <= len(game.cost_rows.groups) == 2
