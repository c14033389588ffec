"""A game differentiates each template of its costs once and builds the
derivatives of every other cost of that template from the result: the
partials and the Newton second derivatives must be those of a per-cost
``expr.gradient``, tree for tree."""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coalseek.game
import coalseek.oracle
from coalseek.corpus import random_quadratic_game
from coalseek.expr import TEMPLATE_MIN_TREES, Binary, Const, Unary, Var, gradient, parse, render, template_key
from coalseek.game import Coalition, FlowAgent, Game, build_congestion_game, infer_interference_graph
from coalseek.oracle import _jacobian_exprs, _jacobian_rows
from coalseek.scenario import SCHEMA_KEY, load_scenario, parse_scenario
from conftest import bench_generators

M = 4  # agents in each of the document's two coalitions
NAMES = [f"x{i}_{j}" for i in (1, 2) for j in range(1, M + 1)]
# 0 and 1 of either sign are constants ``gradient`` simplifies on; 3, 4 and
# 5 are the first markers a template picks for its holes.
LITERALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.25, 3.0, 4.0, -5.0, 1e-3, 1e300])
HOLES = st.sampled_from([2.0, 0.5, 3.0, 4.0, 5.0, 7.25, 1e-3, 1e300])
EXPONENTS = st.sampled_from([2.0, 3.0, -1.0, 0.5, 0.0, -0.0, 1.0, 4.0])


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


def _refill(tree, holes, power=False):
    """``tree`` with the next of ``holes``, of the same sign, in each hole (a
    literal that is no pow exponent, 0 or 1): a tree of its template."""
    if isinstance(tree, Const):
        if power or tree.value == 0.0 or abs(tree.value) == 1.0:
            return tree
        return Const(math.copysign(next(holes), tree.value))
    if isinstance(tree, Var):
        return tree
    if isinstance(tree, Unary):
        return Unary(tree.op, _refill(tree.arg, holes))
    return Binary(tree.op, _refill(tree.left, holes), _refill(tree.right, holes, tree.op == "pow"))


def _partials(game):
    """Each partial, from a ``gradient`` of its cost alone."""
    out = {}
    for i, j, k in game.layout.keys:
        derivs, zero = gradient(game.coalitions[i - 1].costs[j - 1], (f"x{i}_{k}",))
        out[i, j, k] = derivs.get(f"x{i}_{k}", zero)
    return out


def _jacobian(game):
    """``oracle._jacobian_exprs``, from a ``gradient`` of each partial alone."""
    index = game.var_index
    out = {}
    for row, first in zip(game.layout.column.tolist(), _partials(game).values()):
        derivs = gradient(first, index)[0]
        for name in sorted(derivs, key=index.__getitem__):
            key = (row, index[name])
            out[key] = derivs[name] if key not in out else out[key] + derivs[name]
    return out


def _assert_as_per_cost(game):
    assert repr(tuple(game.partials.items())) == repr(tuple(_partials(game).items()))
    assert repr(tuple(_jacobian_exprs(game).items())) == repr(tuple(_jacobian(game).items()))


def _document(texts, m=M):
    return {
        "schema": SCHEMA_KEY,
        "coalitions": [{"costs": texts[at : at + m]} for at in range(0, len(texts), m)],
    }


def _in_code(texts, m=M):
    """The document's game, built from parsed trees, with no shapes."""
    coalitions = []
    for at in range(0, len(texts), m):
        costs = tuple(map(parse, texts[at : at + m]))
        graph = infer_interference_graph(costs, len(coalitions) + 1)
        coalitions.append(Coalition(costs, (1.0,) * len(costs), graph, graph))
    return Game(tuple(coalitions))


@settings(max_examples=150, deadline=None)
@given(tree=_trees(), data=st.data())
def test_templated_derivatives_are_each_costs_own(tree, data):
    # The tree, copies of it with fresh holes (one template), and copies
    # with every leaf fresh (mostly other templates of its skeleton).
    holes = iter(data.draw(st.lists(HOLES, min_size=200, max_size=200)))
    trees = [tree] + [_refill(tree, holes) for _ in range(TEMPLATE_MIN_TREES)]
    trees += [_relabel(tree, data.draw) for _ in range(2 * M - len(trees))]
    texts = [render(t) for t in trees]
    _assert_as_per_cost(parse_scenario(_document(texts)).game)
    _assert_as_per_cost(_in_code(texts))


def _repeated(forms, coalitions=TEMPLATE_MIN_TREES + 1):
    """Agent j of each coalition i pays form j, with ``x`` its own action,
    ``y`` its successor's and ``z`` agent j's of the next coalition: each
    form is one template over the coalitions, built from the first
    coalition's cost."""
    m = len(forms)
    return [
        forms[j - 1].format(
            x=f"x{i}_{j}", y=f"x{i}_{j % m + 1}", z=f"x{i % coalitions + 1}_{j}", c=2.5 + j, d=0.125 + 0.25 * j
        )
        for i in range(1, coalitions + 1)
        for j in range(1, m + 1)
    ]


def _with(form, n, literal):
    """``form`` with its ``n``-th literal, ``{c}`` or ``{d}``, spelled ``literal``."""
    parts = re.split(r"(\{[cd]\})", form)
    parts[2 * n + 1] = literal
    return "".join(parts)


SPECIALS = ["0", "-0", "1", "-1"]
BASE = "{c}*{x}^2 + {d}*{x}*{y} - {c}/({x} + {d}) + {c}*exp({d}*{z})"
CASES = {
    # Aliased holes: one name twice against two names.
    "aliases": ["{c}*{x}*{y}", "{c}*{x}*{x}"],
    # Each of 0, -0, 1 and -1 in each literal position.
    "specials": [_with(BASE, n, s) for n in range(6) for s in SPECIALS],
    "exponents": [
        f"{{c}}*({{x}} - {{d}})^{e} + {{d}}*{{x}}*{{y}}^{e} + {{c}}*{{z}}^{e}"
        for e in ("0", "1", "2", "3", "0.5", "-1")
    ],
    "negated holes": [
        "-2*{x} + -({c}*{x}*{y}) + {x}/-4 - -{d}*{z}",
        "-({c}*{x})^2 - {d}*-{x}*{y}",
        "-(-{c}*{x} - -{d}) + {y}",
    ],
    # Literals equal to the markers a template picks for its holes: 3, 4
    # and 5, or past an exponent c, which the rules make c and c - 1 of,
    # and c - 2 in a second derivative (x^5 makes x^3).
    "marker values": [
        "3*{x}^2 + 4*{x}*{y} + 5*{x}*{z} + {c}*{x}",
        "3*{x}^3 + 4*{x}*{y} + -5*{x} + {c}*{y}",
        "{x}^4 * 3 + 4/({x} + 5) + {d}*{y}",
        "{c}*{x}^5 + {d}*{x}*{y} + {c}*{z}",
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_explicit_templates_are_each_costs_own(case):
    texts = _repeated(CASES[case])
    _assert_as_per_cost(parse_scenario(_document(texts, len(CASES[case]))).game)
    _assert_as_per_cost(_in_code(texts, len(CASES[case])))


def test_games_built_in_code_take_templates_from_their_trees():
    # Agent j of each coalition routes over a private link and over link
    # j, which agent j of the other coalition shares: one template per
    # coalition.  The corpus games share no template.
    m = TEMPLATE_MIN_TREES + 1
    links = {f"p{i}_{j}": 8.0 + j for i in (1, 2) for j in range(m)}
    links.update({f"s{j}": 12.0 + 0.5 * j for j in range(m)})
    agents = [FlowAgent(i, (f"p{i}_{j}", f"s{j}"), 1.5 + 0.25 * j) for i in (1, 2) for j in range(m)]
    game = build_congestion_game(links, agents, kappa=0.5)
    assert len(set(game.templates) - {None}) == 2
    _assert_as_per_cost(game)
    for seed in range(6):
        _assert_as_per_cost(random_quadratic_game(np.random.default_rng(seed)).game)


PRESETS = ("example2", "congestion-demo", "coalition1-fig1")


def _shipped_game(name):
    """A preset's game, or the benchmark's seed-5 congestion network's."""
    if name == "congestion-net":
        return parse_scenario(bench_generators().congestion_network(5)).game
    return load_scenario(name).game


@pytest.mark.parametrize("name", [*PRESETS, "congestion-net"])
def test_shipped_games_are_as_per_cost(name):
    # Their costs mostly share no template with enough others, so each
    # has a kept template of its own.
    _assert_as_per_cost(_shipped_game(name))


def _keys(game):
    """Each cost's ``expr.template_key`` in its coalition's names."""
    keys = []
    for i, c in enumerate(game.coalitions, start=1):
        own = {f"x{i}_{k}" for k in range(1, c.m + 1)}
        keys += [template_key(form, own, {}) for form in c.forms]
    return keys


@pytest.mark.parametrize("name", [*PRESETS, "congestion-net", "ring-sparse", "mixed"])
def test_every_expression_has_one_template(name):
    if name == "ring-sparse":
        game = parse_scenario(bench_generators().ring_game(5).doc).game
    elif name == "mixed":
        # Two forms of one skeleton over five coalitions, the second with
        # its literal d = 0.625 spelled 1, which is kept, in two of them:
        # keys of five, three and two costs.
        forms = ["{c}*{x}^2 + {d}*{x}*{y}", "{c}*{x}^2 + {d}*{y}*{x}"]
        texts = _repeated(forms)
        for at in (1, 5):
            texts[at] = texts[at].replace("0.625", "1")
        game = parse_scenario(_document(texts, len(forms))).game
        assert sorted(Counter(_keys(game)).values()) == [2, 3, 5]
    else:
        game = _shipped_game(name)
    # Each position of the costs, the partials and the Newton terms is in
    # exactly one group.
    for exprs in (game.cost_rows, game.partial_rows, _jacobian_rows(game)[3]):
        positions = [pos for _, at, _ in exprs.groups for pos in at.tolist()]
        assert sorted(positions) == list(range(len(exprs)))
    # A template number stands for one key of at least TEMPLATE_MIN_TREES
    # costs, and every such key has one.
    keys = _keys(game)
    count = Counter(keys)
    numbered = {}
    for key, number in zip(keys, game.templates):
        assert (number is not None) == (count[key] >= TEMPLATE_MIN_TREES)
        if number is not None:
            assert numbered.setdefault(number, key) == key
    assert sorted(numbered) == list(range(len(numbered)))


def test_each_template_is_differentiated_once(monkeypatch):
    # One form over two rings of 6 agents is one template.  Each cost has
    # three partials: in its own action, in its successor's and (zero) in
    # its predecessor's, each one more template.  A form over a ring of
    # fewer agents than a template needs is differentiated cost by cost.
    calls = []

    def counted(e, names):
        calls.append(e)
        return gradient(e, names)

    monkeypatch.setattr(coalseek.game, "differentiate", counted)
    monkeypatch.setattr(coalseek.oracle, "differentiate", counted)
    texts = _repeated(["{c}*{x}^2 + {d}*{x}*{y} + {c}*{x}*{z}"] * 6, coalitions=2)
    game = parse_scenario(_document(texts, 6)).game
    game.partials
    assert len(calls) == 1
    _jacobian_exprs(game)
    assert len(calls) == 1 + 3
    calls.clear()
    m = TEMPLATE_MIN_TREES - 1
    texts = _repeated(["{c}*{x}^2 + {d}*{x}*{y} + {c}*{x}*{z}"] * m, coalitions=1)
    _jacobian_exprs(parse_scenario(_document(texts, m)).game)
    assert len(calls) == m + 3 * m
