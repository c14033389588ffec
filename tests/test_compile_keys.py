"""The compiler works per template: it lifts each template's tree alone,
reads the expressions of a template that reaches vector mode from their
rows, and walks the guarded trees of a template for guards only where the
first has an operation that can fail.  Compiling a game's ``Rows`` must
emit the sources and the namespace arrays of compiling every tree on its
own, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek import expr
from coalseek.expr import VECTOR_MIN_INSTANCES, Binary, Const, DomainError, Unary, Var, compile_vector_function, render
from coalseek.oracle import _jacobian_rows
from coalseek.rows import Forms, Rows, Trees, template
from coalseek.scenario import SCHEMA_KEY, load_scenario, parse_scenario
from conftest import bench_generators


def _compiled(exprs, names, guarded=()):
    """The sources ``compile_vector_function`` compiles, and each array of
    the compiled function's namespace and of its scalar pieces' (``_s<c>``)
    by name, with its dtype and bytes."""
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "compile", capture, raising=False)
        function = compile_vector_function(exprs, names, guarded=guarded)
    namespace = function.__globals__
    scopes = [namespace] + [value.__globals__ for name, value in namespace.items() if name.startswith("_s")]
    arrays = {
        name: (value.dtype.str, value.shape, value.tobytes())
        for scope in scopes
        for name, value in scope.items()
        if isinstance(value, (np.ndarray, np.generic))
    }
    return sources, arrays


def _compiles(game):
    """The game's three compiles, each as (outputs, guarded), both ``Rows``
    as the game hands them to the compiler."""
    return {
        "kernel": (game.partial_rows, game.cost_rows),
        "cost kernel": (game.cost_rows + game.partial_rows, ()),
        "jacobian": (_jacobian_rows(game)[3], ()),
    }


def _assert_keys_change_no_byte(game):
    for label, (exprs, guarded) in _compiles(game).items():
        keyed = _compiled(exprs, game.var_names, guarded)
        own = _compiled(list(exprs), game.var_names, list(guarded))
        assert keyed == own, label


# -- template documents ---------------------------------------------------------

M = 130  # agents of the ring: three partials each, 390 in all
PLACES = ("a", "b")  # an agent's own action and its successor's
LITERALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 3.0, -5.0, 1e-3])
HOLES = st.sampled_from([2.0, 0.5, 3.0, 4.0, 7.25, 1e-3])


def _forms(depth=3):
    """Trees over the places, mostly of the operations vector mode covers."""
    leaf = st.one_of(LITERALS.map(Const), st.sampled_from(PLACES).map(Var))
    if depth == 0:
        return leaf
    sub = _forms(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(lambda t: Binary(*t)),
        st.tuples(sub, st.sampled_from([2.0, 3.0, 0.5, -1.0])).map(lambda t: Binary("pow", t[0], Const(t[1]))),
        st.tuples(st.sampled_from(["neg", "neg", "log"]), sub).map(lambda t: Unary(*t)),
    )


def _instance(form, names, holes, power=False):
    """``form`` with each place named from ``names`` and the next of
    ``holes``, of the same sign, in each literal other than 0, 1 and a pow
    exponent: a tree of one template for one naming."""
    if isinstance(form, Const):
        if power or form.value == 0.0 or abs(form.value) == 1.0:
            return form
        return Const(math.copysign(next(holes), form.value))
    if isinstance(form, Var):
        return Var(names[form.name])
    if isinstance(form, Unary):
        return Unary(form.op, _instance(form.arg, names, holes))
    return Binary(
        form.op,
        _instance(form.left, names, holes),
        _instance(form.right, names, holes, form.op == "pow"),
    )


@settings(max_examples=25, deadline=None)
@given(form=_forms(), swaps=st.lists(st.booleans(), min_size=M, max_size=M), data=st.data())
def test_keyed_compiles_are_byte_identical_on_template_documents(form, swaps, data):
    # Agent j pays the form plus a*b, with its own action in place a and
    # its successor's in place b, the places swapped where ``swaps`` says
    # (two templates of one skeleton, whose partials may share shapes);
    # agents 1 and 2 add their own action, a skeleton of no template.
    form = Binary("add", form, Binary("mul", Var("a"), Var("b")))
    holes = iter(data.draw(st.lists(HOLES, min_size=64, max_size=64)) * (4 * M))
    texts = []
    for j, swap in enumerate(swaps, start=1):
        own, successor = f"x1_{j}", f"x1_{j % M + 1}"
        names = {"a": successor, "b": own} if swap else {"a": own, "b": successor}
        cost = _instance(form, names, holes)
        texts.append(render(Binary("add", cost, Var(own)) if j <= 2 else cost))
    game = parse_scenario({"schema": SCHEMA_KEY, "coalitions": [{"costs": texts}]}).game
    assert len(game.partials) >= VECTOR_MIN_INSTANCES
    _assert_keys_change_no_byte(game)


@pytest.mark.parametrize("name", ["ring_game", "congestion_network"])
def test_keyed_compiles_are_byte_identical_on_the_benchmark_games(name):
    made = getattr(bench_generators(), name)(5)
    game = parse_scenario(made.doc if name == "ring_game" else made).game
    _assert_keys_change_no_byte(game)


@pytest.mark.parametrize("name", ["example2", "ring_game"])
def test_a_list_a_generator_and_trees_compile_alike(name):
    # The compiler makes any set of trees ``Rows`` of one kept template per
    # tree, whatever sequence or iterable holds them.
    game = parse_scenario(bench_generators().ring_game(5).doc).game if name == "ring_game" else load_scenario(name).game
    trees = game.costs
    assert type(trees) is Trees
    compiled = _compiled(trees, game.var_names, trees)
    assert _compiled(list(trees), game.var_names, list(trees)) == compiled
    assert _compiled((e for e in trees), game.var_names, (e for e in trees)) == compiled


# -- what is walked ---------------------------------------------------------------


def _ring_document(m, form):
    costs = [form.format(x=f"x1_{j}", y=f"x1_{j % m + 1}", c=2.0 + j % 7) for j in range(1, m + 1)]
    return {"schema": SCHEMA_KEY, "coalitions": [{"costs": costs}]}


def test_each_key_is_lifted_and_guard_walked_once(monkeypatch):
    # 300 costs of one template; each has three partials, in its own
    # action, its successor's and (zero) its predecessor's, one key each.
    game = parse_scenario(_ring_document(300, "{c}*{x}^2 + {x}*{y} - {x}")).game
    assert len(set(game.templates)) == 1 and len(game.partial_rows.groups) == 3
    lifts, walks = [], []
    lift, walk = expr._lift, expr._Dag._guard_walk
    monkeypatch.setattr(expr, "_lift", lambda e: lifts.append(e) or lift(e))
    monkeypatch.setattr(expr._Dag, "_guard_walk", lambda dag, e, found: walks.append(e) or walk(dag, e, found))
    game.kernel
    # No cost can fail, so the first one alone is walked.
    assert (len(lifts), len(walks)) == (3, 1)
    lifts.clear()
    game.cost_kernel
    assert len(lifts) == 4
    # Keyed by no template, every tree is its own key.
    lifts.clear()
    partials = tuple(game.partials.values())
    compile_vector_function(partials, game.var_names)
    assert len(lifts) == len(partials)


def test_no_tree_is_lifted_where_no_shape_can_reach_vector_mode(monkeypatch):
    # 300 outputs of 30 templates, 10 rows each: once the expressions not
    # lifted and the largest shape lifted are fewer than
    # VECTOR_MIN_INSTANCES, no shape can reach vector mode, and the rest
    # is not lifted.
    names = tuple(f"x1_{j}" for j in range(1, 301))
    rows = [((float(j),) * (j // 10), (name,)) for j, name in enumerate(names)]
    groups = []
    for first in range(0, 300, 10):
        tree = Var(names[first])
        for value in rows[first][0]:
            tree = Binary("add", tree, Const(value))
        at = np.arange(first, first + 10)
        groups.append((template(tree), at, at))
    lifts = []
    lift = expr._lift
    monkeypatch.setattr(expr, "_lift", lambda e: lifts.append(e) or lift(e))
    function = compile_vector_function(Rows(Forms(rows), groups), names)
    assert len(lifts) == 6
    x = np.arange(300.0)
    assert function(x).tolist() == [x[j] + j * (j // 10) for j in range(300)]


def test_a_keyed_guard_still_names_the_cost_outside_its_domain():
    # Five costs of one template, each with a log only the guard sees: the
    # partial 2*x + 2/(x + c) is finite where x + c < 0.
    game = parse_scenario(_ring_document(5, "{x}^2 + 2*log({x} + {c})")).game
    assert len(set(game.templates)) == 1 and None not in game.templates
    x = np.full(5, 1.0)
    game.kernel(x)
    x[3] = -7.0  # x1_4 + 6
    with pytest.raises(DomainError) as info:
        game.kernel(x)
    assert str(info.value) == "log of non-positive value -1.0 in the cost of agent (1,4)"
