"""The compiled kernel gives the same bits in both of its modes.

``compile_vector_function`` evaluates a shape shared by at least
``VECTOR_MIN_INSTANCES`` expressions as one numpy expression and everything
else as straight-line scalar code that computes each distinct subtree once.
Vector mode is reached here only the way a game reaches it, by repeating one
tree over that many instances, and is pinned to scalar mode and to the
tree-walking ``expr.evaluate``; shared subtrees are pinned to ``evaluate``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek import expr
from coalseek.corpus import random_quadratic_game
from coalseek.dynamics import Seeker
from coalseek.expr import (
    MAX_HEIGHT,
    MAX_INLINE_DEPTH,
    MAX_SOURCE_CHARS,
    VECTOR_MIN_INSTANCES,
    Binary,
    Const,
    DomainError,
    Unary,
    Var,
    _lift,
    compile_vector_function,
    differentiate,
    evaluate,
    parse,
    render,
)
from coalseek.game import Coalition, FlowAgent, Game, build_congestion_game, pseudo_gradient
from coalseek.graphs import Graph
from coalseek.oracle import _jacobian_exprs

NAMES = ("x1_1", "x1_2", "x1_3", "x1_4")

_consts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 1e-300, 1e200, 1e308]),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
).map(Const)


_ops = st.sampled_from(["add", "sub", "mul", "div"])


def _trees(depth=4, pool=(), names=NAMES):
    """Random trees; with a ``pool``, most leaves are whole pool trees."""
    leaves = [_consts, st.sampled_from(names).map(Var)]
    if pool:
        leaves += [st.sampled_from(pool)] * 3
    leaf = st.one_of(*leaves)
    if depth == 0:
        return leaf
    sub = _trees(depth - 1, pool, names)
    return st.one_of(
        leaf,
        st.tuples(_ops, sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(sub, st.sampled_from([2.0, 3.0, 2.0, 3.0, 4.0, -1.0, 0.5])).map(
            lambda t: Binary("pow", t[0], Const(t[1]))
        ),
        st.tuples(st.sampled_from(["neg", "neg", "exp", "log"]), sub).map(
            lambda t: Unary(t[0], t[1])
        ),
    )


_points = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 1e154, 1e-160]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=len(NAMES),
    max_size=len(NAMES),
)


def _rebuild(e, const, var):
    """``e`` with every constant and variable replaced."""
    if isinstance(e, Const):
        return const(e)
    if isinstance(e, Var):
        return var(e)
    if isinstance(e, Unary):
        return Unary(e.op, _rebuild(e.arg, const, var))
    if e.op == "pow":  # the exponent is part of the shape
        return Binary("pow", _rebuild(e.left, const, var), e.right)
    return Binary(e.op, _rebuild(e.left, const, var), _rebuild(e.right, const, var))


def _instances(tree):
    """Four trees of ``tree``'s shape: two constant sets, and variables
    rotated so that every instance gathers from different slots."""
    halved = _rebuild(tree, lambda c: Const(c.value / 2), lambda v: v)
    out = []
    for k in range(4):
        source = (tree, halved)[k % 2]
        rotate = {name: NAMES[(i + k) % len(NAMES)] for i, name in enumerate(NAMES)}
        out.append(_rebuild(source, lambda c: c, lambda v: Var(rotate[v.name])))
    return out


def _run(fn, x):
    """Kernel values at ``x``, None outside the domain; a compiled function
    returns only finite values."""
    try:
        vals = fn(x)
    except DomainError:
        return None
    assert np.isfinite(vals).all()
    return vals


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(_trees(), _points)
def test_vector_mode_matches_scalar_mode_and_evaluate(tree, point):
    x = np.array(point)
    instances = _instances(tree)
    slot_of = {name: i for i, name in enumerate(NAMES)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles = [_run(compile_vector_function([e], NAMES), x) for e in instances]
        batch = compile_vector_function(
            [instances[k % 4] for k in range(VECTOR_MIN_INSTANCES)], NAMES
        )
        repeated = _run(batch, x)
    vectorizable = _lift(tree, slot_of)[0] is not None
    assert ("_p0" in batch.__globals__) == vectorizable

    if any(single is None for single in singles):
        assert repeated is None
        return
    assert repeated is not None
    for k, single in enumerate(singles):
        assert _bits(repeated[k::4]).tolist() == [_bits(single)[0]] * (VECTOR_MIN_INSTANCES // 4)

    for e, single in zip(instances, singles):
        try:
            reference = evaluate(e, dict(zip(NAMES, point)))
        except DomainError:
            continue
        assert _bits(single)[0] == _bits(reference)


def test_zero_denominator_is_a_domain_error_in_both_modes():
    tree = parse("1/(x1_1 - x1_2)")
    x = np.array([1.0, 1.0, 0.0, 0.0])
    for count in (1, VECTOR_MIN_INSTANCES):
        fn = compile_vector_function([tree] * count, NAMES)
        with pytest.raises(DomainError):
            fn(x)
    # 1/(1/0) is finite in floating point, so only the check can catch it.
    hidden = parse("1/(1/(x1_1 - x1_2))")
    for count in (1, VECTOR_MIN_INSTANCES):
        with pytest.raises(DomainError):
            compile_vector_function([hidden] * count, NAMES)(x)


def test_outputs_keep_input_order_across_modes(monkeypatch):
    vector_shape = [parse(f"{k}*x1_1 + x1_{k % 4 + 1}") for k in range(VECTOR_MIN_INSTANCES)]
    scalar_shape = [parse(f"exp(x1_{k % 4 + 1}) - {k}") for k in range(5)]
    exprs = [e for pair in zip(vector_shape, scalar_shape) for e in pair]
    exprs += vector_shape[len(scalar_shape) :] + [parse("log(x1_3)")]
    x = np.array([0.5, -1.0, 2.0, 0.25])
    env = dict(zip(NAMES, x.tolist()))
    # With a one-character limit every scalar expression is a chunk of its own.
    for limit in (expr.MAX_SOURCE_CHARS, 1):
        monkeypatch.setattr(expr, "MAX_SOURCE_CHARS", limit)
        fn = compile_vector_function(exprs, NAMES)
        assert ("_s1" in fn.__globals__) == (limit == 1)  # more than one chunk
        assert fn(x).tolist() == [evaluate(e, env) for e in exprs]
        with pytest.raises(DomainError):
            fn(-x)  # only the last expression, log(x1_3), leaves the domain


def test_squares_and_cubes_are_products_in_every_evaluator():
    xs = np.random.default_rng(0).uniform(-10, 10, 4000)
    # libm pow rounds some of these squares differently from x*x.
    assert any(math.pow(v, 2) != v * v for v in xs.tolist())
    for text, power in (("x1_1^2", lambda v: v * v), ("x1_1^3", lambda v: v * v * v)):
        tree = parse(text)
        expected = [power(v) for v in xs.tolist()]
        assert [evaluate(tree, {"x1_1": v}) for v in xs.tolist()] == expected
        single = compile_vector_function([tree], ("x1_1",))
        assert [single(np.array([v]))[0] for v in xs[:500]] == expected[:500]
        names = tuple(f"x1_{j + 1}" for j in range(len(xs)))
        batch = compile_vector_function([Var(n) ** tree.right for n in names], names)
        assert batch(xs).tolist() == expected


def test_square_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("x1_1^2"), {"x1_1": 1e200})


def _copy(e):
    """A structurally equal tree that shares no node with ``e``."""
    return _rebuild(e, lambda c: Const(c.value), lambda v: Var(v.name))


@st.composite
def _sharing_outputs(draw):
    """Outputs built over a small pool of subtrees, each pool tree used both
    as the same object and as an equal copy, so equal subtrees recur within
    and across outputs."""
    interior = _trees(2).filter(lambda e: isinstance(e, (Unary, Binary)))
    pool = draw(st.lists(interior, min_size=1, max_size=3))
    pool += [_copy(e) for e in pool]
    output = st.tuples(_ops, st.sampled_from(pool), _trees(3, pool))
    return draw(st.lists(output.map(lambda t: Binary(*t)), min_size=2, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_sharing_outputs(), _points)
def test_shared_subtrees_match_evaluate(outputs, point):
    x = np.array(point)
    env = dict(zip(NAMES, point))
    reasons = []  # None where the reference returns a value
    refs = []
    for e in outputs:
        try:
            refs.append(evaluate(e, env))
            reasons.append(None)
        except DomainError as err:
            refs.append(None)
            reasons.append(str(err))
    fn = compile_vector_function(outputs, NAMES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = fn(x)
        except DomainError:
            # The kernel leaves the domain only where the reference does.
            assert any(reason is not None for reason in reasons)
            return
    # The kernel raised nothing: every value it returns is finite, and the
    # reference accepts every output with the same bits.
    assert all(math.isfinite(value) for value in values.tolist())
    assert reasons == [None] * len(outputs)
    assert _bits(values).tolist() == _bits(refs).tolist()


def test_reference_follows_the_kernel_domain_rule():
    # 1e308*10 overflows to inf, and exp(-inf) is 0.0: a non-finite
    # intermediate with a finite result is inside the domain for both.
    e = parse("exp(-(x1_1*1e308*10))")
    assert compile_vector_function([e], NAMES)(np.ones(4)).tolist() == [0.0]
    assert evaluate(e, {"x1_1": 1.0}) == 0.0
    with pytest.raises(DomainError, match="non-finite value"):
        evaluate(parse("x1_1*1e308*10"), {"x1_1": 1.0})
    # So a domain message names the output that actually failed.
    g = Graph.build([1, 2], [(1, 2)])
    costs = (parse("exp(-(x1_1*1e308*10)) + x1_2"), parse("x1_1 + log(x1_2)"))
    game = Game((Coalition(costs, (1.0, 1.0), g, g),))
    for kernel in (game.kernel, game.cost_kernel):
        with pytest.raises(DomainError) as info:
            kernel(np.array([1.0, -1.0]))
        assert str(info.value) == "log of non-positive value -1.0 in the cost of agent (1,2)"


def test_signed_zero_constants_stay_distinct():
    fn = compile_vector_function([parse("x1_1*0.0"), parse("x1_1*-0.0")], NAMES)
    for v, signs in ((1.0, (1.0, -1.0)), (-1.0, (-1.0, 1.0))):
        values = fn(np.array([v, 0.0, 0.0, 0.0])).tolist()
        assert values == [0.0, 0.0]
        assert [math.copysign(1.0, value) for value in values] == list(signs)


def _congestion_network():
    """Four coalitions of 12 flows; each flow crosses its chain links and two
    links shared by one flow of every coalition, so the second derivatives
    repeat each link's ``capacity - load`` subtree many times."""
    m = 12
    paths = {
        (i, j): [f"c{i}_{k}" for k in (j - 1, j) if 1 <= k < m] + [f"s{j}", f"s{j % m + 1}"]
        for i in range(1, 5)
        for j in range(1, m + 1)
    }
    agents = [FlowAgent(i, tuple(path), 10.0) for (i, _), path in paths.items()]
    links = {name: 40.0 for a in agents for name in a.path}
    return build_congestion_game(links, agents, kappa=10.0)


def test_congestion_jacobian_compiles_into_one_piece():
    game = _congestion_network()
    exprs = list(_jacobian_exprs(game).values())
    assert sum(len(render(e)) for e in exprs) > 2 * MAX_SOURCE_CHARS  # unshared
    fn = compile_vector_function(exprs, game.var_names)
    assert "_s0" in fn.__globals__ and "_s1" not in fn.__globals__
    x = np.full(game.n_actions, 1.5)
    env = dict(zip(game.var_names, x.tolist()))
    assert fn(x).tolist() == [evaluate(e, env) for e in exprs]


# --- the kernel's contract ----------------------------------------------------


def _one_coalition(*costs):
    g = Graph.build(range(1, len(costs) + 1))
    return Game((Coalition(tuple(map(parse, costs)), (1.0,) * len(costs), g, g),))


def test_finite_outputs_whose_sum_overflows_are_inside_the_domain():
    game = _one_coalition("1e308*x1_1", "1e308*x1_2")
    x = np.array([1.0, 1.0])
    assert game.cost_kernel(x).tolist() == [1e308, 1e308, 1e308, 1e308]
    assert game.kernel(x).tolist() == [1e308, 1e308]
    assert Seeker(game).partial_vector(x).tolist() == [1e308, 1e308]


@pytest.mark.parametrize(
    "cost", ["x1_2*1e308*10", "-(x1_2*1e308*10)", "x1_2*1e308*10 - x1_2*1e308*10"]
)
def test_a_non_finite_output_is_a_domain_error_naming_it(cost):
    # +inf, -inf and NaN from operations that raise nothing themselves.
    game = _one_coalition("(x1_1 - 1)^2", cost)
    with pytest.raises(DomainError) as info:
        game.cost_kernel(np.array([1.0, 1.0]))
    assert str(info.value) == "non-finite value in the cost of agent (1,2)"
    with pytest.raises(DomainError):
        Seeker(game).partial_vector(np.array([1.0, 1.0]))


def _entry(pos):
    return f"entry {pos}"


@pytest.mark.parametrize("form", ["single", "pieces", "mixed"])
@pytest.mark.parametrize(
    "failing", ["x1_2*1e308*10", "-(x1_2*1e308*10)", "x1_2*1e308*10 - x1_2*1e308*10"]
)
def test_a_compiled_non_finite_output_raises_naming_its_label(monkeypatch, form, failing):
    # +inf, -inf and NaN from operations that raise nothing themselves; the
    # second failing output is not the one named.
    exprs = [parse(f"exp(x1_{k % 4 + 1}) - {k}") for k in range(5)]
    exprs[3:3] = [parse(failing)]
    exprs.append(parse(failing))
    first = 3
    if form == "pieces":
        monkeypatch.setattr(expr, "MAX_SOURCE_CHARS", 1)
    if form == "mixed":
        exprs[:0] = [parse(f"{k}*x1_1 + x1_{k % 4 + 1}") for k in range(VECTOR_MIN_INSTANCES)]
        first += VECTOR_MIN_INSTANCES
    fn = compile_vector_function(exprs, NAMES, _entry)
    assert ("_s1" in fn.__globals__) == (form == "pieces")
    assert ("_p0" in fn.__globals__) == (form == "mixed")
    with pytest.raises(DomainError) as info:
        fn(np.array([0.5, 1.0, 2.0, 0.25]))
    assert str(info.value) == f"non-finite value in entry {first}"


def test_a_zero_divisor_in_a_vector_group_raises_naming_its_label():
    # Only the instances dividing by x1_2 - 1 fail; the first sits at 2.
    exprs = [parse("log(x1_3)")]
    exprs += [parse(f"{k + 1}/(x1_{k % 4 + 1} - 1)") for k in range(VECTOR_MIN_INSTANCES)]
    fn = compile_vector_function(exprs, NAMES, _entry)
    assert "_p0" in fn.__globals__
    with pytest.raises(DomainError) as info:
        fn(np.array([0.5, 1.0, 2.0, 0.25]))
    assert str(info.value) == "division by zero in entry 2"


def test_an_unlabelled_function_names_the_output_position():
    fn = compile_vector_function([parse("x1_1"), parse("log(x1_2)")], NAMES)
    with pytest.raises(DomainError) as info:
        fn(np.array([1.0, -1.0, 0.0, 0.0]))
    assert str(info.value) == "log of non-positive value -1.0 in output 1"


@pytest.mark.parametrize("form", ["single", "pieces", "mixed"])
def test_every_call_returns_a_fresh_writable_array(monkeypatch, form):
    exprs = [parse(f"exp(x1_{k % 4 + 1}) - {k}") for k in range(5)]
    if form == "pieces":
        monkeypatch.setattr(expr, "MAX_SOURCE_CHARS", 1)
    if form == "mixed":
        exprs += [parse(f"{k}*x1_1 + x1_{k % 4 + 1}") for k in range(VECTOR_MIN_INSTANCES)]
    fn = compile_vector_function(exprs, NAMES)
    assert ("_s1" in fn.__globals__) == (form == "pieces")
    assert ("_p0" in fn.__globals__) == (form == "mixed")
    x = np.array([0.5, -1.0, 2.0, 0.25])
    env = dict(zip(NAMES, x.tolist()))
    expected = [evaluate(e, env) for e in exprs]
    first = fn(x)
    second = fn(x)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    first[:] = np.nan
    assert second.tolist() == fn(x).tolist() == expected


# --- deep expressions ---------------------------------------------------------


def test_a_chain_of_the_greatest_height_compiles_and_matches_evaluate():
    # One open bracket per operation would pass CPython's 200 long before
    # MAX_HEIGHT; the emitter binds a temp every MAX_INLINE_DEPTH levels.
    chain = parse(" + ".join(f"x1_{j % 4 + 1}/{j + 1}" for j in range(MAX_HEIGHT)))
    product = parse("*".join(f"(1 + x1_{j % 4 + 1}/{j + 1})" for j in range(MAX_HEIGHT - 1)))
    rng = np.random.default_rng(5)
    for tree in (chain, product, differentiate(product, "x1_1")):
        fn = compile_vector_function([tree], NAMES)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, len(NAMES))
            assert _bits(fn(x)).tolist() == [_bits(evaluate(tree, dict(zip(NAMES, x.tolist()))))]


def test_vector_mode_leaves_a_deep_shape_to_scalar_mode():
    terms = MAX_INLINE_DEPTH + 2
    exprs = [
        parse(" + ".join(f"{(k + j) % 7 + 1}*x1_{j % 4 + 1}" for j in range(terms)))
        for k in range(VECTOR_MIN_INSTANCES)
    ]
    slot_of = {name: i for i, name in enumerate(NAMES)}
    assert _lift(exprs[0], slot_of)[0] is None
    fn = compile_vector_function(exprs, NAMES)
    assert "_p0" not in fn.__globals__
    x = np.array([0.5, -1.0, 2.0, 0.25])
    env = dict(zip(NAMES, x.tolist()))
    assert _bits(fn(x)).tolist() == _bits([evaluate(e, env) for e in exprs]).tolist()


# --- the partials kernel and its guards ---------------------------------------
#
# ``Game.kernel`` returns only the partials; the cost operations that can fail
# are guarded.  The reference verdict is ``expr.evaluate`` over every cost and
# every partial.  The two may differ only where a cost computes a non-finite
# value with no failing operation.


def _quietly_non_finite(cost, env):
    """Whether ``cost`` computes a non-finite value at ``env``, as the result
    or on the way to it, with no operation that raises."""
    try:
        return not all(math.isfinite(expr._value(node, env)) for node in expr._walk(cost))
    except DomainError:
        return False


def _check_guarded_kernel(game, x):
    env = dict(zip(game.var_names, x.tolist()))
    costs_rejected = False
    for f in game.costs:
        try:
            evaluate(f, env)
        except DomainError:
            costs_rejected = True
    try:
        partials = [evaluate(e, env) for e in game.partials.values()]
    except DomainError:
        partials = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = game.kernel(x)
        except DomainError:
            values = None
    if (values is None) != (costs_rejected or partials is None):
        assert values is not None and partials is not None
        assert any(_quietly_non_finite(f, env) for f in game.costs)
    if values is not None:
        assert _bits(values).tolist() == _bits(partials).tolist()


GAME_NAMES = ("x1_1", "x1_2", "x2_1", "x2_2")


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees(names=GAME_NAMES), min_size=4, max_size=4), _points)
def test_guarded_kernel_matches_the_reference_verdict(costs, point):
    # Two coalitions of two agents, so each cost also reads the other
    # coalition's actions, whose operations only a guard can check.
    g = Graph.build([1, 2], [(1, 2)])
    game = Game(tuple(Coalition(tuple(costs[i : i + 2]), (1.0, 1.0), g, g) for i in (0, 2)))
    _check_guarded_kernel(game, np.array(point))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([1.0, 1e100, 1e160, 1e200]),
)
def test_guarded_kernel_matches_the_reference_on_quadratic_games(seed, scale):
    rng = np.random.default_rng(seed)
    game = random_quadratic_game(rng).game
    _check_guarded_kernel(game, scale * rng.uniform(-1.0, 1.0, game.n_actions))


def _overflowing_game():
    g = Graph.build([1, 2], [(1, 2)])
    return Game((Coalition((parse("1e308*x1_1 + 1e308*x1_2"), parse("(x1_2 - 1)^2")), (1.0, 1.0), g, g),))


def test_a_cost_that_overflows_quietly_is_inside_for_the_partials_only():
    # The cost of agent (1,1) is inf at (1, 1) with no failing operation,
    # and its partials are finite: the integrator and Newton read partials
    # only, the commands that read costs reject the point.
    game = _overflowing_game()
    x = np.array([1.0, 1.0])
    assert Seeker(game).partial_vector(x).tolist() == [1e308, 0.0, 1e308, 0.0]
    assert pseudo_gradient(game, x).tolist() == [1e308, 1e308]
    with pytest.raises(DomainError) as info:
        game.cost_kernel(x)
    assert str(info.value) == "non-finite value in the cost of agent (1,1)"


def _calls_fail(fn):
    """Whether the only scalar-mode piece of ``fn`` has a guard line."""
    return "_fail" in fn.__globals__["_s0"].__code__.co_names


@pytest.mark.parametrize("form", ["single", "pieces", "vector"])
def test_a_failing_guard_names_the_first_guarded_output(monkeypatch, form):
    exprs = [parse(f"exp(x1_{k % 4 + 1}) - {k}") for k in range(5)]
    if form == "pieces":
        monkeypatch.setattr(expr, "MAX_SOURCE_CHARS", 1)
    if form == "vector":
        exprs = [parse(f"{k}*x1_1 + x1_{k % 4 + 1}") for k in range(VECTOR_MIN_INSTANCES)]
    guarded = [parse("log(x1_3) + 1/(x1_4 - 1)"), parse("exp(x1_2) + x1_1^-1")]
    fn = compile_vector_function(exprs, NAMES, _entry, guarded=guarded)
    assert ("_s1" in fn.__globals__) == (form == "pieces")
    assert ("_p0" in fn.__globals__) == (form == "vector")
    x = np.array([0.5, 1.0, 2.0, 0.25])
    env = dict(zip(NAMES, x.tolist()))
    assert _bits(fn(x)).tolist() == _bits([evaluate(e, env) for e in exprs]).tolist()
    for point, message in (
        ([0.5, 1.0, -1.0, 0.25], "log of non-positive value -1.0 in entry 0"),
        ([0.5, 1.0, 2.0, 1.0], "division by zero in entry 0"),
        ([0.5, 1000.0, 2.0, 0.25], "exp(1000.0) overflows in entry 1"),
        ([0.0, 1.0, 2.0, 0.25], "pow(0.0, -1.0) left the real domain in entry 1"),
    ):
        with pytest.raises(DomainError) as info:
            fn(np.array(point))
        assert str(info.value) == message
    if form != "vector":
        # Output 3 is named after the two guarded expressions.
        with pytest.raises(DomainError) as info:
            fn(np.array([0.5, 1.0, 2.0, 1e300]))
        assert str(info.value) == "exp(1e+300) overflows in entry 5"


def test_an_operation_the_outputs_evaluate_gets_no_guard():
    # The outputs compute exp(x1_3) and x1_4^0.5 themselves: the guards read
    # their temps, so each is called once a call.
    outputs = [parse("1/(x1_2 - 1) + exp(x1_3)"), parse("x1_4^0.5 + x1_1")]
    covered = [parse("exp(x1_3)*x1_4"), parse("x1_1 - x1_4^0.5")]
    fn = compile_vector_function(outputs, NAMES, guarded=covered)
    assert not _calls_fail(fn)
    calls = []
    for name in ("_exp", "_pw"):
        op = fn.__globals__[name]
        fn.__globals__[name] = lambda *args, op=op: calls.append(op) or op(*args)
    x = np.array([1.0, 0.0, 0.5, 4.0])
    assert fn(x).tolist() == [-1.0 + math.exp(0.5), 3.0]
    assert calls == [math.exp, math.pow] or calls == [math.pow, math.exp]
    # The outputs compute log's operand but not the log: one guard.
    fn = compile_vector_function([parse("1/(x1_1 + 1)")], NAMES, guarded=[parse("log(x1_1 + 1)")])
    assert _calls_fail(fn)
    assert fn(np.array([0.0, 0.0, 0.0, 0.0])).tolist() == [1.0]
    with pytest.raises(DomainError):
        fn(np.array([-1.5, 0.0, 0.0, 0.0]))  # 1/(x1_1 + 1) alone is -2.0


def test_congestion_guards_compare_values_the_partials_compute():
    game = _congestion_network()
    dag = expr._Dag({name: i for i, name in enumerate(game.var_names)})
    for e in game.partials.values():
        dag.output(e)
    nodes = len(dag.nodes)
    guards = dag.guards(game.costs)
    # One guard per flow's log(own + 1); every operand is a node of the
    # partials, so no node is added.  A link's kappa/(capacity - load) gets
    # none (it had one, 104 guards in all): the partials divide by
    # (capacity - load)^2.
    assert len(dag.nodes) == nodes
    assert [kind for kind, _ in guards] == ["log"] * game.n_actions
    assert "_s1" not in game.kernel.__globals__
    x = np.full(game.n_actions, 1.5)
    env = dict(zip(game.var_names, x.tolist()))
    reference = [evaluate(e, env) for e in game.partials.values()]
    assert _bits(game.kernel(x)).tolist() == _bits(reference).tolist()
    x[0] = -1.0
    with pytest.raises(DomainError) as info:
        game.kernel(x)
    assert str(info.value) == "log of non-positive value 0.0 in the cost of agent (1,1)"


def test_a_division_the_outputs_compute_gets_no_guard():
    # The outputs divide by x1_2 - 1 and by (x1_3 + x1_4)^2: the guarded
    # 2/(x1_2 - 1) and 3/(x1_3 + x1_4) fail only where they do.  The
    # denominator of 1/(x1_1 + 2) is divided by nowhere, so it keeps its
    # guard.
    outputs = [parse("1/(x1_2 - 1)"), parse("x1_1/(x1_3 + x1_4)^2")]
    guarded = [parse("2/(x1_2 - 1) + 3/(x1_3 + x1_4)"), parse("1/(x1_1 + 2)")]
    dag = expr._Dag({name: i for i, name in enumerate(NAMES)})
    for e in outputs:
        dag.output(e)
    assert [kind for kind, _ in dag.guards(guarded)] == ["div"]
    fn = compile_vector_function(outputs, NAMES, _entry, guarded=guarded)
    assert fn(np.array([0.5, 2.0, 1.0, 1.0])).tolist() == [1.0, 0.125]
    for point, message in (
        ([0.5, 1.0, 1.0, 1.0], "division by zero in entry 0"),
        ([0.5, 2.0, 1.0, -1.0], "division by zero in entry 0"),
        ([-2.0, 2.0, 1.0, 1.0], "division by zero in entry 1"),
    ):
        with pytest.raises(DomainError) as info:
            fn(np.array(point))
        assert str(info.value) == message


def test_a_link_at_capacity_fails_with_the_message_of_the_reference():
    # The division guards of the congestion costs were dropped (see
    # test_congestion_guards_compare_values_the_partials_compute): at a
    # link's capacity the partials' division by its squared capacity - load
    # raises, with the message of the reference walk of the costs.
    game = _congestion_network()
    x = np.full(game.n_actions, 1.5)
    x[game.action_index(1, 1)] = 38.5  # link c1_1 carries flows (1,1) and (1,2)
    env = dict(zip(game.var_names, x.tolist()))
    with pytest.raises(DomainError) as reference:
        evaluate(game.costs[0], env)
    for kernel in (game.kernel, game.cost_kernel):
        with pytest.raises(DomainError) as info:
            kernel(x)
        assert str(info.value) == f"{reference.value} in the cost of agent (1,1)"
        assert str(info.value) == "division by zero in the cost of agent (1,1)"
