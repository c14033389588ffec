"""The compiled kernel gives the same bits in both of its modes.

``compile_vector_function`` evaluates a shape shared by at least
``VECTOR_MIN_INSTANCES`` expressions as one numpy expression and everything
else as straight-line scalar code.  Vector mode is reached here only the way
a game reaches it, by repeating one tree over that many instances, and is
pinned to scalar mode and to the tree-walking ``expr.evaluate``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek import expr
from coalseek.expr import (
    VECTOR_MIN_INSTANCES,
    Binary,
    Const,
    DomainError,
    Unary,
    Var,
    _lift,
    compile_vector_function,
    evaluate,
    parse,
)

NAMES = ("x1_1", "x1_2", "x1_3", "x1_4")

_consts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 1e-300, 1e200, 1e308]),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
).map(Const)


def _trees(depth=4):
    leaf = st.one_of(_consts, st.sampled_from(NAMES).map(Var))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(
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
    """Kernel values at ``x`` under the seeker's rule: a non-finite value
    is a domain exit."""
    try:
        vals = fn(x)
    except DomainError:
        return None
    return vals if np.isfinite(vals).all() else None


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
