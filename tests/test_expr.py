import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.expr import (
    MAX_HEIGHT,
    MAX_NESTING,
    Binary,
    Const,
    DomainError,
    MissingVariableError,
    ParseError,
    Unary,
    Var,
    differentiate,
    evaluate,
    free_variables,
    gradient,
    parse,
    render,
)


def test_parse_zero_literal():
    assert parse("0") == Const(0.0)


def test_parse_quadratic_cost_tree():
    tree = parse("(x1_1 - 0.5*x3_1)^2")
    expected = Binary(
        "pow",
        Binary("sub", Var("x1_1"), Binary("mul", Const(0.5), Var("x3_1"))),
        Const(2.0),
    )
    assert tree == expected


def test_parse_congestion_cost_free_vars():
    tree = parse("10/(20 - x2_1 - x2_2) - 10*log(x2_1 + 1)")
    assert free_variables(tree) == {"x2_1", "x2_2"}


def test_precedence_pow_over_unary_minus():
    assert parse("-x1_1^2") == Unary("neg", Binary("pow", Var("x1_1"), Const(2.0)))


def test_left_associativity():
    assert parse("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Const(1.0), Const(2.0)), Const(3.0)
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1_0", "malformed variable token"),
        ("x01_2", "malformed variable token"),
        ("x1_", "malformed variable token"),
        ("sin(x)", "unknown function name"),
        ("1 +", "expected a number"),
        ("(1 + 2", "expected ')'"),
        ("1 2", "unexpected trailing input"),
        ("x1_1 ^ x1_1", "exponent must be a numeric literal"),
        ("1e999*x1_1^2", "numeric literal '1e999' overflows"),
        ("x1_1^1e400", "numeric literal '1e400' overflows"),
        # Digits are ASCII: any other decimal digit is a stray character.
        ("x1_1^2 + \u0663", "expected a number, variable or '(', found '\u0663' (byte offset 9)"),
        ("\uff11.5*x1_1", "expected a number, variable or '(', found '\uff11' (byte offset 0)"),
        ("x1_1^2 + 1\u0663", "unexpected trailing input '\u0663' (byte offset 10)"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert message in str(err.value)
    assert err.value.offset >= 0


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("1 + sin(x)")
    assert err.value.offset == 4


def _chain(terms):
    return " + ".join(f"x1_{j % 9 + 1}" for j in range(terms))


def _repeat(term, op, n):
    return op.join([term] * n)


DEEP = f"expression more than {MAX_HEIGHT} operations deep"


# The byte offset is where a reader of characters stands when it stops: at
# the start of the token it looked at, past the whitespace before it, or at
# the end of the token it read last where it has not looked on: after an
# exponent, a function's name, a minus sign or a parenthesis.
@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("exp $", "expected a number, variable or '(', found '$'", 3),
        ("exp x01_1", "malformed variable token 'x01_1'", 3),
        ("x01_1(2)", "unknown function name 'x01_1'", 0),
        ("x1_1^ y", "exponent must be a numeric literal", 6),
        ("x1_1^--2", "exponent must be a numeric literal", 6),
        ("(1 + $) 1e999", "expected a number, variable or '(', found '$'", 5),
        ("1e999 + $", "numeric literal '1e999' overflows", 0),
        ("x1_1^1e999 $", "numeric literal '1e999' overflows", 5),
        ("2x1_1", "unexpected trailing input 'x'", 1),
        ("1e5e5", "unexpected trailing input 'e'", 3),
        ("  \u3000x1_1 $", "unexpected trailing input '$'", 10),
        ("(1 + 2  ", "expected ')', found 'end of input'", 8),
        pytest.param(_repeat("x1_1^2", " + ", 258), DEEP, 2311, id="sum"),
        pytest.param(_repeat("x1_1^2", " * ", 258), DEEP, 2310, id="product"),
        pytest.param(_repeat("x1_1", " * ", 258) + " ", DEEP, 1804, id="names"),
        pytest.param(f"- ({_chain(256)}) ^ 2 ", DEEP, 1797, id="minus"),
        pytest.param(f"({_chain(257)}) ^ 2 ", DEEP, 1802, id="power"),
        pytest.param(f"exp ({_chain(257)})  ", DEEP, 1802, id="exp"),
    ],
)
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


# Past a limit, the offset is that of the end of the token that crosses it.
@pytest.mark.parametrize(
    "text, message, offset",
    [
        pytest.param(
            "(" * (MAX_NESTING + 1) + "x1_1" + ")" * (MAX_NESTING + 1),
            "nested more than",
            MAX_NESTING + 1,
            id="parentheses",
        ),
        pytest.param("-" * (MAX_NESTING + 1) + "x1_1", "nested more than", MAX_NESTING + 1, id="minus"),
        pytest.param("exp " * (MAX_NESTING + 1) + "x1_1", "nested more than", 4 * MAX_NESTING + 3, id="exp"),
        pytest.param(_chain(MAX_HEIGHT + 2), "operations deep", len(_chain(MAX_HEIGHT + 2)), id="chain"),
    ],
)
def test_parse_rejects_input_past_the_depth_limits(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert message in str(err.value)
    assert err.value.offset == offset


def test_parse_accepts_input_at_the_depth_limits():
    assert parse("(" * MAX_NESTING + "x1_1" + ")" * MAX_NESTING) == Var("x1_1")
    tree = parse(_chain(MAX_HEIGHT + 1))  # MAX_HEIGHT additions
    for _ in range(MAX_HEIGHT):
        assert isinstance(tree, Binary)
        tree = tree.left
    assert tree == Var("x1_1")
    # Nesting adds no height of its own: a parenthesis is no operation.
    assert parse("(" * MAX_NESTING + _chain(MAX_HEIGHT + 1) + ")" * MAX_NESTING)


def test_differentiate_square():
    tree = parse("(x1_1 - 0.5*x3_1)^2")
    assert render(differentiate(tree, "x1_1")) == "2*(x1_1 - 0.5*x3_1)"


def test_differentiate_exp_sum():
    tree = parse("exp(x3_1) + x3_6^2")
    assert render(differentiate(tree, "x3_1")) == "exp(x3_1)"


def test_differentiate_absent_variable_is_zero():
    assert differentiate(parse("x2_1^3"), "x2_2") == Const(0.0)


def test_evaluate_at_stationary_point():
    tree = parse("(x1_1 - 0.5*x3_1)^2")
    assert evaluate(tree, {"x1_1": 49.0, "x3_1": 98.0}) == 0.0


def test_evaluate_log_shift():
    assert evaluate(parse("log(x+1)"), {"x": 0.0}) == 0.0


def test_evaluate_pole_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("10/(20-x)"), {"x": 20.0})


def test_evaluate_log_nonpositive():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), {"x": -1.0})


def test_evaluate_missing_variable():
    with pytest.raises(MissingVariableError):
        evaluate(parse("x1_1 + x1_2"), {"x1_1": 1.0})


def test_free_variables_no_algebraic_cancellation():
    tree = parse("x2_1*x2_3 - x2_1*x2_3 + x2_2")
    assert free_variables(tree) == {"x2_1", "x2_2", "x2_3"}


def test_free_variables_constant():
    assert free_variables(parse("7")) == frozenset()


# --- random-tree strategies -------------------------------------------------

_names = st.sampled_from(["x1_1", "x1_2", "x2_1", "x3_6", "y", "load"])
_consts = st.one_of(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
).map(lambda v: Const(round(v, 4)))


def _trees(depth=3):
    leaf = st.one_of(_consts, _names.map(Var))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(sub, st.sampled_from([2.0, 3.0, -1.0, 0.5])).map(
            lambda t: Binary("pow", t[0], Const(t[1]))
        ),
        st.tuples(st.sampled_from(["neg", "exp", "log"]), sub).map(
            lambda t: Unary(t[0], t[1])
        ),
    )


@settings(max_examples=200)
@given(_trees())
def test_render_parse_round_trip(tree):
    # By repr, which tells -0.0 from 0.0 where == does not.
    text = render(tree)
    reparsed = parse(text)
    assert repr(parse(render(reparsed))) == repr(reparsed)


@pytest.mark.parametrize(
    "tree, text",
    [
        (Const(-0.0), "-0"),
        (Const(0.0), "0"),
        (Binary("pow", Const(-0.0), Const(2.0)), "(-0)^2"),
        (Binary("pow", Var("x1_1"), Const(-0.0)), "x1_1^-0"),
        (Binary("sub", Var("x1_1"), Const(-0.0)), "x1_1 - -0"),
    ],
)
def test_render_keeps_the_sign_of_zero(tree, text):
    assert render(tree) == text
    assert repr(parse(text)) == repr(tree)


@pytest.mark.parametrize(
    "node, change, text",
    [
        (Const(2.0), {"value": 3.0}, "Const(value=2.0)"),
        (Var("x1_1"), {"name": "y"}, "Var(name='x1_1')"),
        (Unary("neg", Var("y")), {"op": "exp"}, "Unary(op='neg', arg=Var(name='y'))"),
        (
            Binary("add", Const(1.0), Var("y")),
            {"right": Const(2.0)},
            "Binary(op='add', left=Const(value=1.0), right=Var(name='y'))",
        ),
    ],
)
def test_nodes_are_frozen_dataclasses(node, change, text):
    assert dataclasses.is_dataclass(node)
    assert repr(node) == text
    fields = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
    twin = type(node)(**fields)
    assert twin == node and hash(twin) == hash(node) and twin is not node
    changed = dataclasses.replace(node, **change)
    assert changed != node and {**fields, **change} == {
        f.name: getattr(changed, f.name) for f in dataclasses.fields(changed)
    }
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
    assert repr(node) == text


@settings(max_examples=150)
@given(_trees(), _names)
def test_derivative_free_variables_shrink(tree, name):
    assert free_variables(differentiate(tree, name)) <= free_variables(tree)


# The per-name recursion ``differentiate`` ran before ``gradient`` took
# every name in one walk: the reference ``gradient`` must equal tree for
# tree, the sign of every zero included.


def _ref_is(e, value):
    return isinstance(e, Const) and e.value == value


def _ref_neg(a):
    return Const(-a.value) if isinstance(a, Const) else Unary("neg", a)


def _ref_add(a, b):
    if _ref_is(a, 0.0):
        return b
    if _ref_is(b, 0.0):
        return a
    return Binary("add", a, b)


def _ref_sub(a, b):
    if _ref_is(b, 0.0):
        return a
    if _ref_is(a, 0.0):
        return _ref_neg(b)
    return Binary("sub", a, b)


def _ref_mul(a, b):
    if _ref_is(a, 0.0) or _ref_is(b, 0.0):
        return Const(0.0)
    if _ref_is(a, 1.0):
        return b
    if _ref_is(b, 1.0):
        return a
    return Binary("mul", a, b)


def _ref_div(a, b):
    if _ref_is(a, 0.0):
        return Const(0.0)
    if _ref_is(b, 1.0):
        return a
    return Binary("div", a, b)


def _ref_pow(a, b):
    if _ref_is(b, 1.0):
        return a
    if _ref_is(b, 0.0):
        return Const(1.0)
    return Binary("pow", a, b)


def _reference_derivative(e, name):
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == name else Const(0.0)
    if isinstance(e, Unary):
        da = _reference_derivative(e.arg, name)
        if e.op == "neg":
            return _ref_neg(da)
        if e.op == "exp":
            return _ref_mul(Unary("exp", e.arg), da)
        return _ref_div(da, e.arg)
    dl = _reference_derivative(e.left, name)
    dr = _reference_derivative(e.right, name)
    if e.op == "add":
        return _ref_add(dl, dr)
    if e.op == "sub":
        return _ref_sub(dl, dr)
    if e.op == "mul":
        return _ref_add(_ref_mul(dl, e.right), _ref_mul(e.left, dr))
    if e.op == "div":
        return _ref_div(
            _ref_sub(_ref_mul(dl, e.right), _ref_mul(e.left, dr)), _ref_pow(e.right, Const(2.0))
        )
    if isinstance(e.right, Const):
        c = e.right.value
        return _ref_mul(_ref_mul(Const(c), _ref_pow(e.left, Const(c - 1.0))), dl)
    return _ref_mul(
        Binary("pow", e.left, e.right),
        _ref_add(_ref_mul(dr, Unary("log", e.left)), _ref_div(_ref_mul(e.right, dl), e.left)),
    )


def _signed_trees(depth=4):
    """Trees with signed zeros, ones and general powers, where the
    simplifications and the signs of zeros are at stake."""
    leaf = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]).map(Const),
        st.sampled_from(["x1_1", "x1_2", "x2_1"]).map(Var),
    )
    if depth == 0:
        return leaf
    sub = _signed_trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), sub, sub).map(
            lambda t: Binary(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["neg", "exp", "log"]), sub).map(lambda t: Unary(t[0], t[1])),
    )


@settings(max_examples=400, deadline=None)
@given(_signed_trees(), st.sets(st.sampled_from(["x1_1", "x1_2", "x2_1", "x3_1"])))
def test_gradient_equals_the_per_name_recursion(tree, names):
    derivs, zero = gradient(tree, names)
    reads = free_variables(tree)
    assert set(derivs) == reads & names
    for name in ("x1_1", "x1_2", "x2_1", "x3_1"):
        expected = repr(_reference_derivative(tree, name))
        if name in names:
            assert repr(derivs.get(name, zero)) == expected
        if name not in reads:
            assert repr(zero) == expected
        assert repr(differentiate(tree, name)) == expected


def _random_polynomial(rng):
    """Smooth random expression built from operations that are total on the
    sample box, to keep the finite-difference comparison well posed."""
    names = ["x1_1", "x1_2", "x2_1"]
    terms = []
    for _ in range(rng.integers(1, 5)):
        name = names[rng.integers(0, len(names))]
        coeff = Const(float(np.round(rng.uniform(-3, 3), 3)))
        power = float(rng.integers(1, 4))
        term = Binary("mul", coeff, Binary("pow", Var(name), Const(power)))
        if rng.random() < 0.4:
            term = Binary("mul", term, Var(names[rng.integers(0, len(names))]))
        terms.append(term)
    tree = terms[0]
    for t in terms[1:]:
        tree = Binary("add", tree, t)
    if rng.random() < 0.5:
        tree = Binary("add", tree, Unary("exp", Binary("mul", Const(0.3), Var("x1_1"))))
    if rng.random() < 0.5:
        tree = Binary(
            "add",
            tree,
            Unary("log", Binary("add", Binary("pow", Var("x1_2"), Const(2.0)), Const(1.5))),
        )
    return tree


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        tree = _random_polynomial(rng)
        point = {n: float(rng.uniform(-1.5, 1.5)) for n in ("x1_1", "x1_2", "x2_1")}
        for name in free_variables(tree):
            sym = evaluate(differentiate(tree, name), point)
            up = dict(point)
            down = dict(point)
            up[name] += h
            down[name] -= h
            fd = (evaluate(tree, up) - evaluate(tree, down)) / (2 * h)
            assert abs(sym - fd) / max(1.0, abs(sym)) <= 1e-6


def test_operator_sugar_builds_trees():
    x = Var("x1_1")
    assert x + 1 == Binary("add", x, Const(1.0))
    assert 2 * x == Binary("mul", Const(2.0), x)
    assert (x - 3) ** 2 == Binary("pow", Binary("sub", x, Const(3.0)), Const(2.0))
    assert -x == Unary("neg", x)


def test_nonfinite_intermediate_rejected():
    big = Binary("mul", Const(1e308), Const(1e308))
    with pytest.raises(DomainError):
        evaluate(big, {})


def test_fractional_power_of_negative_rejected():
    with pytest.raises(DomainError):
        evaluate(Binary("pow", Const(-2.0), Const(0.5)), {})


def test_exp_overflow_rejected():
    with pytest.raises(DomainError):
        evaluate(Unary("exp", Const(1e4)), {})
