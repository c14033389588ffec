"""Scalar expression trees: parsing, rendering, evaluation, compilation and
symbolic differentiation.

Cost functions are plain expression trees over named real variables.  Trees are
immutable, so they are safe to share between threads and to cache derivatives of.
``compile_vector_function`` is the evaluator every consumer uses, and the one
place the domain rule lives: a point is inside when every compiled output is
finite, and a compiled function returns only such values or raises
``DomainError``.  It can also guard expressions it does not return, such as
a game's costs behind its partials: each of their operations that can fail
costs one comparison, or one call where the outputs do not evaluate it
already.  The tree-walking ``evaluate`` is its reference, and names the failing
operation and output when a point is outside.
"""

from __future__ import annotations

import itertools
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Mapping, Union

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "DomainError",
    "MissingVariableError",
    "parse",
    "shape",
    "render",
    "evaluate",
    "compile_vector_function",
    "product_power",
    "differentiate",
    "gradient",
    "template_key",
    "free_variables",
]


class ParseError(ValueError):
    """Malformed input text; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the real domain: log of a non-positive number, division
    by zero, a fractional power of a negative number, an overflowing exp or
    pow, or a non-finite result."""


class MissingVariableError(KeyError):
    """The assignment does not cover a free variable of the expression."""


class _Node:
    """Operator sugar shared by all node kinds; builds plain trees, no folding."""

    __slots__ = ()

    def __add__(self, other):
        return Binary("add", self, _coerce(other))

    def __radd__(self, other):
        return Binary("add", _coerce(other), self)

    def __sub__(self, other):
        return Binary("sub", self, _coerce(other))

    def __rsub__(self, other):
        return Binary("sub", _coerce(other), self)

    def __mul__(self, other):
        return Binary("mul", self, _coerce(other))

    def __rmul__(self, other):
        return Binary("mul", _coerce(other), self)

    def __truediv__(self, other):
        return Binary("div", self, _coerce(other))

    def __rtruediv__(self, other):
        return Binary("div", _coerce(other), self)

    def __pow__(self, other):
        return Binary("pow", self, _coerce(other))

    def __neg__(self):
        return Unary("neg", self)


# The node kinds are frozen dataclasses with slots and their own
# ``__init__``, which sets each field through its slot's descriptor: the
# generated one calls ``object.__setattr__`` once per field, and building
# nodes is most of what parsing does.  Writing an instance ``__dict__``
# instead would be as fast, but CPython 3.11 then keeps a real dict per
# node, half again the node's memory, and reads its fields at half the
# speed.  Assigning a field still raises ``FrozenInstanceError``.


@dataclass(frozen=True, slots=True, init=False)
class Const(_Node):
    value: float

    def __init__(self, value: float):
        _set_value(self, value)


@dataclass(frozen=True, slots=True, init=False)
class Var(_Node):
    name: str

    def __init__(self, name: str):
        _set_name(self, name)


@dataclass(frozen=True, slots=True, init=False)
class Unary(_Node):
    op: str  # "neg" | "exp" | "log"
    arg: "Expression"

    def __init__(self, op: str, arg: "Expression"):
        _set_unary_op(self, op)
        _set_arg(self, arg)


@dataclass(frozen=True, slots=True, init=False)
class Binary(_Node):
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "Expression"
    right: "Expression"

    def __init__(self, op: str, left: "Expression", right: "Expression"):
        _set_binary_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


_set_value = Const.value.__set__
_set_name = Var.name.__set__
_set_unary_op = Unary.op.__set__
_set_arg = Unary.arg.__set__
_set_binary_op = Binary.op.__set__
_set_left = Binary.left.__set__
_set_right = Binary.right.__set__

Expression = Union[Const, Var, Unary, Binary]


def _coerce(value) -> Expression:
    if isinstance(value, _Node):
        return value
    return Const(float(value))


# ---------------------------------------------------------------------------
# Tokens and parsing
#
# expr   := term  (('+'|'-') term)*          left-associative
# term   := unary (('*'|'/') unary)*         left-associative
# unary  := '-' unary | power
# power  := atom ('^' '-'? number)?          binds tighter than unary minus
# atom   := number | name | '(' expr ')' | ('exp'|'log') atom
# number := (digits ('.' digits?)? | '.' digits) ([eE] [+-]? digits)?
# name   := [A-Za-z_] [A-Za-z0-9_]*
#
# Digits are ASCII.  Whitespace, which is what ``str.isspace`` accepts, may
# stand between tokens.  A leading '-' on a numeric literal folds into the
# constant so that rendered negative constants reparse to an identical tree.
# ---------------------------------------------------------------------------

# The one pattern that tokenizes a text.  ``split`` leaves the operators,
# parentheses and whitespace between its matches (``\s`` of a str pattern
# is what ``str.isspace`` accepts), and each match is one group: a number,
# tried first; a name; or a token the parser rejects on its own, a
# malformed ``x<digit>`` name or a stray character.
_TOKEN_RE = re.compile(
    r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(x[1-9][0-9]*_[1-9][0-9]*(?![A-Za-z0-9_])|(?!x[0-9])[A-Za-z_][A-Za-z0-9_]*)"
    r"|(x[0-9][A-Za-z0-9_]*|[^-+*/^()\s])"
)
_FUNCTIONS = {"e": "exp", "l": "log"}  # by their kind in a key
_SUMS = {"+": "add", "-": "sub"}
_PRODUCTS = {"*": "mul", "/": "div"}

# The deepest input ``parse`` accepts.  Parsing, differentiation, rendering,
# evaluation and compilation each recurse once per level of a tree, and
# Python stops at about 1000 frames, so deeper input is a ParseError.
# MAX_NESTING bounds the parentheses, function arguments and unary minuses
# open at once (the parser recurses five frames per parenthesis);
# MAX_HEIGHT bounds the operations on any path from the root to a leaf, so
# a chain ``a + b + ...`` of n terms is n - 1 operations high.
MAX_NESTING = 100
MAX_HEIGHT = 256


def _tokens(text: str) -> tuple[str, list[float], list[str]]:
    """``text``'s tokens: a key of one character per token, an operator or
    a parenthesis as itself and a leaf as its kind (``#`` a number, ``$`` a
    name, ``e`` exp, ``l`` log, ``?`` a malformed name or a stray
    character), and the numbers' values and the names in text order."""
    parts = _TOKEN_RE.split(text)
    key = []
    literals = []
    names = []
    for between, number, name in zip(parts[::4], parts[1::4], parts[2::4]):
        if number is not None:
            key.append(between + "#")
            literals.append(float(number))
        elif name is None:
            key.append(between + "?")
        elif name == "exp" or name == "log":
            key.append(between + name[0])
        else:
            key.append(between + "$")
            names.append(name)
    key.append(parts[-1])
    return "".join("".join(key).split()), literals, names


def parse(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Variables are free-form identifiers; names that start with ``x<digit>``
    must be well-formed action identifiers ``x<coalition>_<agent>`` with
    1-based indices (anything else of that shape is rejected as malformed).
    Input nested deeper than ``MAX_NESTING`` or ``MAX_HEIGHT`` is rejected.
    """
    return _Parser(text, *_tokens(text)).tree()


class _Parser:
    """Recursive descent over one text's tokens (see ``_tokens``).  Each
    ``_parse_*`` method returns the tree it read and its height, the
    operations on its longest path from the root to a leaf.  Only an error
    looks for its place in the text (see ``_error``)."""

    def __init__(self, text: str, key: str, literals: list[float], names: list[str]):
        self.text = text
        self.key = key + " "  # a key holds no whitespace, so a space ends it
        self.i = 0
        self.literals = iter(literals)
        self.names = iter(names)
        self.nesting = 0

    def tree(self) -> Expression:
        tree, _ = self._parse_expr()
        if self.key[self.i] != " ":
            raise self._error(f"unexpected trailing input {self._found(self.i)!r}", self.i)
        return tree

    def _parse_expr(self) -> tuple[Expression, int]:
        node, height = self._parse_term()
        while True:
            op = _SUMS.get(self.key[self.i])
            if op is None:
                return node, height
            self.i += 1
            right, right_height = self._parse_term()
            node = Binary(op, node, right)
            height = (height if height > right_height else right_height) + 1
            if height > MAX_HEIGHT:
                raise self._height_error(peeked=True)

    def _parse_term(self) -> tuple[Expression, int]:
        node, height = self._parse_unary()
        while True:
            op = _PRODUCTS.get(self.key[self.i])
            if op is None:
                return node, height
            self.i += 1
            right, right_height = self._parse_unary()
            node = Binary(op, node, right)
            height = (height if height > right_height else right_height) + 1
            if height > MAX_HEIGHT:
                raise self._height_error()

    def _parse_unary(self) -> tuple[Expression, int]:
        if self.key[self.i] != "-":
            return self._parse_power()
        self.i += 1
        inner, height = self._nest(self._parse_unary)
        if type(inner) is Const:
            return Const(-inner.value), height
        if height == MAX_HEIGHT:
            raise self._height_error()
        return Unary("neg", inner), height + 1

    def _parse_power(self) -> tuple[Expression, int]:
        base, height = self._parse_atom()
        key, i = self.key, self.i + 1
        if key[i - 1] != "^":
            return base, height
        negative = key[i] == "-"
        i += negative
        if key[i] != "#":
            raise self._error("exponent must be a numeric literal", i, peeked=not negative)
        self.i = i
        exponent = self._parse_atom()[0].value
        if height == MAX_HEIGHT:
            raise self._height_error()
        return Binary("pow", base, Const(-exponent if negative else exponent)), height + 1

    def _parse_atom(self) -> tuple[Expression, int]:
        at = self.i
        kind = self.key[at]
        if kind == "#":
            value = next(self.literals)
            if value == math.inf:
                raise self._error(f"numeric literal {self._token(at)!r} overflows", at)
            self.i = at + 1
            return Const(value), 0
        if kind == "$" and self.key[at + 1] != "(":
            self.i = at + 1
            return Var(next(self.names)), 0
        if kind == "(":
            self.i = at + 1
            inner = self._nest(self._parse_expr)
            if self.key[self.i] != ")":
                raise self._error(f"expected ')', found {self._found(self.i)!r}", self.i)
            self.i += 1
            return inner
        function = _FUNCTIONS.get(kind)
        if function is not None:
            self.i = at + 1
            arg, height = self._nest(self._parse_atom)
            if height == MAX_HEIGHT:
                raise self._height_error(peeked=False)  # an argument this high ends in ')'
            return Unary(function, arg), height + 1
        # A function's argument is read from the end of the function's name.
        peeked = self.key[at - 1] not in _FUNCTIONS
        name = self._token(at)
        if kind == "$" or len(name) > 1:  # a name, well-formed or not
            if self.key[at + 1] == "(":
                raise self._error(f"unknown function name '{name}'", at, peeked)
            raise self._error(f"malformed variable token '{name}'", at, peeked)
        message = f"expected a number, variable or '(', found {self._found(at)!r}"
        raise self._error(message, at, peeked)

    def _nest(self, parse_inner: Callable[[], tuple[Expression, int]]) -> tuple[Expression, int]:
        if self.nesting == MAX_NESTING:
            message = f"parentheses, functions and minus signs nested more than {MAX_NESTING} deep"
            raise self._error(message, self.i, peeked=False)
        self.nesting += 1
        inner = parse_inner()
        self.nesting -= 1
        return inner

    def _height_error(self, peeked: bool | None = None) -> ParseError:
        if peeked is None:  # past what it read last, unless that was an exponent
            peeked = not self.key[: self.i].endswith(("^#", "^-#"))
        return self._error(f"expression more than {MAX_HEIGHT} operations deep", self.i, peeked)

    def _error(self, message: str, i: int, peeked: bool = True) -> ParseError:
        """``message`` at the byte offset where a reader of characters
        would stand: at the start of token ``i``, past the whitespace before
        it, once it has looked there (``peeked``), and else at the end of
        token ``i - 1``.  It looks after each name for '(' and after each
        atom for '^', but not after an exponent or a function's argument."""
        spans = self._spans()
        at = spans[i + 1][0] if peeked else spans[i][1]
        return ParseError(message, len(self.text[:at].encode("utf-8")))

    def _spans(self) -> list[tuple[int, int]]:
        """Each token's start and end, after an empty span at 0 and before one at the end."""
        spans = [(0, 0)]
        at = 0
        for k, part in enumerate(_TOKEN_RE.split(self.text)):
            if k % 4 == 0:
                spans += [(at + j, at + j + 1) for j, c in enumerate(part) if not c.isspace()]
            elif part is not None:
                spans.append((at, at + len(part)))
            at += len(part or "")
        return spans + [(at, at)]

    def _token(self, i: int) -> str:
        return self.text[slice(*self._spans()[i + 1])]

    def _found(self, i: int) -> str:
        return self._token(i)[:1] or "end of input"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _prec(e: Expression) -> int:
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else 5
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:  # -0.0 too
        return _PREC["neg"]
    return 5


def _fmt_number(value: float) -> str:
    if value == 0.0:
        return "-0" if math.copysign(1.0, value) < 0 else "0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def render(e: Expression) -> str:
    """Render a tree to text that reparses to an identical tree."""
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            arg = render(e.arg)
            if _prec(e.arg) < _PREC["neg"]:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{e.op}({render(e.arg)})"
    left, right = render(e.left), render(e.right)
    mine = _PREC[e.op]
    if e.op == "pow":
        # The grammar does not chain '^', so a pow base that is not atomic is
        # always parenthesized; a literal exponent renders bare (incl. sign).
        if _prec(e.left) <= mine:
            left = f"({left})"
        if not isinstance(e.right, Const):
            right = f"({right})"
        return f"{left}^{right}"
    if _prec(e.left) < mine:
        left = f"({left})"
    if _prec(e.right) <= mine:
        right = f"({right})"
    if e.op == "add":
        return f"{left} + {right}"
    if e.op == "sub":
        return f"{left} - {right}"
    if e.op == "mul":
        return f"{left}*{right}"
    return f"{left}/{right}"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pow_value(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError) as err:
        raise DomainError(f"pow({base!r}, {exponent!r}) left the real domain") from err


_PRODUCT_POWERS = (2.0, 3.0)


def product_power(e: Expression) -> int | None:
    """2 or 3 when ``e`` is ``u^2`` or ``u^3`` with a literal exponent, else None.

    Every evaluator computes these two as the products ``u*u`` and ``u*u*u``:
    a product is correctly rounded where libm ``pow`` is not always, and
    numpy arrays multiply with the same bits, so all evaluators agree."""
    if (
        isinstance(e, Binary)
        and e.op == "pow"
        and isinstance(e.right, Const)
        and e.right.value in _PRODUCT_POWERS
    ):
        return int(e.right.value)
    return None


def evaluate(e: Expression, assignment: Mapping[str, float]) -> float:
    """Evaluate at an assignment covering all free variables; returns a finite
    real.  The domain rule is the compiled kernel's: a zero denominator, log
    of a non-positive value, an overflowing exp or pow, or a non-finite
    result raises ``DomainError``.  A non-finite intermediate value is
    carried on, so ``exp(-(1e308*10))`` is 0.0."""
    value = _value(e, assignment)
    if not math.isfinite(value):
        raise DomainError("non-finite value")
    return value


def _value(e: Expression, assignment: Mapping[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(assignment[e.name])
        except KeyError:
            raise MissingVariableError(e.name) from None
    if isinstance(e, Unary):
        a = _value(e.arg, assignment)
        if e.op == "neg":
            return -a
        if e.op == "exp":
            try:
                return math.exp(a)
            except OverflowError as err:
                raise DomainError(f"exp({a!r}) overflows") from err
        if a <= 0.0:
            raise DomainError(f"log of non-positive value {a!r}")
        return math.log(a)
    left = _value(e.left, assignment)
    right = _value(e.right, assignment)
    if e.op == "add":
        return left + right
    if e.op == "sub":
        return left - right
    if e.op == "mul":
        return left * right
    if e.op == "div":
        if right == 0.0:
            raise DomainError("division by zero")
        return left / right
    power = product_power(e)
    if power is not None:
        return left * left if power == 2 else left * left * left
    return _pow_value(left, right)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite.  One exact test that raises
    no floating-point warning (``a @ zeros`` is NaN exactly when an entry is
    not finite too, but warns on inf), in half the time of
    ``np.isfinite(a).all()``."""
    return b"\0" not in np.isfinite(a).tobytes()


class _OutsideDomain(DomainError):
    """A compiled evaluation of ``guarded`` and ``exprs`` left its domain
    at ``x``.  The message names the failed operation and ``label(pos)`` of
    the first expression that the reference ``evaluate`` rejects; it
    applies the compiled domain rule, so that is the first one outside the
    domain.  The message is worked out only when read, and ``rows.Rows``
    build their trees only then: the callers that catch this and retry
    (step halving, sampling probes) pay nothing for it."""

    def __init__(self, guarded, exprs, var_names, x, label):
        super().__init__()
        self._guarded, self._exprs, self._var_names, self._label = guarded, exprs, var_names, label
        self._x = np.array(x, dtype=float)

    def __str__(self) -> str:
        env = dict(zip(self._var_names, self._x.tolist()))
        for pos, e in enumerate(itertools.chain(self._guarded, self._exprs)):
            try:
                evaluate(e, env)
            except DomainError as err:
                return f"{err} in {self._label(pos)}"
        return "non-finite output"


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# The costs of a graphical game repeat a few forms across many agents, so the
# expressions are grouped by shape: the tree with its constants and variables
# lifted out.  A large enough group is evaluated as one numpy expression over
# all its instances (vector mode): constants become per-instance columns and
# variables index gathers from ``x``.  Vector mode covers only the operations
# numpy evaluates with the same bits as Python floats: + - * /, negation, and
# u^2 and u^3 as products.  numpy's exp and power differ from math.exp and
# Python's pow in the last bit on some inputs, so every other expression, and
# every small group, is straight-line scalar code (scalar mode).
#
# Scalar mode computes each distinct subtree once.  Partials repeat their
# cost's subtrees (a congestion cost's ``capacity - load`` reappears in every
# partial of it and in every cost that routes over the link), so the
# expressions are value-numbered into one DAG first: a subtree's key is its
# operator and the keys of its operands.  Every operation keeps its operands,
# so each value has the same bits as in the tree.
# ---------------------------------------------------------------------------

# Fewest instances for vector mode.  On congestion-net's two largest shapes
# (Intel Xeon, Python 3.11, numpy 2.4) scalar code still wins at 64 instances
# and vector mode wins from 128: a numpy expression costs about a microsecond
# per operation whatever its length, scalar code a fraction of one per
# instance.  256 keeps a factor of two over that crossover.
VECTOR_MIN_INSTANCES = 256

# Scalar-mode source characters after which a piece is closed.  CPython
# parses a whole source before compiling it, at about 150 bytes per
# character, so a long kernel is compiled in pieces.  With shared subtrees,
# congestion-net's Newton Jacobian is one piece of 15k characters (82k
# unshared), and its kernel one of 12k.
MAX_SOURCE_CHARS = 32768

# Operations one emitted expression nests at most.  CPython refuses source
# nested 200 brackets deep, and each operation opens at most two: scalar
# mode binds a deeper node to a temp, and vector mode leaves a deeper shape
# to scalar mode.
MAX_INLINE_DEPTH = 48

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
# Scalar-mode source of each DAG operator, by its operands' sources.
_SCALAR = {
    **{op: f"({{}} {symbol} {{}})" for op, symbol in _INFIX.items()},
    "neg": "(-{})",
    "exp": "_exp({})",
    "log": "_log({})",
    "pow": "_pw({}, {})",
}
# Scalar-mode condition, by its operand's source, under which a guarded
# operation succeeds: ``math.log(u)`` is finite exactly when u lies in
# (0, inf), and a division raises exactly when its denominator is zero.
# ``1e999`` is the literal +inf.
_GUARDS = {"log": "0.0 < {} < 1e999", "div": "{} != 0.0"}


def _vector_source(e: Expression, lift: Callable[[Expression], str], depth: int = 0) -> str | None:
    """Vector-mode source for ``e``, each leaf rendered by ``lift``, left
    to right: the operands are numpy arrays and a division checks its
    denominator; None where vector mode does not cover ``e`` or ``e`` sits
    ``depth`` operations deep, which must stay below ``MAX_INLINE_DEPTH``."""
    if isinstance(e, (Const, Var)):
        return lift(e)
    depth += 1
    if depth >= MAX_INLINE_DEPTH:
        return None
    if isinstance(e, Unary):
        if e.op != "neg":
            return None
        inner = _vector_source(e.arg, lift, depth)
        return None if inner is None else f"(-{inner})"
    left = _vector_source(e.left, lift, depth)
    if left is None:
        return None
    if e.op == "pow":
        power = product_power(e)
        if power is None:
            return None
        # ``_t`` is read right after it is bound, so nesting cannot clobber it.
        return f"((_t := {left}){' * _t' * (power - 1)})"
    right = _vector_source(e.right, lift, depth)
    if right is None:
        return None
    if e.op == "div":
        right = f"_nz({right})"
    return f"({left} {_INFIX[e.op]} {right})"


def _nonzero(den: np.ndarray) -> np.ndarray:
    if not den.all():
        raise DomainError("division by zero")
    return den


def _lift(e: Expression) -> tuple[str | None, list[Const], list[Var]]:
    """Vector-mode source of ``e`` with its leaves renamed ``c<n>`` and
    ``g<n>`` in order (the shape), None where vector mode does not cover
    ``e``; and its constant and its variable leaves in that order, the
    order of the columns ``_leaf_columns`` reads for them."""
    leaves: dict[type, list] = {Const: [], Var: []}

    def lift(leaf: Expression) -> str:
        found = leaves[type(leaf)]
        found.append(leaf)
        return f"{'c' if type(leaf) is Const else 'g'}{len(found) - 1}"

    return _vector_source(e, lift), leaves[Const], leaves[Var]


def _leaf_columns(
    template, consts: list[Const], names: list[Var], rows: np.ndarray, forms, slot_of: dict[str, int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The constant and slot columns, one entry per row of ``rows``, of
    the leaves ``consts`` and ``names`` lifted from ``template``'s tree: a
    kept leaf's own value or slot, and else the literal, with the leaf's
    sign, or the name's slot that the template's ``hole`` places in each
    row.  ``rows[r]`` is the form of row ``r`` in ``forms``
    (``rows.Forms``)."""
    hole = template.hole
    columns = []
    for leaf in consts:
        j = hole(leaf)
        if j is None:
            columns.append(np.full(len(rows), leaf.value, dtype=float))
        else:
            column = forms.literals()[rows, j]
            columns.append(-column if leaf.value < 0 else column)
    slots = []
    for leaf in names:
        j = hole(leaf)
        slots.append(np.full(len(rows), slot_of[leaf.name]) if j is None else forms.slots(slot_of)[rows, j])
    return columns, slots


# A value in the scalar-mode DAG: a leaf is its own source text, an interior
# node its index in ``_Dag.nodes``.
_Ref = Union[str, int]


class _Dag:
    """Scalar-mode expressions, value-numbered: structurally equal subtrees
    are one node.  ``nodes[k]`` is ``(op, *operands)``, each operand a
    ``_Ref``.  ``uses[k]`` counts the operand slots that read node ``k``
    plus the outputs it is."""

    def __init__(self, slot_of: dict[str, int]):
        self._var_ref = {name: f"v{slot}" for name, slot in slot_of.items()}
        self.nodes: list[tuple] = []
        self.uses: list[int] = []
        self._number: dict[tuple, int] = {}
        # Interior nodes by tree-node identity: the frozen dataclasses hash
        # recursively, so keying on the trees themselves would rehash every
        # subtree.  The trees are kept, so that no id is reused: ``rows.Rows``
        # may build a tree on each read.
        self._seen: dict[int, int] = {}
        self._trees: list[Expression] = []

    def output(self, e: Expression) -> _Ref:
        self._trees.append(e)
        ref = self._ref(e)
        if isinstance(ref, int):
            self.uses[ref] += 1
        return ref

    def guards(self, trees) -> list[tuple[str, _Ref]]:
        """Guards for the operations of ``trees`` that can fail, in tree
        order: ``("log", u)`` for ``log(u)``, ``("div", d)`` for a
        denominator ``d``, and ``("call", e)`` for an exp or a power ``e``
        other than a product, evaluated as itself.  Each operand joins the
        DAG as a use, so an exp or a power the DAG evaluates already is its
        temp, and its guard emits nothing.  No ``("div", d)`` guard is
        returned where the DAG divides by ``d`` or by ``d*d``: that division
        raises already wherever ``d`` is zero.  Trees of one template of
        ``rows.Rows`` have the same operations, so where the first has none
        that can fail, the others are not read."""
        found: dict[tuple[str, _Ref], None] = {}
        fails: dict = {}  # template -> whether its first tree has an operation that can fail
        for pos, key in enumerate(trees.keys()):
            if fails.get(key, True):
                fails.setdefault(key, self._guard_walk(trees[pos], found))
        divided = set()
        for op, *operands in self.nodes:
            if op == "div":
                den = operands[1]
                divided.add(den)
                if isinstance(den, int) and self.nodes[den][0] == "mul":
                    _, left, right = self.nodes[den]
                    if left == right:  # d*d is zero wherever d is
                        divided.add(left)
        kept = [(kind, ref) for kind, ref in found if kind != "div" or ref not in divided]
        for _, ref in kept:
            if isinstance(ref, int):
                self.uses[ref] += 1
        return kept

    def _guard_walk(self, tree: Expression, found: dict[tuple[str, _Ref], None]) -> bool:
        """Add the guards of ``tree``'s operations that can fail to
        ``found``, in tree order; whether it has any."""
        can_fail = False
        self._trees.append(tree)
        stack = [tree]
        while stack:
            e = stack.pop()
            # The guard's operand is evaluated, with every operation under it.
            if isinstance(e, Unary):
                if e.op == "neg":
                    stack.append(e.arg)
                    continue
                kind, e = ("log", e.arg) if e.op == "log" else ("call", e)
            elif isinstance(e, Binary) and e.op == "div":
                stack.append(e.left)
                kind, e = "div", e.right
            elif isinstance(e, Binary) and e.op == "pow" and product_power(e) is None:
                kind = "call"
            elif isinstance(e, Binary):
                if e.op != "pow":
                    stack.append(e.right)
                stack.append(e.left)
                continue
            else:
                continue
            can_fail = True
            found.setdefault((kind, self._ref(e)))
        return can_fail

    def _node(self, key: tuple) -> int:
        ref = self._number.get(key)
        if ref is None:
            ref = self._number[key] = len(self.nodes)
            self.nodes.append(key)
            self.uses.append(0)
            for operand in key[1:]:
                if isinstance(operand, int):
                    self.uses[operand] += 1
        return ref

    def _ref(self, e: Expression) -> _Ref:
        if isinstance(e, Const):
            return repr(e.value)  # the shortest round trip keeps every bit, -0.0 too
        if isinstance(e, Var):
            return self._var_ref[e.name]
        ref = self._seen.get(id(e))
        if ref is not None:
            return ref
        if isinstance(e, Unary):
            ref = self._node((e.op, self._ref(e.arg)))
        else:
            left = self._ref(e.left)
            power = product_power(e) if e.op == "pow" else None
            if power == 2:  # u*u and u*u*u, as every evaluator computes them
                key = ("mul", left, left)
            elif power == 3:
                key = ("mul", self._node(("mul", left, left)), left)
            else:
                key = (e.op, left, self._ref(e.right))
            ref = self._node(key)
        self._seen[id(e)] = ref
        return ref

    def source(self, ref: int, piece: "_Piece") -> tuple[str, int]:
        """Source of interior node ``ref`` in ``piece`` and the operations
        it nests.  A node used more than once is bound to a temp ``t<k>`` by
        a line of the piece the first time, and read from it after, and so
        is a node nesting ``MAX_INLINE_DEPTH`` operations; every other node
        is inline."""
        if ref in piece.temps:
            return f"t{ref}", 0
        op, *operands = self.nodes[ref]
        texts = []
        depth = 0
        for x in operands:
            if not isinstance(x, str):
                x, inner = self.source(x, piece)
                depth = max(depth, inner)
            texts.append(x)
        src = _SCALAR[op].format(*texts)
        if self.uses[ref] < 2 and depth + 1 < MAX_INLINE_DEPTH:
            return src, depth + 1
        piece.temps.add(ref)
        piece.line(f"t{ref} = {src}")
        return f"t{ref}", 0


class _Piece:
    """One scalar-mode function ``_s<c>``: its temp and guard lines, then
    its outputs, if any, packed as native doubles, which ``np.frombuffer``
    reads without converting each float."""

    def __init__(self):
        self.positions: list[int] = []
        self.outputs: list[str] = []
        self.lines: list[str] = []
        self.temps: set[int] = set()  # the nodes bound to a temp t<node>
        self.length = 0

    def line(self, line: str) -> None:
        self.lines.append(line)
        self.length += len(line) + 5

    def add(self, dag: _Dag, pos: int, ref: _Ref) -> None:
        src = ref if isinstance(ref, str) else dag.source(ref, self)[0]
        self.positions.append(pos)
        self.outputs.append(src)
        self.length += len(src) + 2

    def guard(self, dag: _Dag, kind: str, ref: _Ref) -> None:
        src = ref if isinstance(ref, str) else dag.source(ref, self)[0]
        if kind != "call":
            self.line(f"if not {_GUARDS[kind].format(src)}: raise _fail")
        elif ref not in self.temps:  # a temp's line has evaluated the call
            self.line(src)

    def function_source(self, c: int, n_names: int, namespace: dict) -> str:
        body = "\n".join(self.lines + self.outputs)
        read = sorted({int(i) for i in re.findall(r"\bv(\d+)\b", body)})
        code = []
        if read:
            namespace[f"_vs{c}"] = np.array(read, dtype=np.intp)
            values = "x.tolist()" if len(read) == n_names else f"x[_vs{c}].tolist()"
            code.append("".join(f"v{i}, " for i in read) + f"= {values}")
        code += self.lines
        if self.outputs:
            namespace[f"_pk{c}"] = struct.Struct(f"{len(self.outputs)}d").pack
            code.append(f"return _pk{c}({', '.join(self.outputs)})")
        return f"def _s{c}(x):\n" + "".join(f"    {line}\n" for line in code)


def _output_label(pos: int) -> str:
    return f"output {pos}"


def _vector_groups(exprs, slot_of: dict[str, int]) -> list[tuple[str, np.ndarray, list[np.ndarray], list[np.ndarray]]]:
    """The shapes of ``exprs``, ``rows.Rows`` (see ``_lift``), that at
    least ``VECTOR_MIN_INSTANCES`` of them share, in the order of their
    first expression, each with its expressions' positions, and their
    constant and slot columns, in position order.  Of the expressions of a
    template only its tree is lifted, the largest templates first, and
    none once the expressions left could not bring a shape to vector mode.
    The expressions of a template that reaches it are gathered from their
    rows, and none is built."""
    keyed = [(positions.tolist(), template, rows) for template, positions, rows in exprs.groups]
    keyed.sort(key=lambda part: (-len(part[0]), part[0][0]))  # the largest first, then in position order
    shapes: dict[str, list] = {}  # shape -> its parts: the positions, template, rows and lifted leaves of a key
    counts: Counter = Counter()
    largest = 0  # the most expressions lifted into one shape
    left = len(exprs)  # the expressions not lifted
    for positions, template, rows in keyed:
        if largest + left < VECTOR_MIN_INSTANCES:
            break
        left -= len(positions)
        shape, consts, names = _lift(template.tree)
        if shape is not None:
            shapes.setdefault(shape, []).append((positions, template, rows, consts, names))
            counts[shape] += len(positions)
            largest = max(largest, counts[shape])
    groups = []
    for shape, parts in shapes.items():
        if counts[shape] < VECTOR_MIN_INSTANCES:
            continue
        read = [_leaf_columns(t, consts, names, rows, exprs.forms, slot_of) for _, t, rows, consts, names in parts]
        positions = np.array([pos for part in parts for pos in part[0]])
        order = np.argsort(positions, kind="stable")
        consts = [np.concatenate(column)[order] for column in zip(*[c for c, _ in read])]
        slots = [np.concatenate(column)[order] for column in zip(*[s for _, s in read])]
        groups.append((shape, positions[order], consts, slots))
    return sorted(groups, key=lambda group: group[1][0])


def compile_vector_function(
    exprs: Iterable[Expression],
    names: tuple[str, ...],
    label: Callable[[int], str] = _output_label,
    guarded: Iterable[Expression] = (),
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile expressions into one function of the point ``x`` (a float
    array in ``names`` order) that returns their values as one array, in
    input order, a fresh writable array on every call.  The domain is where
    every output is finite.  Outside it (a zero denominator, log of a
    non-positive value, an overflowing exp or pow, or a non-finite output)
    the function raises ``DomainError``, whose message ``label(pos)`` of the
    first output outside completes.

    The ``guarded`` expressions are not returned, but the function also
    raises where one of their operations fails: a zero denominator, a log
    whose operand is not in (0, inf), an exp or a power that raises.  A log
    or a division costs one comparison, and an exp or a power one call
    unless the scalar-mode code of the outputs evaluates it already.
    Where a guarded expression computes a non-finite value without a
    failing operation, the function may return.  The message positions
    count the guarded expressions first.

    Either set may be ``rows.Rows``, whose expressions of one template are
    its tree with other literals and names; any other set is made
    ``Rows`` of one kept template per tree (``rows.kept_rows``).  The
    compiler lifts each template's tree alone, reads the constants and
    slots of a template that reaches vector mode from its rows, by its
    ``hole``, builds the trees of the others only, and walks the guarded
    trees of a template for guards only where the first has an operation
    that can fail."""
    from .rows import Rows, kept_rows  # ``rows`` imports this module

    exprs, guarded = (e if isinstance(e, Rows) else kept_rows(e) for e in (exprs, guarded))
    slot_of = {name: i for i, name in enumerate(names)}
    vector_groups = []
    if len(exprs) >= VECTOR_MIN_INSTANCES:  # else no group can reach vector mode
        vector_groups = _vector_groups(exprs, slot_of)

    helpers = {
        "_exp": math.exp,
        "_log": math.log,
        "_pw": math.pow,
        "_nz": _nonzero,
        "_empty": np.empty,
        "_frombuffer": np.frombuffer,
        "_errstate": np.errstate,
        "_finite": all_finite,
        "_fail": DomainError,
    }
    # No function's globals hold it, so reference counting frees a compiled
    # function and the trees ``_outside`` reads.
    namespace = dict(helpers, _outside=lambda x: _OutsideDomain(guarded, exprs, names, x, label))
    lines = []
    if vector_groups:
        lines.append('with _errstate(all="ignore"):')
    vectorized: set[int] = set()
    for q, (shape, positions, consts, slots) in enumerate(vector_groups):
        namespace[f"_p{q}"] = positions
        for n, column in enumerate(consts):
            # A constant shared by every instance enters as a numpy scalar.
            bits = column.view(np.int64)
            namespace[f"_c{q}_{n}"] = column[0] if (bits == bits[0]).all() else column
        for n, column in enumerate(slots):
            namespace[f"_i{q}_{n}"] = column
        body = re.sub(r"\bc(\d+)\b", rf"_c{q}_\1", shape)
        body = re.sub(r"\bg(\d+)\b", rf"x[_i{q}_\1]", body)
        lines.append(f"    out[_p{q}] = {body}")
        vectorized.update(positions.tolist())

    # Scalar mode: one DAG, emitted in pieces that each end with the output
    # or guard that takes them past MAX_SOURCE_CHARS characters, and
    # compiled each on its own as a function ``_s<c>``.  The guards follow
    # the outputs.  A temp is local to its piece, so sharing stops at a
    # piece boundary.
    dag = _Dag(slot_of)
    scalar = [(pos, dag.output(exprs[pos])) for pos in range(len(exprs)) if pos not in vectorized]
    guards = dag.guards(guarded)
    pieces: list[_Piece] = []

    def tail() -> _Piece:
        if not pieces or pieces[-1].length > MAX_SOURCE_CHARS:
            pieces.append(_Piece())
        return pieces[-1]

    for pos, ref in scalar:
        tail().add(dag, pos, ref)
    for kind, ref in guards:
        tail().guard(dag, kind, ref)
    whole = len(pieces) == 1 and len(scalar) == len(exprs) > 0
    for c, piece in enumerate(pieces):
        scope = dict(helpers)
        code = piece.function_source(c, len(names), scope)
        exec(compile(code, "<coalseek-compiled>", "exec"), scope)
        namespace[f"_s{c}"] = scope.pop(f"_s{c}")
        if not piece.outputs:
            lines.append(f"_s{c}(x)")
        elif whole:
            # The only piece holds every output in order, so its bytes are
            # the result, copied into a fresh buffer to make it writable.
            lines.append("out = _frombuffer(bytearray(_s0(x)))")
        else:
            namespace[f"_ps{c}"] = np.array(piece.positions, dtype=np.intp)
            lines.append(f"out[_ps{c}] = _frombuffer(_s{c}(x))")
    if not whole:
        lines.insert(0, f"out = _empty({len(exprs)})")
    source = (
        "def _fn(x):\n    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    except (ArithmeticError, ValueError):\n        pass\n"
        + "    else:\n        if _finite(out):\n            return out\n"
        + "    raise _outside(x)\n"
    )
    exec(compile(source, "<coalseek-compiled>", "exec"), namespace)
    return namespace.pop("_fn")


# ---------------------------------------------------------------------------
# Differentiation
#
# Results are simplified just enough to drop literal-zero additions and
# literal-one multiplications; no algebraic rewriting beyond that.
# ---------------------------------------------------------------------------


_ZERO = Const(0.0)
_ONE = Const(1.0)
_TWO = Const(2.0)


def _is(e: Expression, value: float) -> bool:
    return type(e) is Const and e.value == value


def _neg(a: Expression) -> Expression:
    if type(a) is Const:
        return Const(-a.value)
    return Unary("neg", a)


def _add(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return _neg(b)
    return Binary("sub", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is(a, 0.0):
        return _ZERO
    if _is(b, 1.0):
        return a
    return Binary("div", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is(b, 1.0):
        return a
    if _is(b, 0.0):
        return _ONE
    return Binary("pow", a, b)


def gradient(e: Expression, names: Container[str]) -> tuple[dict[str, Expression], Expression]:
    """Exact symbolic derivatives of ``e`` in one walk: a dict from each
    name of ``names`` that ``e`` reads to the derivative in it, and the
    derivative in any other name.  That one is a constant zero, its sign
    set by the tree alone, so it is the same for every absent name."""
    kind = type(e)
    if kind is Const:
        return {}, _ZERO
    if kind is Var:
        return ({e.name: _ONE} if e.name in names else {}), _ZERO
    if kind is Unary:
        da, za = gradient(e.arg, names)
        if e.op == "neg":
            rule = _neg
        elif e.op == "exp":
            rule = lambda d: _mul(e, d)
        else:
            arg = e.arg
            rule = lambda d: _div(d, arg)
        return {name: rule(d) for name, d in da.items()}, rule(za)
    dl, zl = gradient(e.left, names)
    dr, zr = gradient(e.right, names)
    op, left, right = e.op, e.left, e.right
    if op == "add":
        rule = _add
    elif op == "sub":
        rule = _sub
    elif op == "mul":
        rule = lambda a, b: _add(_mul(a, right), _mul(left, b))
    elif op == "div":
        square = Binary("pow", right, _TWO)
        rule = lambda a, b: _div(_sub(_mul(a, right), _mul(left, b)), square)
    elif type(right) is Const:
        c = right.value
        factor = _mul(Const(c), _pow(left, Const(c - 1.0)))
        rule = lambda a, b: _mul(factor, a)
    else:
        # General exponent: u^v * (v' * log(u) + v * u' / u).
        log = Unary("log", left)
        rule = lambda a, b: _mul(e, _add(_mul(b, log), _div(_mul(right, a), left)))
    out = {name: rule(d, dr.get(name, zr)) for name, d in dl.items()}
    for name, d in dr.items():
        if name not in out:
            out[name] = rule(zl, d)
    return out, rule(zl, zr)


def differentiate(e: Expression, name: str) -> Expression:
    """Exact symbolic derivative of ``e`` with respect to the variable ``name``."""
    derivs, zero = gradient(e, (name,))
    return derivs.get(name, zero)


# ---------------------------------------------------------------------------
# Differentiating many trees of one template
#
# What ``gradient`` builds depends on a tree's structure, on which of its
# leaves are one name and which names it differentiates in, and on the
# constants its rules simplify on: 0 and 1 of either sign, and each pow
# exponent c, of which they make c and c - 1.  Every other constant is a
# hole, which the rules carry or negate.  So a copy of a tree with a marker
# in each hole, a value no rule makes, and a label in each name is
# differentiated once, and stands for the derivatives of every tree of its
# template: a marker is the hole, a negated marker the negated hole, and a
# label the name.  Its derivatives differentiate again the same way.  The
# templates, and the rows of literals and names that they stand for, are
# ``coalseek.rows``; here are the keys of their trees.
# ---------------------------------------------------------------------------


def _kept(value: float, power: bool) -> bool:
    """Whether a constant is no hole: 0 or 1 of either sign, or a pow exponent."""
    return power or value == 0.0 or abs(value) == 1.0


def shape(e: Expression) -> tuple[str, tuple, tuple]:
    """``e``'s skeleton, literals and names in leaf order, from one walk:
    what ``rows.parse_shaped`` reads from a text's tokens.  The skeleton is
    a postfix form of its own, which no text's equals, and, as in a text,
    a literal is unsigned, its sign a '-' before its '#', and a constant
    pow exponent stands right after '^'."""
    ops: list[str] = ["!"]
    literals: list[float] = []
    names: list[str] = []

    def walk(e: Expression) -> None:
        if type(e) is Const:
            ops.append("-#" if math.copysign(1.0, e.value) < 0 else "#")
            literals.append(abs(e.value))
        elif type(e) is Var:
            ops.append("$")
            names.append(e.name)
        elif type(e) is Unary:
            walk(e.arg)
            ops.append(e.op)
        else:
            walk(e.left)
            if e.op == "pow":
                ops.append("^")
            walk(e.right)
            ops.append(e.op)

    walk(e)
    return "".join(ops), tuple(literals), tuple(names)


def template_key(form: tuple[str, tuple, tuple], wrt: Container[str], powers: dict) -> tuple:
    """The key of the template of a tree of shape ``form`` differentiated in
    the names of ``wrt`` (see ``rows.template``): its skeleton, each
    literal that is no hole (None for a hole), the first leaf of each
    leaf's name, and which leaves are in ``wrt``.  ``powers`` is the
    caller's table of the places of each skeleton's pow exponents."""
    skeleton, literals, names = form
    if skeleton not in powers:  # a pow exponent is the literal after '^' or '^-'
        powers[skeleton] = [m[1] is not None for m in re.finditer(r"(\^-?)?#", skeleton)]
    kept = tuple([v if _kept(v, power) else None for v, power in zip(literals, powers[skeleton])])
    return skeleton, kept, tuple(map(names.index, names)), tuple(map(wrt.__contains__, names))


# Fewest trees of one key that make a template.  A template costs about
# 2.5 differentiations of a tree (a marked copy, its derivatives, and
# their builder), and builds each tree's in 0.1 to 0.35 of one (the trees
# of the presets, ring-sparse and congestion-net), so it pays from about
# four trees.
TEMPLATE_MIN_TREES = 4


def _walk(e: Expression) -> Iterator[Expression]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)


def free_variables(e: Expression) -> frozenset[str]:
    """Exact set of variable names occurring in the tree (syntactic dependence)."""
    return frozenset(n.name for n in _walk(e) if isinstance(n, Var))
