"""Expressions as templates and rows.

A graphical game's costs repeat a few forms over many agents, and so do
their partials and the second-derivative terms of the Newton Jacobian.  A
``Template`` is one tree that stands for all the trees of a form: a copy
of a tree whose holes are markers and whose names are labels (see
``expr.template_key``), or a derivative of such a copy.  Each tree it
stands for is a row: one form, whose literals and names fill its holes.
A tree whose form too few trees share is a kept template of its own
(``kept``), whose one row is its own form.  ``Rows`` hold a set of
expressions as templates and rows, over one table of forms (``Forms``),
and build an expression's tree only when it is read.
``expr.compile_vector_function`` compiles ``Rows`` alone (``kept_rows``
makes them of any trees).  It gathers the constants and slots of a
template that reaches vector mode from the rows, each leaf from the
column that the template's ``hole`` gives, with no tree built.

One builder, ``program`` and ``run``, makes every tree from a form: the
trees of templates, and each later cost of a skeleton, on its first read
(``Trees``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import reduce
from typing import Callable, Container, Iterable, Iterator, Mapping

import numpy as np

from .expr import Binary, Const, Expression, Unary, Var, _kept, _Parser, _tokens, _walk

__all__ = ["Template", "template", "kept", "kept_rows", "numbered", "program", "run", "parse_shaped", "shaped", "Trees", "Forms", "Rows"]


class Template:
    """A tree that stands for one tree per row, a form (see ``shape``).
    ``template`` makes a marked copy of a tree of a key, ``kept`` the
    template of one tree alone, and ``gradient`` the derivatives of
    either.  ``hole(leaf)`` is the place in a row of a leaf of the tree,
    but a pow exponent: a constant is kept (None) or literal ``j`` of the
    form times the leaf's sign, and a name is kept (None) or name ``j`` of
    the form.  A kept template and its derivatives keep every leaf, and
    each is its own one tree."""

    __slots__ = ("tree", "_marks", "_shared", "_program", "_sources")

    def __init__(self, tree: Expression, marks=None, shared: dict | None = None):
        self.tree = tree
        # Its ``hole``, label -> name, and a form's sizes, None where kept.
        self._marks = marks
        # Its ancestors' operations, which the trees of a form share (see
        # ``program``); None for a marked copy, whose trees are its forms',
        # and where kept.
        self._shared = shared
        self._program = self._sources = None

    @property
    def hole(self) -> Callable[[Expression], int | None]:
        return self._marks[0]

    def build(self, k: int, forms: "Forms", memos: dict) -> Expression:
        """The tree of the row ``forms.rows[k]``.  ``memos`` holds a table
        per form of the trees built from it, by template, so that a tree is
        built once, and reads the nodes it shares with the trees of the
        templates it derives from, the form's own tree among them where
        ``forms`` has it.  A kept template's tree is its own."""
        if self._marks[2] is None:
            return self.tree
        memo = memos.get(k)
        if memo is None:
            memo = memos[k] = {_LEAVES: _leaf_nodes(*forms.rows[k])}
        tree = memo.get(self)
        if tree is not None:
            return tree
        if self._shared is None and forms.trees:  # a marked copy, whose trees are its forms'
            tree = memo[self] = forms.trees[k]
            return tree
        if self._program is None:
            hole, _, sizes = self._marks
            self._program = program(self.tree, hole, sizes, self._shared or {})
            self._sources = {arg for code, arg, *_ in self._program[1] if code == _READ}
        for source in self._sources:
            source.build(k, forms, memos)
        tree = memo[self] = run(self._program, memo[_LEAVES], memo)
        return tree

    def gradient(self, differentiate: Callable, wrt: Container[int] | None = None):
        """The templates of ``gradient`` of each of its trees in the names
        ``wrt`` of its rows (all where None), where ``differentiate`` is
        ``gradient`` as the caller binds it: the derivative in each name
        the trees read, by the name's first place in a row, and the one in
        any other name."""
        marks = self._marks
        labels = marks[1]
        if wrt is not None:
            wrt = {label for label, j in labels.items() if j in wrt}
        derivs, zero = differentiate(self.tree, labels if wrt is None else wrt)
        shared = self._shared
        # A kept tree's derivatives are their own trees, and a shared
        # root's operations are all shared.
        if marks[2] is not None and (shared is None or id(self.tree) not in shared):
            shared = {**_paths(self.tree, self), **(shared or {})}
        return {labels[label]: Template(d, marks, shared) for label, d in derivs.items()}, Template(zero, marks, shared)


def template(tree: Expression) -> Template:
    """The template of the trees of ``tree``'s key (see ``template_key``),
    made from ``tree``.  Its one term is a copy of ``tree`` with a marker
    in each hole, signed as the hole's constant is, and a label ``h<n>`` in
    each name: a form's literals are unsigned, and a leaf of the copy is
    its literal times the sign of its marker."""
    # No marker is a constant of the copy or one the rules make: 0, 1, 2
    # (a squared denominator), and c, c - 1 and c - 2 of each exponent c.
    avoid = {0.0, 1.0, 2.0}
    for node in _walk(tree):
        if type(node) is Binary and node.op == "pow" and type(node.right) is Const:
            c = node.right.value
            avoid.update((abs(c), abs(c - 1.0), abs(c - 2.0)))
    markers = (m for m in itertools.count(3.0) if m not in avoid)
    holes: dict[float, int] = {}  # marker -> its literal
    labels: dict[str, int] = {}  # label -> its name's first place
    label_of: dict[str, str] = {}  # name -> its label
    count = {Const: itertools.count(), Var: itertools.count()}

    def hole(leaf: Expression) -> int | None:
        return labels[leaf.name] if type(leaf) is Var else holes.get(abs(leaf.value))

    def copy(e: Expression, power: bool = False) -> Expression:
        kind = type(e)
        if kind is Const:
            j = next(count[Const])
            if _kept(e.value, power):
                return e
            marker = next(markers)
            holes[marker] = j
            return Const(math.copysign(marker, e.value))
        if kind is Var:
            j = next(count[Var])
            if e.name not in label_of:
                label_of[e.name] = f"h{len(labels)}"
                labels[label_of[e.name]] = j
            return Var(label_of[e.name])
        if kind is Unary:
            return Unary(e.op, copy(e.arg))
        return Binary(e.op, copy(e.left), copy(e.right, e.op == "pow"))

    marked = copy(tree)
    return Template(marked, marks=(hole, labels, (next(count[Const]), next(count[Var]))))


def kept(tree: Expression, names: Sequence[str]) -> Template:
    """The template of ``tree`` alone, whose row holds ``names``, its
    names in leaf order: every leaf is kept, each name is its own label,
    at its first place in ``names``, and its one tree is ``tree``."""
    labels: dict[str, int] = {}
    for j, name in enumerate(names):
        labels.setdefault(name, j)
    return Template(tree, marks=(lambda leaf: None, labels, None))


# The key, in a form's table of built trees, of its leaves (see ``_leaf_nodes``).
_LEAVES = object()


def _paths(tree: Expression, source: Template) -> dict[int, tuple]:
    """The operations of ``tree`` by id, each with ``source`` and a path of
    attributes to it from the root."""
    out: dict[int, tuple] = {}
    todo = [(tree, ())]
    while todo:
        e, path = todo.pop()
        if type(e) is Binary:
            todo += [(e.right, path + ("right",)), (e.left, path + ("left",))]
        elif type(e) is Unary:
            todo.append((e.arg, path + ("arg",)))
        else:
            continue
        out.setdefault(id(e), (source, path))
    return out


# ---------------------------------------------------------------------------
# Building trees from a form
#
# A later cost of a skeleton and each tree of a template are one
# structure with a form's literals and names in its leaves.  ``run`` builds
# it in one loop over a flat post-order list of instructions, one per
# operation, with no recursion.  Its registers are the form's leaves (a
# constant per literal, then a variable per name, shared by every tree
# built from the form), the structure's kept constants, and one per
# instruction.  An operation of a tree built before from the form, the
# form's own tree among them, is read from that tree, so that the trees of
# a form share their nodes.
# ---------------------------------------------------------------------------

_BINARY, _UNARY, _NEGATED, _READ = range(4)


def program(tree: Expression, hole: Callable, sizes: tuple[int, int], shared: Mapping[int, tuple]) -> tuple:
    """The registers after the leaves of a form of ``sizes`` literals and
    names, the instructions ``(code, argument, operand, operand, register)``
    and the root's register that build ``tree``'s structure.  ``hole(leaf)``
    is a leaf's index among the literals or names, or None to keep a
    constant, as ``Template.hole`` gives it; a negative leaf negates its
    literal.  ``shared`` maps the ids
    of the operations read from the tree of another template to it and
    their paths of attributes in it."""
    literals, first = sizes[0], sum(sizes)
    tail: list = []
    out: list[tuple] = []
    done: list[int] = []  # the registers of the values no operation has read yet
    todo: list = [tree]

    def register(value: Expression | None = None) -> int:
        tail.append(value)
        done.append(first + len(tail) - 1)
        return done[-1]

    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is tuple:  # an operation after its operands
            code, op = e
            b = done.pop() if code == _BINARY else None
            out.append((code, op, done.pop(), b, register()))
        elif kind is Var:
            done.append(literals + hole(e))
        elif kind is Const:
            j = hole(e)
            if j is None:
                register(e)
            elif math.copysign(1.0, e.value) > 0:
                done.append(j)
            else:
                out.append((_NEGATED, None, j, None, register()))
        elif id(e) in shared:
            out.append((_READ, *shared[id(e)], None, register()))
        else:
            todo += [(_UNARY, e.op), e.arg] if kind is Unary else [(_BINARY, e.op), e.right, e.left]
    return tail, out, done[0]


def _leaf_nodes(literals: Sequence[float], names: Sequence[str]) -> list[Expression]:
    return [*map(Const, literals), *map(Var, names)]


def run(program: tuple, leaves: list[Expression], memo: dict | None = None) -> Expression:
    """The tree ``program`` builds from a form's ``leaves``, where ``memo``
    holds the trees it reads, by template."""
    tail, instructions, root = program
    registers = leaves + tail
    for code, arg, a, b, k in instructions:
        if code == _BINARY:
            registers[k] = Binary(arg, registers[a], registers[b])
        elif code == _UNARY:
            registers[k] = Unary(arg, registers[a])
        elif code == _READ:
            registers[k] = reduce(getattr, a, memo[arg])
        else:  # _NEGATED
            registers[k] = Const(-registers[a].value)
    return registers[root]


# ---------------------------------------------------------------------------
# Parsing many texts of one shape
#
# The costs of a graphical game repeat a few forms over different
# neighbours.  A text's skeleton is its token key (see ``expr._tokens``):
# its operators and parentheses, and the kind of each leaf.  What the
# parser builds depends on the skeleton alone, but for two checks on single
# tokens: a literal that overflows, and a malformed ``x<digit>`` name,
# which is a token of its own kind, as a stray character is, so no
# skeleton the parser accepts has one.  So the first text of a skeleton is
# parsed, and every later one is only tokenized: its tree is that tree
# with the text's own literals and names in the leaves, which ``shaped``
# builds on its first read.
# ---------------------------------------------------------------------------


def parse_shaped(text: str, shapes: dict) -> tuple[Expression | None, tuple[str, tuple, tuple]]:
    """``text``'s shape (see ``shape``), its skeleton, its literals and its
    names, from one pass of the token pattern, after ``parse(text)`` where
    the text is the first of its skeleton in ``shapes``, else None.
    ``shapes`` is the caller's table of the first tree of each skeleton
    seen so far, kept for a set of texts.  A later text with an
    overflowing literal is parsed too, which raises the parser's
    ``ParseError``."""
    key, literals, names = _tokens(text)
    # Tuples of numbers and strings, which the garbage collector stops tracking.
    form = key, tuple(literals), tuple(names)
    if key in shapes and math.inf not in literals:  # the parser raises on the latter
        return None, form
    tree = shapes[key] = _Parser(text, *form).tree()
    return tree, form


def shaped(forms: Sequence[tuple], shapes: Mapping, programs: dict, j: int) -> Expression:
    """The tree of ``forms[j]``, a later text of its skeleton (see
    ``parse_shaped``), built by ``run`` from the first tree of the
    skeleton in ``shapes``, every literal, pow exponents included, and
    every name a hole in text order.  ``programs`` holds the program of
    each skeleton, made on its first use."""
    key, literals, names = forms[j]
    built = programs.get(key)
    if built is None:
        count = {Const: itertools.count(), Var: itertools.count()}
        built = programs[key] = program(
            shapes[key], lambda leaf: next(count[type(leaf)]), (len(literals), len(names)), {}
        )
    return run(built, _leaf_nodes(literals, names))


def _sliced(trees: Sequence[Expression], j: slice) -> tuple[Expression, ...]:
    """The slice ``j`` of trees built on their reads, as a tuple of them."""
    return tuple(map(trees.__getitem__, range(len(trees))[j]))


class Trees(Sequence):
    """Trees each built on its first read, which every later read returns:
    ``trees[j]`` where it is not None, else ``build(j)``.  A slice is a
    tuple of trees."""

    __slots__ = ("_trees", "_build")

    def __init__(self, trees: list, build: Callable[[int], Expression]):
        self._trees, self._build = trees, build

    def __len__(self) -> int:
        return len(self._trees)

    def __getitem__(self, j):
        if type(j) is slice:
            return _sliced(self, j)
        tree = self._trees[j]
        if tree is None:
            tree = self._trees[j] = self._build(j)
        return tree


class Forms:
    """The literals and names of the forms (see ``shape``) of a set of
    trees, by index: ``rows[k]`` is form ``k``, a row of a template (see
    ``Template``), and ``trees[k]``, where given, the tree of form ``k``,
    whose nodes the trees built from it share.  Vector mode gathers from
    the forms as matrices, one row per form, padded where forms are
    shorter."""

    def __init__(self, rows: list[tuple[tuple, tuple]], trees: list | None = None):
        self.rows, self.trees = rows, trees
        self._literals: np.ndarray | None = None
        self._slots: tuple[Mapping, np.ndarray] | None = None  # the mapping of the last ``slots``, and its matrix

    def literals(self) -> np.ndarray:
        """Each form's literals, padded with 0.0; built on first read."""
        if self._literals is None:
            values = [literals for literals, _ in self.rows]
            self._literals = _padded(values, np.fromiter(itertools.chain.from_iterable(values), float), 0.0)
        return self._literals

    def slots(self, slot_of: Mapping[str, int]) -> np.ndarray:
        """Each form's names as their values in ``slot_of``, one lookup
        per name, padded with -1; built on first read, and again only for
        a mapping unequal to the last one read, so that a game's readers
        share one matrix."""
        last = self._slots
        if last is None or (last[0] is not slot_of and last[0] != slot_of):
            names = [names for _, names in self.rows]
            slots = np.fromiter(map(slot_of.__getitem__, itertools.chain.from_iterable(names)), np.intp)
            last = slot_of, _padded(names, slots, -1)
        self._slots = slot_of, last[1]  # so that the next read with it is one identity test
        return last[1]


def _padded(items: list[tuple], values: np.ndarray, fill) -> np.ndarray:
    """``values``, the entries of ``items`` in order, as a matrix with a row
    per item, padded with ``fill``, and one column at least."""
    lengths = np.fromiter(map(len, items), np.intp, len(items))
    out = np.full((len(items), int(lengths.max(initial=1))), fill, dtype=values.dtype)
    out[np.arange(out.shape[1]) < lengths[:, None]] = values
    return out


def numbered(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of the integers ``codes``: their places, by value and stably; where
    the places of each distinct value start among those; and each code's
    number among the distinct values, in value order.  That is what
    ``np.unique`` finds, which imports ``numpy.ma`` (20 ms) on its first
    call."""
    # ndarray methods, where numpy's functions add a Python call each.
    order = codes.argsort(kind="stable")
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    number = np.empty(len(codes), dtype=np.intp)
    number[order] = new.cumsum() - 1
    return order, new.nonzero()[0], number


class Rows(Sequence):
    """Expressions given by templates and rows.  ``groups`` holds each
    template with its positions and, per position, its row: the index of
    one form in ``forms`` (see ``Template``).  Every position is in one
    group, and an expression of a key too few others share has a kept
    template (``kept``) of its own tree.  A position indexes as in any
    sequence, and a slice is a tuple of trees, as of ``Trees``.  A tree of
    a marked template is built on its first read, and shares nodes with
    the trees built before from its row's form (``memos``, which ``Rows``
    of one ``forms`` may share).
    The compiler gathers the rows of a template that reaches vector mode,
    and builds none of its trees."""

    def __init__(self, forms: Forms, groups: list[tuple["Template", np.ndarray, np.ndarray]], memos=None):
        self.forms, self.groups = forms, groups
        self.memos = {} if memos is None else memos
        self._size = sum(len(positions) for _, positions, _ in groups)
        self._where: tuple[list, list] | None = None  # each position's template, and its row

    def _placed(self) -> tuple[list, list]:
        if self._where is None:
            templates: list = [None] * self._size
            rows: list = [None] * self._size
            for template, positions, group_rows in self.groups:
                for pos, row in zip(positions.tolist(), group_rows.tolist()):
                    templates[pos], rows[pos] = template, row
            self._where = templates, rows
        return self._where

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, pos):
        if type(pos) is slice:
            return _sliced(self, pos)
        templates, rows = self._where or self._placed()
        return templates[pos].build(rows[pos], self.forms, self.memos)

    def __iter__(self) -> Iterator[Expression]:
        return map(self.__getitem__, range(len(self)))

    def __add__(self, other: "Rows") -> "Rows":
        shift = len(self)
        groups = [(template, positions + shift, rows) for template, positions, rows in other.groups]
        return Rows(self.forms, self.groups + groups, self.memos)

    def keys(self) -> list:
        """Each expression's template."""
        return list(self._placed()[0])


def kept_rows(trees: Iterable[Expression]) -> Rows:
    """``trees`` as ``Rows``, one group per tree, whose template is the
    tree kept (``kept``) with no names: such a template is never
    differentiated, and its one row reads no form."""
    trees = list(trees)
    at = np.arange(len(trees), dtype=np.intp)
    return Rows(Forms([]), [(kept(tree, ()), at[k : k + 1], at[k : k + 1]) for k, tree in enumerate(trees)])
