"""Expressions as templates and rows.

A graphical game's costs repeat a few forms over many agents, and so do
their partials and the entries of the Newton Jacobian.  A ``Template`` is
one tree that stands for all the trees of a form: a copy of a tree whose
holes are markers and whose names are labels (see ``expr.template_key``),
or a derivative of such a copy, or a sum of these.  Each tree it stands for
is a row: the literals and the names of a form for each of its parts.
``Rows`` hold a set of expressions as templates and rows, over one table of
forms (``Forms``), and build an expression's tree only when it is read.
``expr.compile_vector_function`` gathers the constants and slots of a
template that reaches vector mode from the rows, with no tree built.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import reduce
from operator import attrgetter
from typing import Callable, Container, Iterator, Mapping

import numpy as np

from .expr import Binary, Const, Expression, Unary, Var, _kept

__all__ = ["Template", "template", "Forms", "Rows"]


class Template:
    """A sum of trees, one per part, that stands for one such sum per row.
    A row holds one part per term, the literals and the names of a form
    (see ``shape``).  ``template`` makes one of one part, a marked copy of
    a tree of a key, ``gradient`` the derivatives of such a copy, and
    ``+`` a sum, whose ``parts`` are the templates of one part it adds
    (none for a template of one part).  Its leaf map (``leaves``) gives
    each leaf of the sum but the pow exponents, left to right: a constant
    is kept (None) or literal ``j`` of part ``t`` times ``sign``
    (``(t, j, sign)``), and a name is name ``j`` of part ``t`` (``(t, j)``)."""

    __slots__ = ("tree", "parts", "_marks", "_shared", "_build", "_leaves")

    def __init__(self, tree: Expression, parts: tuple = (), marks=None, shared: frozenset = frozenset()):
        self.tree, self.parts = tree, parts
        # Of a marked copy: marker -> (literal, sign), label -> name, and its interior nodes' ids.
        self._marks = marks
        self._shared = shared  # the ids of its ancestors' operations, which the trees of a form share
        self._build = None
        self._leaves = None

    @property
    def leaves(self) -> tuple[tuple, tuple]:
        """The leaf map, as the constants' and the names', worked out on
        first read."""
        if self._leaves is None:
            if not self.parts:
                self._leaves = _leaf_map(self.tree, *self._marks[:2])
            else:
                consts, names = [], []
                for t, part in enumerate(self.parts):
                    consts += [None if at is None else (t, *at[1:]) for at in part.leaves[0]]
                    names += [(t, j) for _, j in part.leaves[1]]
                self._leaves = tuple(consts), tuple(names)
        return self._leaves

    def build(self, row: Sequence[int], forms: "Forms", memos: dict) -> Expression:
        """The sum of trees of the row whose parts are ``forms.rows[k]``
        for each ``k`` of ``row``.  ``memos`` holds a table per form of the
        trees built from it, by template, and of their nodes, so that a
        tree is built once and the trees of one form share the nodes they
        take from the templates they derive from, the form's own tree's
        among them where ``forms`` has it."""
        if self.parts:
            return reduce(_add_node, [t.build((k,), forms, memos) for t, k in zip(self.parts, row)])
        if self._build is None:
            self._build = _builder(self.tree, self._marks, self._shared)
        (k,) = row
        memo = memos.get(k)
        if memo is None:
            memo = memos[k] = {_OWN: forms.trees[k] if forms.trees else None}
        tree = memo.get(self)
        if tree is None:
            tree = memo[self] = self._build(*forms.rows[k], memo)
        return tree

    def gradient(self, differentiate: Callable, wrt: Container[int] | None = None):
        """The templates of ``gradient`` of each of its trees, of one part,
        in the names ``wrt`` of its rows (all where None), where
        ``differentiate`` is ``gradient`` as the caller binds it: the
        derivative in each name the trees read, by the name's first place
        in a row, and the one in any other name."""
        labels = self._marks[1]
        if wrt is not None:
            wrt = {label for label, j in labels.items() if j in wrt}
        derivs, zero = differentiate(self.tree, labels if wrt is None else wrt)
        marks, shared = self._marks, self._shared
        if id(self.tree) not in shared:  # a shared root's operations are all shared
            shared = shared.union(map(id, _interior(self.tree)))

        def derived(d: Expression) -> Template:
            return Template(d, marks=marks, shared=shared)

        return {labels[label]: derived(d) for label, d in derivs.items()}, derived(zero)

    def __add__(self, other: "Template") -> "Template":
        return Template(Binary("add", self.tree, other.tree), (self.parts or (self,)) + (other.parts or (other,)))


def _add_node(left: Expression, right: Expression) -> Expression:
    return Binary("add", left, right)


def template(tree: Expression, literals: Sequence[float]) -> Template:
    """The template of the trees of ``tree``'s key (see ``template_key``),
    made from ``tree``, whose literals in leaf order are ``literals``:
    loaded texts give them unsigned, where a hole's sign is its tree's,
    and ``shape`` signed.  Its one term is a copy of ``tree`` with a marker
    in each hole and a label ``h<n>`` in each name."""
    # No marker is a constant of the copy or one the rules make: 0, 1, 2
    # (a squared denominator), and c, c - 1 and c - 2 of each exponent c.
    avoid = {0.0, 1.0, 2.0}
    for node in _interior(tree):
        if type(node) is Binary and node.op == "pow" and type(node.right) is Const:
            c = node.right.value
            avoid.update((abs(c), abs(c - 1.0), abs(c - 2.0)))
    markers = (m for m in itertools.count(3.0) if m not in avoid)
    holes: dict[float, tuple[int, float]] = {}  # marker -> its literal, and the sign of the marker's hole
    labels: dict[str, int] = {}  # label -> its name's first place
    label_of: dict[str, str] = {}  # name -> its label
    count = {Const: itertools.count(), Var: itertools.count()}
    paths: dict[int, str] = {}  # an operation of the copy -> its attribute path from the root

    def copy(e: Expression, path: str = "", power: bool = False) -> Expression:
        kind = type(e)
        if kind is Const:
            j = next(count[Const])
            if _kept(e.value, power):
                return e
            marker = next(markers)
            holes[marker] = j, math.copysign(1.0, literals[j])
            return Const(math.copysign(marker, e.value))
        if kind is Var:
            j = next(count[Var])
            if e.name not in label_of:
                label_of[e.name] = f"h{len(labels)}"
                labels[label_of[e.name]] = j
            return Var(label_of[e.name])
        if kind is Unary:
            node = Unary(e.op, copy(e.arg, path + ".arg"))
        else:
            node = Binary(e.op, copy(e.left, path + ".left"), copy(e.right, path + ".right", e.op == "pow"))
        paths[id(node)] = path
        return node

    marked = copy(tree)  # kept by the template, so no id of ``paths`` is reused
    return Template(marked, marks=(holes, labels, paths), shared=frozenset(paths))


# The key, in a form's table of built nodes, of the form's own tree.
_OWN = object()


def _leaf_map(tree: Expression, holes: dict, labels: dict) -> tuple[tuple, tuple]:
    """The leaf map of ``tree``, a tree of a marked copy's markers and labels."""
    consts, names = [], []
    stack = [(tree, False)]
    while stack:
        e, power = stack.pop()
        kind = type(e)
        if kind is Const:
            if not power:
                at = holes.get(abs(e.value))
                consts.append(None if at is None else (0, at[0], at[1] if e.value > 0 else -at[1]))
        elif kind is Var:
            names.append((0, labels[e.name]))
        elif kind is Unary:
            stack.append((e.arg, False))
        else:
            stack.append((e.right, e.op == "pow"))
            stack.append((e.left, False))
    return tuple(consts), tuple(names)


def _builder(tree: Expression, marks: tuple, shared: frozenset) -> Callable[[Sequence, Sequence, dict], Expression]:
    """A function of a form's literals and names, and its table of built
    nodes, that builds the tree of ``tree``, a tree of a marked copy's
    ``marks``: its markers, labels and operations.  A kept leaf is the
    template's own node.  An operation of ``shared`` is looked up in the
    table, and else read from the form's own tree where it is one of the
    copy's and the form has one, or built, its operands' functions made
    on its first build.  The function is one closure per node of
    ``tree``."""
    holes, labels, paths = marks
    kind = type(tree)
    if kind is Const:
        at = holes.get(abs(tree.value))
        if at is None:
            return lambda c, v, m: tree
        j, sign = at
        if (sign > 0) == (tree.value > 0):
            return lambda c, v, m: Const(c[j])
        return lambda c, v, m: Const(-c[j])
    if kind is Var:
        j = labels[tree.name]
        return lambda c, v, m: Var(v[j])
    if id(tree) not in shared:
        return _operation(tree, marks, shared)
    key, build = id(tree), None  # the template keeps ``tree``, so no id is reused
    path = paths.get(key)
    read = None if path is None else attrgetter(path[1:]) if path else _itself

    def once(c, v, m):
        nonlocal build
        node = m.get(key)
        if node is None:
            own = m[_OWN]
            if read is not None and own is not None:
                node = read(own)
            else:
                if build is None:
                    build = _operation(tree, marks, shared)
                node = build(c, v, m)
            m[key] = node
        return node

    return once


def _itself(e: Expression) -> Expression:
    return e


def _operation(tree: Expression, marks: tuple, shared: frozenset) -> Callable:
    """``_builder`` of the operation ``tree``, which it builds every time."""
    op = tree.op
    if type(tree) is Unary:
        arg = _builder(tree.arg, marks, shared)
        return lambda c, v, m: Unary(op, arg(c, v, m))
    left, right = _builder(tree.left, marks, shared), _builder(tree.right, marks, shared)
    return lambda c, v, m: Binary(op, left(c, v, m), right(c, v, m))


class Forms:
    """The literals and names of the forms (see ``shape``) of a set of
    trees, by index: ``rows[k]`` is one part of a template's row (see
    ``Template``), and ``trees[k]``, where given, the tree of form ``k``,
    whose nodes the trees built from it share.  Vector mode gathers from
    the forms as matrices, one row per form, padded where forms are
    shorter."""

    def __init__(self, rows: list[tuple[tuple, tuple]], trees: list | None = None):
        self.rows, self.trees = rows, trees
        self._literals: np.ndarray | None = None

    def literals(self) -> np.ndarray:
        """Each form's literals, padded with 0.0; built on first read."""
        if self._literals is None:
            values = [literals for literals, _ in self.rows]
            self._literals = _padded(values, np.fromiter(itertools.chain.from_iterable(values), float), 0.0)
        return self._literals

    def slots(self, slot_of: Mapping[str, int]) -> np.ndarray:
        """Each form's names as their values in ``slot_of``, one lookup
        per name, padded with -1."""
        names = [names for _, names in self.rows]
        return _padded(names, np.fromiter(map(slot_of.__getitem__, itertools.chain.from_iterable(names)), np.intp), -1)


def _padded(items: list[tuple], values: np.ndarray, fill) -> np.ndarray:
    """``values``, the entries of ``items`` in order, as a matrix with a row
    per item, padded with ``fill``, and one column at least."""
    lengths = np.fromiter(map(len, items), np.intp, len(items))
    out = np.full((len(items), int(lengths.max(initial=1))), fill, dtype=values.dtype)
    out[np.arange(out.shape[1]) < lengths[:, None]] = values
    return out


class Rows(Sequence):
    """Expressions given by templates and rows.  ``groups`` holds each
    template with its positions and, per position, its row: the index in
    ``forms`` of each of its parts (see ``Template``).  ``trees[pos]`` is
    expression ``pos`` where it is not None, and is not None at every
    position of no group.  A tree of a template is built on its first
    read, and shares nodes with the trees built before from a form of its
    row (``memos``, which ``Rows`` of one ``forms`` may share).  The
    compiler gathers the rows of a template that reaches vector mode, and
    builds none of its trees."""

    def __init__(self, forms: Forms, trees: list, groups: list[tuple["Template", np.ndarray, np.ndarray]], memos=None):
        self.forms, self.trees, self.groups = forms, trees, groups
        self.memos = {} if memos is None else memos
        self._where: dict[int, tuple] | None = None  # position -> its template and row

    def __len__(self) -> int:
        return len(self.trees)

    def __getitem__(self, pos: int) -> Expression:
        tree = self.trees[pos]
        if tree is not None:
            return tree
        if self._where is None:
            self._where = {
                at: (template, row)
                for template, positions, rows in self.groups
                for at, row in zip(positions.tolist(), rows.tolist())
            }
        template, row = self._where[pos]
        return template.build(row, self.forms, self.memos)

    def __iter__(self) -> Iterator[Expression]:
        return map(self.__getitem__, range(len(self)))

    def __add__(self, other: "Rows") -> "Rows":
        shift = len(self)
        groups = [(template, positions + shift, rows) for template, positions, rows in other.groups]
        return Rows(self.forms, self.trees + other.trees, self.groups + groups, self.memos)

    def derived_memos(self) -> dict:
        """A copy of ``memos`` for the trees of templates derived from these
        (see ``Template.gradient``): each tree built so far is found there
        by its template's nodes too."""
        out: dict = {}
        nodes: dict[Template, list[int]] = {}  # a template -> its operations' ids
        for k, memo in self.memos.items():
            out[k] = copy = dict(memo)
            for template, tree in memo.items():
                if isinstance(template, Template):
                    if template not in nodes:
                        nodes[template] = list(map(id, _interior(template.tree)))
                    copy.update(zip(nodes[template], _interior(tree)))
        return out

    def keys(self) -> list:
        """Each expression's template, or None."""
        keys = [None] * len(self)
        for template, positions, _ in self.groups:
            for pos in positions.tolist():
                keys[pos] = template
        return keys


def _interior(e: Expression) -> list[Expression]:
    """The operations of ``e``, breadth first: one order for every tree of
    one structure."""
    nodes = [] if type(e) is Const or type(e) is Var else [e]
    for node in nodes:  # the loop reads what it appends
        for child in (node.left, node.right) if type(node) is Binary else (node.arg,):
            if type(child) is Binary or type(child) is Unary:
                nodes.append(child)
    return nodes
