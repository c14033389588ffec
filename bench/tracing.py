"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces the layer functions at the names their callers
look them up by (``coalseek.cli.solve_stationary``, ``coalseek.game.evaluate``,
``Seeker.partial_vector``, ...) with wrappers that record one span per call:
name, start, end, parent and whether it raised.  Spans stay in memory in
flat arrays and are written out once, at the end.  ``uninstall`` puts every
original back.  Nothing inside the package is edited.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from functools import cached_property, wraps

import numpy as np

# (owner, attribute, span name).  The owner is a module or a class, given by
# dotted path.  ``expr.evaluate`` and ``expr.differentiate`` recurse inside
# ``coalseek.expr``, so they are wrapped where ``game`` and ``oracle`` bind
# them: each span is one top-level call.
HOOKS = (
    ("coalseek.cli", "main", "cli.command"),
    ("coalseek.cli", "load_scenario", "scenario.load"),
    ("coalseek.scenario", "parse", "expr.parse"),
    ("coalseek.game", "differentiate", "expr.differentiate"),
    ("coalseek.oracle", "differentiate", "expr.differentiate"),
    ("coalseek.game", "evaluate", "expr.evaluate"),
    ("coalseek.oracle", "evaluate", "expr.evaluate"),
    ("coalseek.game", "laplacian", "graphs.laplacian"),
    ("coalseek.scenario", "validate_containment", "graphs.containment"),
    ("coalseek.game.Game", "partials", "game.partials"),
    ("coalseek.game.Game", "layout", "game.layout"),
    ("coalseek.oracle", "pseudo_gradient", "game.pseudo_gradient"),
    ("coalseek.dynamics.Seeker", "__init__", "dynamics.seeker_build"),
    ("coalseek.dynamics", "compile_vector_function", "dynamics.compile"),
    ("coalseek.dynamics.Seeker", "integrate", "dynamics.integrate"),
    ("coalseek.dynamics.Seeker", "_step", "dynamics.step"),
    ("coalseek.dynamics.Seeker", "_rhs_from_pvec", "dynamics.rhs"),
    ("coalseek.dynamics.Seeker", "partial_vector", "dynamics.partials"),
    ("coalseek.dynamics.Seeker", "block_residuals", "dynamics.record"),
    ("coalseek.dynamics.Trajectory", "write_csv", "dynamics.csv_write"),
    ("coalseek.cli", "solve_stationary", "oracle.solve"),
    ("coalseek.cli", "gradient_check", "oracle.gradient_check"),
    ("coalseek.cli", "check_monotonicity", "oracle.monotonicity"),
    ("coalseek.analysis", "build_block_transforms", "analysis.transforms"),
    ("coalseek.analysis", "lyapunov_value", "analysis.lyapunov"),
    ("coalseek.analysis", "deviation_bounds", "analysis.deviation_bounds"),
    ("coalseek.analysis", "cost_accounting", "analysis.cost_accounting"),
)

# Spans whose keyword arguments and result are kept for the metrics below.
KEEP = {"oracle.monotonicity", "analysis.cost_accounting", "cli.command"}


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


class Spans:
    """Flat, append-only span store."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.kept: dict[str, list[tuple[dict, object]]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies, so the store can keep growing while they are alive."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "raised": np.array(self.raised, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, span: str):
        tracer = self
        keep = span in KEEP
        nid = self.spans.name_id(span)

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans.start)
            spans.name.append(nid)
            spans.parent.append(tracer._stack[-1] if tracer._stack else -1)
            spans.end.append(math.nan)
            spans.raised.append(0)
            tracer._stack.append(sid)
            spans.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.raised[sid] = 1
                raise
            finally:
                spans.end[sid] = time.perf_counter()
                tracer._stack.pop()
            if keep:
                spans.kept.setdefault(span, []).append((kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for owner_path, attr, span in HOOKS:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            is_class = isinstance(owner, type)
            original = vars(owner).get(attr) if is_class else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(original.func, span))
                replacement.__set_name__(owner, attr)
            else:
                replacement = self._wrap(original, span)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanView:
    """Per-name durations, self times and failures of a tracer's spans."""

    def __init__(self, spans: Spans):
        a = spans.arrays()
        self.names = spans.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.raised = a["raised"].astype(bool)
        self.duration = a["end"] - a["start"]
        inside = self.parent >= 0
        child = np.bincount(
            self.parent[inside], weights=self.duration[inside], minlength=len(self.duration)
        )
        self.self_time = self.duration - child

    def mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self.mask(span).sum())

    def total(self, span: str) -> float:
        return float(self.duration[self.mask(span)].sum())

    def mean_us(self, span: str) -> float:
        m = self.mask(span)
        return float(self.duration[m].mean() * 1e6) if m.any() else 0.0

    def self_total(self, span: str) -> float:
        return float(self.self_time[self.mask(span)].sum())

    def raised_count(self, span: str) -> int:
        return int((self.mask(span) & self.raised).sum())

    def useful_rhs(self) -> int:
        """RHS evaluations made inside a step that was accepted."""
        rhs = self.mask("dynamics.rhs")
        steps = self.mask("dynamics.step")
        parents = self.parent[rhs]
        parents = parents[parents >= 0]
        return int((steps[parents] & ~self.raised[parents]).sum())


def seeker_array_mib(seeker) -> float:
    """Bytes of every array the Seeker holds, directly or through coalseek
    objects and containers it references.  Computed from ``nbytes``, not
    measured."""
    seen: set[int] = set()
    total = 0

    def visit(obj, depth):
        nonlocal total
        if id(obj) in seen or depth > 4:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, dict):
            for v in obj.values():
                visit(v, depth + 1)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                visit(v, depth + 1)
        elif type(obj).__module__.startswith("coalseek") and hasattr(obj, "__dict__"):
            for v in vars(obj).values():
                visit(v, depth + 1)

    visit(seeker, 0)
    return total / 2**20
