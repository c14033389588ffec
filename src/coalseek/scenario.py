"""Scenario documents: a JSON schema describing a game, integrator settings,
initial conditions and seeds, plus the shipped preset catalog.

Scenarios are data, not code, so presets can be diffed and edited.  Loading
validates the document, infers interference graphs when they are omitted,
checks declared interference against actual cost dependencies, and attaches a
containment verdict per coalition (a failed verdict is a warning, not an
error: the run is allowed, the convergence guarantee just is not)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np

from .dynamics import IntegrateParams, Seeker, SeekerState
from .expr import ParseError
from .game import Coalition, Game, GameError, infer_interference_graph
from .graphs import ContainmentReport, Graph, GraphError, validate_containment
# Bound as ``parse``: ``bench/tracing.py`` times each cost's parse by that name.
from .rows import parse_shaped as parse

__all__ = [
    "Scenario",
    "ScenarioError",
    "SCHEMA_KEY",
    "load_scenario",
    "parse_scenario",
    "available_presets",
    "preset_path",
]

SCHEMA_KEY = "coalseek/scenario-v1"


class ScenarioError(ValueError):
    """Schema or consistency violation; the message names the offending key."""


@dataclass(frozen=True)
class Scenario:
    name: str
    game: Game
    params: IntegrateParams
    initial_x: tuple[float, ...]
    x_star: tuple[float, ...] | None
    seed: int
    initial_w: tuple[tuple[int, int, int, float], ...]
    containment: dict[int, ContainmentReport] = field(repr=False)
    warnings: tuple[str, ...] = ()
    reference: dict[str, Any] = field(default_factory=dict, repr=False)
    notes: str = ""

    def __post_init__(self):
        if self.seed < 0:
            raise ScenarioError(f"$.seed: must be non-negative, got {self.seed}")

    def initial_state(self, seeker: Seeker | None = None) -> SeekerState:
        seeker = seeker or Seeker(self.game)
        w = np.zeros(seeker.layout.size)
        for i, j, k, value in self.initial_w:
            w[seeker.layout.slot(i, j, k)] = value
        return seeker.initial_state(np.array(self.initial_x), w)


_REQUIRED = object()


def _finite(value, where: str) -> float:
    """A JSON number that is finite as a float; JSON's NaN and Infinity
    extensions and integers too large for a float are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ScenarioError(f"{where}: expected a finite number, got {value!r}")


def _expect(doc: dict, key: str, kind, path: str, default=_REQUIRED):
    if key not in doc:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}.{key}: missing required key")
        return default
    value = doc[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, f"{path}.{key}")
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind):
        raise ScenarioError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is str:
        # JSON escapes such as \ud800 make lone surrogates, which no report,
        # file or terminal can carry.
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as err:
            raise ScenarioError(
                f"{path}.{key}: not UTF-8 text: {value[err.start]!r} at character {err.start}"
            ) from None
    return value


def _numbers(raw, n: int, where: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or len(raw) != n:
        raise ScenarioError(f"{where}: expected {n} numbers")
    return tuple(_finite(v, f"{where}[{pos}]") for pos, v in enumerate(raw))


def _edge_list(raw, m: int, path: str) -> Graph:
    if not isinstance(raw, list):
        raise ScenarioError(f"{path}: expected a list of [j, l] or [j, l, weight] edges")
    edges = []
    for pos, spec in enumerate(raw):
        where = f"{path}[{pos}]"
        if not isinstance(spec, list) or len(spec) not in (2, 3):
            raise ScenarioError(f"{where}: expected [j, l] or [j, l, weight]")
        j, l = spec[0], spec[1]
        if type(j) is not int or type(l) is not int:
            raise ScenarioError(f"{where}: endpoints must be integers")
        if not (1 <= j <= m and 1 <= l <= m):
            raise ScenarioError(f"{where}: endpoints must lie in 1..{m}")
        w = _finite(spec[2], f"{where}[2]") if len(spec) == 3 else 1.0
        edges.append((j, l, w))
    try:
        return Graph.build(range(1, m + 1), edges)
    except GraphError as err:
        raise ScenarioError(f"{path}: {err}") from None


def parse_scenario(doc: dict, fallback_name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("document root must be an object")
    schema = _expect(doc, "schema", str, "$")
    if schema != SCHEMA_KEY:
        raise ScenarioError(f"$.schema: unsupported schema '{schema}'")
    name = _expect(doc, "name", str, "$", fallback_name)
    delta = _expect(doc, "delta", float, "$", 0.1)
    raw_coalitions = _expect(doc, "coalitions", list, "$")
    if not raw_coalitions:
        raise ScenarioError("$.coalitions: must not be empty")

    warnings: list[str] = []
    coalitions = []
    verdicts: dict[int, ContainmentReport] = {}
    shapes: dict = {}  # one document's cost skeletons (see ``rows.parse_shaped``)
    for ci, raw in enumerate(raw_coalitions, start=1):
        path = f"$.coalitions[{ci - 1}]"
        if not isinstance(raw, dict):
            raise ScenarioError(f"{path}: expected an object")
        cost_strings = _expect(raw, "costs", list, path)
        if not cost_strings:
            raise ScenarioError(f"{path}.costs: must not be empty")
        costs = []
        forms = []  # each cost's shape: its skeleton, literals and names
        for jpos, text in enumerate(cost_strings):
            if not isinstance(text, str):
                raise ScenarioError(f"{path}.costs[{jpos}]: expected a string")
            try:
                cost, form = parse(text, shapes)
            except ParseError as err:
                raise ScenarioError(f"{path}.costs[{jpos}]: {err}") from None
            costs.append(cost)
            forms.append(form)
        m = len(costs)
        dbar = _numbers(_expect(raw, "dbar", list, path, [1.0] * m), m, f"{path}.dbar")
        comm = _edge_list(_expect(raw, "communication", list, path, []), m, f"{path}.communication")
        inferred = infer_interference_graph(costs, ci, [frozenset(names) for *_, names in forms])
        if "interference" in raw:
            declared = _edge_list(raw["interference"], m, f"{path}.interference")
            missing = set(inferred.edge_pairs()) - set(declared.edge_pairs())
            if missing:
                j, l = sorted(missing)[0]
                raise ScenarioError(
                    f"{path}.interference: declared graph misses dependence edge "
                    f"({j},{l}) implied by the costs"
                )
            interference = declared
        else:
            interference = inferred
        if m > 1:
            verdict = validate_containment(interference, comm)
            verdicts[ci] = verdict
            if not verdict.passed:
                warnings.append(
                    f"coalition {ci}: containment check failed: " + "; ".join(verdict.failures)
                )
        coalitions.append(
            Coalition(
                costs=tuple(costs),
                dbar=dbar,
                comm=comm,
                interference=interference,
                shapes=forms,
            )
        )

    try:
        game = Game(coalitions=tuple(coalitions), delta=delta)
    except GameError as err:
        raise ScenarioError(f"$.coalitions: {err}") from None

    integ = _expect(doc, "integrator", dict, "$", {})
    settings = dict(
        method=_expect(integ, "method", str, "$.integrator", "rk4"),
        step=_expect(integ, "step", float, "$.integrator", 1e-3),
        horizon=_expect(integ, "horizon", float, "$.integrator", 100.0),
        record_stride=_expect(integ, "record_stride", int, "$.integrator", None),
        record_dt=_expect(integ, "record_dt", float, "$.integrator", None),
        stop_tol=(
            None
            if integ.get("stop_tol") is None and "stop_tol" in integ
            else _expect(integ, "stop_tol", float, "$.integrator", 1e-8)
        ),
    )
    try:
        params = IntegrateParams(**settings)
    except ValueError as err:
        raise ScenarioError(f"$.integrator: {err}") from None

    n = game.n_actions
    initial_x = _numbers(_expect(doc, "initial_x", list, "$", [0.0] * n), n, "$.initial_x")
    x_star_raw = doc.get("x_star")
    x_star = None if x_star_raw is None else _numbers(x_star_raw, n, "$.x_star")
    seed = _expect(doc, "seed", int, "$", 0)

    allow_w = _expect(doc, "allow_nonzero_w", bool, "$", False)
    initial_w_raw = _expect(doc, "initial_w", list, "$", [])
    initial_w = []
    if initial_w_raw:
        if not allow_w:
            raise ScenarioError(
                "$.initial_w: auxiliary variables start at zero; "
                "set allow_nonzero_w to override"
            )
        layout = game.layout
        for pos, spec in enumerate(initial_w_raw):
            where = f"$.initial_w[{pos}]"
            if not isinstance(spec, list) or len(spec) != 4:
                raise ScenarioError(f"{where}: expected [i, j, k, value]")
            i, j, k, value = spec
            if not all(type(v) is int for v in (i, j, k)):
                raise ScenarioError(f"{where}: indices i, j, k must be integers")
            if (i, j, k) not in layout.slots:
                raise ScenarioError(f"{where}: no stored estimate with index ({i},{j},{k})")
            initial_w.append((i, j, k, _finite(value, f"{where}[3]")))

    reference = _expect(doc, "reference", dict, "$", {})
    notes = _expect(doc, "notes", str, "$", "")

    return Scenario(
        name=name,
        game=game,
        params=params,
        initial_x=initial_x,
        x_star=x_star,
        seed=seed,
        initial_w=tuple(initial_w),
        containment=verdicts,
        warnings=tuple(warnings),
        reference=reference,
        notes=notes,
    )


def _preset_dir():
    return resources.files("coalseek").joinpath("presets")


def available_presets() -> tuple[str, ...]:
    names = []
    for entry in _preset_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return tuple(sorted(names))


def preset_path(name: str):
    candidate = _preset_dir().joinpath(f"{name}.json")
    if not candidate.is_file():
        raise FileNotFoundError(
            f"unknown preset '{name}'; available: {', '.join(available_presets())}"
        )
    return candidate


def load_scenario(source) -> Scenario:
    """Load from a file path, or from a preset name when no such file exists."""
    path = Path(source) if not hasattr(source, "read") else None
    try:
        if path is not None and not path.is_file():
            text = preset_path(str(source)).read_text(encoding="utf-8")
            fallback = str(source)
        elif path is not None:
            text = path.read_text(encoding="utf-8")
            fallback = path.stem
        else:
            text = source.read()
            fallback = "scenario"
    except UnicodeDecodeError as err:
        raise ScenarioError(f"not UTF-8 text: {err}") from None
    try:
        doc = json.loads(text)
    # A ValueError that is no JSONDecodeError is an integer literal past the
    # interpreter's digit limit; RecursionError is nesting past its depth.
    except (ValueError, RecursionError) as err:
        raise ScenarioError(f"invalid JSON: {err}") from None
    return parse_scenario(doc, fallback)
