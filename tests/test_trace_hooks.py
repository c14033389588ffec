"""The traced benchmark run wraps layer functions by name (``HOOKS`` in
``bench/tracing.py``).  A rename inside the package would silently zero the
per-layer metric that reads it, so every hook must still resolve."""

import importlib.util
from functools import cached_property
from pathlib import Path

import numpy as np

from coalseek.dynamics import IntegrateParams, Seeker
from coalseek.expr import parse
from coalseek.game import Coalition, Game
from coalseek.graphs import Graph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Hooks known not to resolve: nothing under ``coalseek`` binds these names
# any more.
KNOWN_MISSING = {
    "coalseek.game.evaluate",
    "coalseek.oracle.evaluate",
    "coalseek.dynamics.compile_vector_function",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves():
    tracing = _tracing()
    missing = set()
    for owner_path, attr, _ in tracing.HOOKS:
        try:
            owner = tracing._resolve(owner_path)
        except (ImportError, AttributeError):
            missing.add(f"{owner_path}.{attr}")
            continue
        # The tracer reads a class's own attribute, as it replaces it there.
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not (callable(found) or isinstance(found, cached_property)):
            missing.add(f"{owner_path}.{attr}")
    assert missing <= KNOWN_MISSING, sorted(missing - KNOWN_MISSING)


def test_tracer_sees_every_dopri5_attempt():
    # The double log barrier of test_dopri5_domain_exit_is_halved_and_counted:
    # some attempts leave the domain, others fail the error test.
    tracing = _tracing()
    trivial = Graph.build([1])
    cost = parse("-10*log(2 - x1_1) - 10*log(x1_1 + 1)")
    game = Game(coalitions=(Coalition((cost,), (1.0,), trivial, trivial),), delta=1.0)
    params = IntegrateParams(method="dopri5", step=1.0, horizon=30.0, record_dt=1.0, stop_tol=None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seeker = Seeker(game)
        traj = seeker.integrate(seeker.initial_state([1.9]), params)
    finally:
        tracer.uninstall()
    view = tracing.SpanView(tracer.spans)
    attempts = view.mask("dynamics.step")
    assert attempts.sum() == traj.steps + traj.rejected_steps
    # A domain exit is an attempt whose partials raised.
    exits = np.zeros_like(attempts)
    exits[view.parent[view.mask("dynamics.partials") & view.raised]] = True
    assert 0 < exits.sum() < traj.rejected_steps
    assert np.array_equal(attempts & view.raised, exits)
