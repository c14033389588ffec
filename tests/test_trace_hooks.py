"""The traced benchmark run wraps layer functions by name (``HOOKS`` in
``bench/tracing.py``).  A rename inside the package would silently zero the
per-layer metric that reads it, so every hook must still resolve."""

import importlib.util
from functools import cached_property
from pathlib import Path

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
