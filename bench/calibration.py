"""Host-speed probe for the untraced run.

The host this benchmark runs on is shared: its speed drifts by tens of
percent in phases of seconds to minutes, and a 40 s run cannot average the
slow phases away.  A fixed probe, interleaved with the passes, measures the
speed of the same stretch of time.  ``run.py`` scales each timing median by
``REFERENCE_S / median probe time`` of its run, so the end-to-end timings are
in reference-speed seconds: the wall time the run would have taken had the
host run the probe in ``REFERENCE_S``.

The probe is the benchmark's own code and never calls the package, so a
change to the package cannot move it.  Its mix, a recursive tree walk over
dicts plus small numpy products, is the kind of interpreter-bound work that
dominates the workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
PROBES_PER_BATCH = 5

_TREE = (
    "add",
    ("mul", ("var", "a"), ("var", "b")),
    ("div", ("const", 3.0), ("sub", ("var", "c"), ("mul", ("var", "a"), ("const", 0.5)))),
)
_MATRIX = np.random.default_rng(0).random((40, 40))
_VECTOR = np.ones(40)


def _walk(node, env):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return env[node[1]]
    left, right = _walk(node[1], env), _walk(node[2], env)
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    return left / right


def probe_once() -> float:
    """Seconds one fixed probe takes; about ``REFERENCE_S`` on a quiet host."""
    start = time.perf_counter()
    env = {"a": 1.5, "b": 2.0, "c": 9.0}
    acc = 0.0
    for i in range(4000):
        env["a"] = 1.0 + i * 1e-3
        acc += _walk(_TREE, env)
        if i % 4 == 0:
            acc += float((_MATRIX @ _VECTOR).sum())
    return time.perf_counter() - start


def probe_batch() -> list[float]:
    return [probe_once() for _ in range(PROBES_PER_BATCH)]


def speed(probes: list[float]) -> float:
    """Factor that turns this run's wall seconds into reference-speed seconds."""
    return REFERENCE_S / statistics.median(probes)
