#!/usr/bin/env python3
"""Interleaved A/B comparison of the integrator on two source trees.

    python3 scripts/ab_step.py PARENT_TREE CHANGE_TREE [--pairs 10] [--repeats 3] [--seed 5]

Each tree is the root of a coalseek checkout (the directory holding
``src/coalseek``).  The inputs are the three presets and the ``ring-sparse``
and ``congestion-net`` documents that ``bench/generators.py`` of this
checkout writes for ``--seed``.

First, one subprocess per tree runs ``run``, ``solve``, ``check`` and
``costs`` (``--format kv``) and ``costs --format text`` on every input,
and the commands that fail on purpose on four documents of one-agent coalitions: a start outside the
domain (``log(x1_1)`` at ``x1_1 = -1``) on ``run``, ``solve`` and ``check``; a
Newton Jacobian that leaves the domain (``x1_1^1.5 + x1_1`` from 0) on
``solve``; and, on ``run``, ``solve`` and ``check``, two games whose domain
only a guard of the partials kernel sees, since the ``log(x2_1)`` in the
cost of agent (1,1) has no partial: from ``x2_1 = -1`` it fails at the
start, and from ``x2_1 = 0.5`` the dynamics and Newton descend into it.
It also runs ``run``, ``solve`` and ``check`` on a fifth such document,
whose costs raise their actions to the integer powers 4, -1 and -2, which
the compiler evaluates with ``math.pow``, and on a ring of 300 agents that
fails on purpose in vector mode: every partial in an agent's own action is
one shape with a division, and the start zeroes one denominator.  It
hashes with SHA-256 each exit code, each report, each stderr text and each
trajectory CSV, and, for each of the five inputs, ``repr`` of the loaded
game's cost trees, of its partial trees and of its Newton second
derivatives (``oracle._jacobian_exprs``), and the sources that compiling
its kernel, its cost kernel and its Newton Jacobian passes to ``compile``,
with the arrays each compiled function and its scalar pieces read from
their namespaces, 163 digests in all.  Any digest that differs between the
trees ends the script with exit code 1.

Then ``--pairs`` pairs of subprocesses, one per tree, run in alternating order
(the parent first in even pairs).  Each builds a ``Seeker`` per input, times
``Seeker.integrate`` ``--repeats`` times (keeping the fastest) and times one
kernel call as the integrator makes it (``Seeker.partial_vector`` at the
initial profile, the best of 25 batches of up to 200 calls) and one
``oracle.gradient_check`` at the initial profile (the best of 5 batches of
up to 20 audits, each batch sized to run about 50 ms), one ``check`` audit
set at the initial profile (its 20 gradient audits, its monotonicity probe
and its 50 deviation spot checks: ``cli._cmd_check`` on the loaded scenario,
its report discarded; batched the same way), one cost report
(``analysis.cost_accounting`` on the loaded game and its ``render_kv``;
batched the same way) and one ``oracle.solve_stationary`` from the
input's start, Jacobian compile included (batched the same way).  Per input the script prints the median
and IQR of the integrate wall time on each side, the change's relative
move, how many pairs the change won, the median microseconds per kernel
call and the median milliseconds per audit, per ``check`` audit set, per
cost report and per solve.  Each batch keeps its results until its clock
stops, so no call's time includes freeing an earlier result.  Each also
times loading: ``Seeker(load_scenario(source).game)``, batched as the audits
are, and counts the expression nodes (``Binary``, ``Unary``, ``Var`` and
``Const`` objects the garbage collector tracks) that one ``load_scenario``
leaves alive.  Per input the script prints the load's median and IQR on
each side, the change's relative move, how many pairs the change won and
the node count on each side.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("example2", "congestion-demo", "coalition1-fig1")
COMMANDS = ("run", "solve", "check", "costs")
# Documents whose coalitions are one agent each, with no communication:
# (the cost of each coalition, the start, commands).  All but the last fail
# on purpose.
ONE_AGENT = {
    "domain-start": (("log(x1_1)",), [-1.0], ("run", "solve", "check")),
    "jacobian-exit": (("x1_1^1.5 + x1_1",), [0.0], ("solve",)),
    "guard-start": (("(x1_1 - 1)^2 + log(x2_1)", "(x2_1 - 2)^2"), [0.5, -1.0], ("run", "solve", "check")),
    "guard-wall": (("(x1_1 - 1)^2 + log(x2_1)", "(x2_1 + 1)^2"), [0.5, 0.5], ("run", "solve", "check")),
    "integer-powers": (
        ("(x1_1 - 1)^4 + 0.5*x1_1^-1 + 0.1*x1_1*x2_1", "(x2_1 - 2)^4 + x2_1^-2 - 0.1*x2_1*x1_1"),
        [1.5, 2.5],
        ("run", "solve", "check"),
    ),
}


# A ring of VECTOR_RING agents: agent j pays x_j^2 + c_j x_j / (x_(j+1) + 2),
# so the partials in the agents' own actions are one vector-mode shape with a
# division.  The start puts agent 137 at -2, a zero denominator.
VECTOR_RING = 300
VECTOR_FAILURE = {
    "schema": "coalseek/scenario-v1",
    "name": "vector-division",
    "coalitions": [
        {
            "costs": [
                f"x1_{j}^2 + {0.5 + j % 7}*x1_{j}/(x1_{j % VECTOR_RING + 1} + 2)"
                for j in range(1, VECTOR_RING + 1)
            ],
            "communication": [[j, j % VECTOR_RING + 1] for j in range(1, VECTOR_RING + 1)],
        }
    ],
    "initial_x": [-2.0 if j == 137 else 1.0 for j in range(1, VECTOR_RING + 1)],
}
# The documents that fail on purpose, and the commands each runs.
FAILING = {label: commands for label, (_, _, commands) in ONE_AGENT.items()}
FAILING["vector-division"] = ("run", "solve", "check")


def _inputs(docs: Path) -> list[tuple[str, str]]:
    return [(name, name) for name in PRESETS] + [
        (label, str(docs / f"{label}.json")) for label in ("ring-sparse", "congestion-net")
    ]


def _worker_env(tree: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _call(tree: Path, *args: str) -> dict:
    """Run this script as a worker on ``tree``; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree), *args],
        env=_worker_env(tree),
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        sys.exit(f"worker on {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


# -- worker side --------------------------------------------------------------


def _write_docs(docs: Path, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    import generators

    docs_by_label = {
        "ring-sparse": generators.ring_game(seed).doc,
        "congestion-net": generators.congestion_network(seed),
    }
    for label, (costs, start, _) in ONE_AGENT.items():
        docs_by_label[label] = {
            "schema": "coalseek/scenario-v1",
            "name": label,
            "coalitions": [{"costs": [cost], "communication": []} for cost in costs],
            "initial_x": start,
        }
    docs_by_label["vector-division"] = VECTOR_FAILURE
    for label, doc in docs_by_label.items():
        (docs / f"{label}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return {}


def _sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _compiled(build) -> str:
    """SHA-256 of the sources that ``build()`` passes to ``compile`` in
    ``coalseek.expr``, and of each array in the namespace of the function
    it returns or of a scalar piece ``_s<c>`` it calls, by name, dtype,
    shape and bytes."""
    import numpy as np
    from coalseek import expr

    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    expr.compile = capture  # shadows the builtin in that module alone
    try:
        function = build()
    finally:
        del expr.compile
    namespace = dict(function.__globals__)
    for name, value in function.__globals__.items():
        if name.startswith("_s"):
            namespace.update(value.__globals__)
    arrays = [
        (name, str(value.dtype), value.shape, np.ascontiguousarray(value).tobytes())
        for name, value in sorted(namespace.items())
        if isinstance(value, (np.ndarray, np.generic))
    ]
    return _sha256(repr((sources, arrays)))


def _digests(docs: Path, seed: int) -> dict:
    from coalseek import cli
    from coalseek.oracle import _jacobian_exprs, _jacobian_function
    from coalseek.scenario import load_scenario

    out = {}
    for label, source in _inputs(docs):
        game = load_scenario(source).game
        # The kernels compile before any tree is read for its digest, so
        # they build the cost trees that the loader leaves unbuilt themselves.
        out[f"{label} kernel source"] = _compiled(lambda: game.kernel)
        out[f"{label} cost kernel source"] = _compiled(lambda: game.cost_kernel)
        out[f"{label} jacobian source"] = _compiled(lambda: _jacobian_function(game)[2])
        out[f"{label} cost trees"] = _sha256(repr(tuple(game.costs)))
        out[f"{label} partial trees"] = _sha256(repr(tuple(game.partials.items())))
        out[f"{label} jacobian trees"] = _sha256(repr(tuple(_jacobian_exprs(game).items())))
    runs = [(label, source, COMMANDS) for label, source in _inputs(docs)]
    runs += [(label, str(docs / f"{label}.json"), commands) for label, commands in FAILING.items()]
    for label, source, commands in runs:
        for command, fmt in [(c, "kv") for c in commands] + [("costs", "text")] * ("costs" in commands):
            argv = [command, source, "--format", fmt]
            csv = docs / f"{label}.{os.getpid()}.csv"
            if command == "run":
                argv += ["--out", str(csv)]
            elif command == "check":
                argv += ["--seed", str(seed)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            name = command if fmt == "kv" else f"{command} {fmt}"
            out[f"{label} {name} exit"] = str(code)
            out[f"{label} {name} report"] = _sha256(stdout.getvalue())
            out[f"{label} {name} stderr"] = _sha256(stderr.getvalue())
            if command == "run":
                # A run that fails writes no trajectory.
                out[f"{label} run csv"] = _sha256(csv.read_bytes()) if csv.exists() else "absent"
                csv.unlink(missing_ok=True)
    return out


def _best_per_call(call, calls: int, batches: int) -> float:
    """Seconds per call of ``call()``: the best of ``batches`` batches of
    ``calls`` calls."""
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls


def _best_batch_ms(call) -> float:
    """Milliseconds per call of ``call()``: the best of 5 batches of up to
    20 calls, each batch sized by a first call to run about 50 ms.  A batch
    keeps its results until its clock stops, so no call's time includes
    freeing an earlier call's result."""
    start = time.perf_counter()
    call()
    calls = max(1, min(20, int(0.05 / (time.perf_counter() - start))))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        kept = [call() for _ in range(calls)]
        best = min(best, time.perf_counter() - start)
        del kept
    return best / calls * 1e3


def _nodes_after_load(source: str) -> int:
    """The expression nodes that one ``load_scenario(source)`` leaves alive:
    its ``Binary``, ``Unary``, ``Var`` and ``Const`` objects among those
    the garbage collector tracks."""
    from coalseek.expr import Binary, Const, Unary, Var
    from coalseek.scenario import load_scenario

    kinds = (Binary, Unary, Var, Const)
    before = sum(type(o) in kinds for o in gc.get_objects())
    scenario = load_scenario(source)
    after = sum(type(o) in kinds for o in gc.get_objects())
    del scenario
    return after - before


def _check_audits(scenario) -> None:
    """``check`` on a loaded scenario, with no load and no report."""
    from coalseek import cli

    load = cli._load
    cli._load = lambda args: scenario
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli._cmd_check(argparse.Namespace(format="kv"))
    finally:
        cli._load = load


def _times(docs: Path, repeats: int) -> dict:
    import numpy as np
    from coalseek.analysis import cost_accounting
    from coalseek.dynamics import Seeker
    from coalseek.oracle import gradient_check, solve_stationary
    from coalseek.scenario import load_scenario

    out = {}
    for label, source in _inputs(docs):
        nodes = _nodes_after_load(source)
        scenario = load_scenario(source)
        seeker = Seeker(scenario.game)
        state = scenario.initial_state(seeker)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            trajectory = seeker.integrate(state, scenario.params)
            best = min(best, time.perf_counter() - start)
        x = np.array(state.x)
        calls = max(1, min(200, trajectory.rhs_evals))
        kernel_us = _best_per_call(lambda: seeker.partial_vector(x), calls, 25) * 1e6
        out[label] = {
            "integrate_s": best,
            "kernel_us": kernel_us,
            # The first audit builds its plan.
            "audit_ms": _best_batch_ms(lambda: gradient_check(scenario.game, x)),
            "check_ms": _best_batch_ms(lambda: _check_audits(scenario)),
            "costs_ms": _best_batch_ms(lambda: cost_accounting(scenario.game).render_kv()),
            "solve_ms": _best_batch_ms(lambda: solve_stationary(scenario.game, x)),
            "setup_ms": _best_batch_ms(lambda: Seeker(load_scenario(source).game)),
            "rhs_evals": trajectory.rhs_evals,
            "nodes": nodes,
        }
    return out


def _worker(argv: list[str]) -> None:
    tree, task, docs, number = Path(argv[0]), argv[1], Path(argv[2]), int(argv[3])
    sys.path.insert(0, str(tree / "src"))
    import coalseek

    if Path(coalseek.__file__).resolve().parent != (tree / "src" / "coalseek").resolve():
        sys.exit(f"imported coalseek from {coalseek.__file__}, not from {tree}")
    tasks = {"docs": _write_docs, "digests": _digests, "times": _times}
    print(json.dumps(tasks[task](docs, number)))


# -- driver side ---------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        _worker(sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in sides.values():
        if not (tree / "src" / "coalseek" / "__init__.py").is_file():
            parser.error(f"no coalseek sources under {tree}")

    with tempfile.TemporaryDirectory(prefix="ab_step_") as tmp:
        docs = Path(tmp)
        _call(sides["change"], "docs", str(docs), str(args.seed))
        digests = {side: _call(tree, "digests", str(docs), str(args.seed)) for side, tree in sides.items()}
        differ = sorted(k for k in digests["parent"] if digests["parent"][k] != digests["change"].get(k))
        for key in differ:
            print(f"DIFFERS: {key}")
        if differ:
            return 1
        print(f"digests: all {len(digests['parent'])} trajectories, reports, stderr texts and exit codes match")

        runs = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_call(sides[side], "times", str(docs), str(args.repeats)))

    print(f"{'input':<16} {'parent s (IQR)':>20} {'change s (IQR)':>20} {'move':>7} "
          f"{'wins':>6} {'kernel us':>16} {'audit ms':>16} {'check ms':>18} {'costs ms':>18} {'solve ms':>18} "
          f"{'rhs_evals':>9}")
    for label, _ in _inputs(Path()):
        parent = [r[label]["integrate_s"] for r in runs["parent"]]
        change = [r[label]["integrate_s"] for r in runs["change"]]
        (pm, piqr), (cm, ciqr) = _quartiles(parent), _quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        kernel = [statistics.median(r[label]["kernel_us"] for r in runs[side]) for side in sides]
        audit = [statistics.median(r[label]["audit_ms"] for r in runs[side]) for side in sides]
        check = [statistics.median(r[label]["check_ms"] for r in runs[side]) for side in sides]
        costs = [statistics.median(r[label]["costs_ms"] for r in runs[side]) for side in sides]
        solve = [statistics.median(r[label]["solve_ms"] for r in runs[side]) for side in sides]
        evals = {r[label]["rhs_evals"] for side in sides for r in runs[side]}
        print(f"{label:<16} {f'{pm:.4f} ({piqr:.4f})':>20} {f'{cm:.4f} ({ciqr:.4f})':>20} "
              f"{(cm / pm - 1) * 100:>+6.1f}% {f'{wins}/{len(parent)}':>6} "
              f"{f'{kernel[0]:.1f} -> {kernel[1]:.1f}':>16} {f'{audit[0]:.2f} -> {audit[1]:.2f}':>16} "
              f"{f'{check[0]:.2f} -> {check[1]:.2f}':>18} {f'{costs[0]:.2f} -> {costs[1]:.2f}':>18} "
              f"{f'{solve[0]:.2f} -> {solve[1]:.2f}':>18} "
              f"{'/'.join(map(str, sorted(evals))):>9}")
    print(f"\n{'input':<16} {'setup parent ms (IQR)':>22} {'change ms (IQR)':>20} {'move':>7} {'wins':>6} "
          f"{'tree nodes after a load':>24}")
    for label, _ in _inputs(Path()):
        parent = [r[label]["setup_ms"] for r in runs["parent"]]
        change = [r[label]["setup_ms"] for r in runs["change"]]
        (pm, piqr), (cm, ciqr) = _quartiles(parent), _quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        nodes = [statistics.median(r[label]["nodes"] for r in runs[side]) for side in sides]
        print(f"{label:<16} {f'{pm:.2f} ({piqr:.2f})':>22} {f'{cm:.2f} ({ciqr:.2f})':>20} "
              f"{(cm / pm - 1) * 100:>+6.1f}% {f'{wins}/{len(parent)}':>6} "
              f"{f'{nodes[0]:.0f} -> {nodes[1]:.0f}':>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
