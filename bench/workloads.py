"""Workload definitions, the closed-loop command runner, and the correctness
gates that decide whether each command counts as a failed operation.

Every command goes through ``coalseek.cli.main(argv)`` in this process, one
after another (a closed loop with one caller).  A command fails if it raises,
returns an exit code other than the documented one, or fails its gate.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from coalseek import cli
from coalseek.dynamics import Seeker
from coalseek.graphs import laplacian
from coalseek.scenario import load_scenario

import generators

# Oracle commands are short on small games; a pass repeats them until they
# have run for at least this long, so their median is steady.
ORACLE_MIN_S = 0.3
# Likewise for setup, which takes 10 ms on the presets; repeated after every pass.
SETUP_MIN_S = 0.5


@dataclass
class Input:
    """One scenario a workload feeds to the CLI."""

    label: str
    source: str  # preset name or scenario file path, exactly as passed to the CLI
    generated: bool
    run_gap_tol: float | None = None  # |run endpoint - solve endpoint|_inf
    closed_form: np.ndarray | None = None  # exact equilibrium, when known
    origin_tol: float | None = None  # |x(T)|_inf, example2's criterion
    consensus_nnz: int = 0  # off-diagonal nonzeros of the block Laplacians


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # per input, in pass order
    oracle: tuple[str, ...]  # the commands timed as oracle_s

    def inputs(self, seed: int, workdir: Path) -> list[Input]:
        if self.name == "presets":
            found = [
                Input("example2", "example2", False, origin_tol=0.05),
                Input("congestion-demo", "congestion-demo", False, run_gap_tol=1e-3),
                Input("coalition1-fig1", "coalition1-fig1", False, run_gap_tol=1e-4),
            ]
        elif self.name == "ring-sparse":
            ring = generators.ring_game(seed)
            path = write_scenario(workdir / "ring-sparse.json", ring.doc)
            found = [Input("ring-sparse", path, True, closed_form=ring.equilibrium())]
        else:
            path = write_scenario(workdir / "congestion-net.json", generators.congestion_network(seed))
            found = [Input("congestion-net", path, True, run_gap_tol=1e-5)]
        for inp in found:
            inp.consensus_nnz = consensus_nnz(inp.source)
        return found


WORKLOADS = {
    w.name: w
    for w in (
        Workload("presets", ("run", "solve", "check", "costs"), ("solve", "check")),
        Workload("ring-sparse", ("run", "solve", "costs"), ("solve",)),
        Workload("congestion-net", ("run", "solve", "check", "costs"), ("solve", "check")),
    )
}


def write_scenario(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def consensus_nnz(source: str) -> int:
    """Off-diagonal nonzeros of every estimation block's Laplacian: the
    communication graph induced on component k's closed interference
    neighbourhood, for every coalition and component."""
    total = 0
    for c in load_scenario(source).game.coalitions:
        for k in range(1, c.m + 1):
            members = set(c.interference.neighbors(k)) | {k}
            lap = laplacian(c.comm.induced(members))
            total += int(np.count_nonzero(lap) - np.count_nonzero(np.diag(lap)))
    return total


def setup_repeats(inputs: list[Input]) -> list[float]:
    """``setup_once`` repeated until it has run for ``SETUP_MIN_S``, at least
    twice and at most 100 times; one sample per repetition."""
    samples = [setup_once(inputs), setup_once(inputs)]
    while sum(samples) < SETUP_MIN_S and len(samples) < 100:
        samples.append(setup_once(inputs))
    return samples


def setup_once(inputs: list[Input]) -> float:
    """Wall time of a fresh ``load_scenario`` plus ``Seeker(game)`` per input."""
    start = time.perf_counter()
    for inp in inputs:
        Seeker(load_scenario(inp.source).game)
    seconds = time.perf_counter() - start
    gc.collect()
    return seconds


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI command and what it produced."""

    inp: Input
    command: str
    argv: list[str]
    seconds: float = 0.0
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str = ""
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def kv(self) -> dict[str, str]:
        return dict(line.split("=", 1) for line in self.stdout.splitlines() if "=" in line)


def argv_for(command: str, inp: Input, seed: int, workdir: Path) -> list[str]:
    argv = [command, inp.source, "--format", "kv"]
    if command == "run":
        argv += ["--out", str(workdir / f"{inp.label}.csv")]
    elif command == "check":
        argv += ["--seed", str(seed)]
    return argv


def execute(command: str, inp: Input, seed: int, workdir: Path) -> Op:
    op = Op(inp, command, argv_for(command, inp, seed, workdir))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.code = cli.main(op.argv)
    except Exception as exc:  # an escaped traceback is a failed operation
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - start
    # Each command stands for one CLI invocation: free its reference cycles
    # (Game <-> Layout) now, not at a random point inside a later command.
    gc.collect()
    op.stdout, op.stderr = out.getvalue(), err.getvalue()
    report = "".join(
        line for line in op.stdout.splitlines(keepends=True)
        if not line.startswith("wall_time_s=")
    )
    op.digests["report"] = hashlib.sha256(report.encode()).hexdigest()
    if command == "run" and op.code == 0:
        op.digests["csv"] = hashlib.sha256(Path(op.argv[-1]).read_bytes()).hexdigest()
    return op


@dataclass
class Pass:
    ops: list[Op]
    seconds: float

    def time_of(self, commands: tuple[str, ...]) -> float:
        return sum(op.seconds for op in self.ops if op.command in commands)


def run_pass(workload: Workload, inputs: list[Input], seed: int, workdir: Path) -> Pass:
    start = time.perf_counter()
    ops = [execute(c, inp, seed, workdir) for inp in inputs for c in workload.commands]
    return Pass(ops, time.perf_counter() - start)


def oracle_repeats(workload, inputs, seed, workdir, already: float) -> list[list[Op]]:
    """Repeat the oracle command set until this pass has timed at least
    ``ORACLE_MIN_S`` of it; each repetition is one more oracle_s sample."""
    sets = []
    while already < ORACLE_MIN_S:
        ops = [execute(c, inp, seed, workdir) for inp in inputs for c in workload.oracle]
        already += sum(op.seconds for op in ops)
        sets.append(ops)
    return sets


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def _endpoint(op: Op) -> np.ndarray:
    """The action profile a run or solve report prints, in profile order."""
    return np.array([float(v) for k, v in op.kv.items() if k.startswith("x") and "_" in k])


def gate(ops: list[Op], golden: dict[tuple[str, str, str], str]) -> None:
    """Attach a problem to every op that fails its gate.

    ``golden`` maps (input, command, output kind) to the first digest seen in
    this invocation; a later digest that differs breaks determinism.
    """
    solved = {op.inp.label: op for op in ops if op.command == "solve"}
    for op in ops:
        if op.error:
            op.problems.append(f"raised {op.error}")
            continue
        if op.code != 0:
            op.problems.append(f"exit code {op.code}, expected 0: {op.stderr.strip()[:200]}")
            continue
        if op.inp.generated and op.stderr:
            op.problems.append(f"unexpected warning: {op.stderr.strip()[:200]}")
        for kind, digest in op.digests.items():
            first = golden.setdefault((op.inp.label, op.command, kind), digest)
            if digest != first:
                op.problems.append(f"{kind} digest differs from the first pass")
        check = GATES.get(op.command)
        if check is not None:
            try:
                op.problems.extend(check(op, solved.get(op.inp.label)))
            except (ValueError, TypeError, KeyError) as exc:  # malformed report
                op.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"profiles of {a.size} and {b.size} actions")
    return float(np.abs(a - b).max())


def _gate_run(op: Op, solve: Op | None) -> list[str]:
    x = _endpoint(op)
    inp = op.inp
    out = []
    if inp.origin_tol is not None and _gap(x, np.zeros_like(x)) > inp.origin_tol:
        out.append(f"|x(T)|_inf = {_gap(x, np.zeros_like(x)):.3e} > {inp.origin_tol}")
    if inp.closed_form is not None:
        gap = _gap(x, inp.closed_form)
        if gap > 1e-6 or op.kv["stopped_early"] != "true":
            out.append(f"endpoint {gap:.3e} from the closed form, "
                       f"stopped_early={op.kv['stopped_early']}")
    if inp.run_gap_tol is not None:
        if solve is None or solve.code != 0:
            out.append("no solve endpoint to compare against")
        elif _gap(x, _endpoint(solve)) > inp.run_gap_tol:
            out.append(f"run/solve endpoint gap {_gap(x, _endpoint(solve)):.3e} > {inp.run_gap_tol}")
    return out


def _gate_solve(op: Op, _solve: Op | None) -> list[str]:
    out = []
    if op.kv["converged"] != "true":
        out.append("solve did not converge")
    if op.inp.closed_form is not None:
        gap = _gap(_endpoint(op), op.inp.closed_form)
        if gap > 1e-8:
            out.append(f"solve endpoint {gap:.3e} from the closed form")
    return out


def _gate_check(op: Op, _solve: Op | None) -> list[str]:
    kv = op.kv
    out = []
    if math.isnan(float(kv["monotone_min_inner"])):
        out.append("monotonicity probe evaluated no pairs")
    if not float(kv["gradient_max_rel_err"]) <= 1e-6:
        out.append(f"gradient audit error {kv['gradient_max_rel_err']}")
    if not float(kv["deviation_bound_max_gap"]) <= 1e-9:
        out.append(f"deviation bound exceeded by {kv['deviation_bound_max_gap']}")
    return out


def _gate_costs(op: Op, _solve: Op | None) -> list[str]:
    tx = int(op.kv["total.tx_proposed"])
    if tx != op.inp.consensus_nnz:
        return [f"traffic identity: tx_proposed {tx} != consensus nnz {op.inp.consensus_nnz}"]
    return []


GATES = {"run": _gate_run, "solve": _gate_solve, "check": _gate_check, "costs": _gate_costs}
