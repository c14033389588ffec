"""Command-line surface: load a scenario (preset name or path) and run the
simulator, the stationary-point solver, graph inspection, cost accounting, or
the numerical self-checks.

Exit codes: 0 success, 1 usage error, 2 scenario validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np

from . import analysis
from .dynamics import NumericsError, Seeker, SeekerState, check_step_budget
from .expr import DomainError
from .graphs import interference_to_k_graph
from .oracle import check_monotonicity, gradient_check, solve_stationary
from .scenario import ScenarioError, available_presets, load_scenario

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


def _build_parser() -> _Parser:
    parser = _Parser(prog="coalseek", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="preset name or path to a scenario file")
        p.add_argument("--delta", type=float, help="override the scenario gain")
        p.add_argument(
            "--step", type=float, help="override the integrator step (dopri5: the first trial step)"
        )
        p.add_argument("--horizon", type=float, help="override the integration horizon")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument(
            "--format",
            choices=("text", "kv"),
            default=None,
            help="report format (default: text; trajectories are always csv)",
        )

    run = sub.add_parser("run", help="integrate the seeking dynamics, write a CSV trajectory")
    common(run)
    run.add_argument("--out", help="trajectory CSV path (default: stdout)")
    run.add_argument("--summary", help="also write the run summary to this path")

    solve = sub.add_parser("solve", help="solve the stationary-point system by damped Newton")
    common(solve)

    graphs = sub.add_parser("graphs", help="print interference, communication and neighborhood graphs")
    common(graphs)

    costs = sub.add_parser("costs", help="print storage/transmission cost accounting")
    common(costs)

    check = sub.add_parser("check", help="gradient audit, monotonicity probe, deviation-bound spot check")
    common(check)

    presets = sub.add_parser("presets", help="list shipped presets")
    presets.add_argument("--format", choices=("text", "kv"), default=None)
    return parser


def _load(args):
    scenario = load_scenario(args.scenario)
    game = scenario.game
    params = scenario.params
    try:
        if args.delta is not None:
            game = dataclasses.replace(game, delta=args.delta)
            scenario = dataclasses.replace(scenario, game=game)
        if args.step is not None:
            params = dataclasses.replace(params, step=args.step)
        if args.horizon is not None:
            params = dataclasses.replace(params, horizon=args.horizon)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    except ValueError as err:  # a Game, IntegrateParams or Scenario check
        raise _UsageError(str(err)) from None
    if params is not scenario.params:
        scenario = dataclasses.replace(scenario, params=params)
    for warning in scenario.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return scenario


def _kv_or_text(pairs, fmt) -> str:
    if fmt == "kv":
        return "\n".join(f"{k}={v}" for k, v in pairs)
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _cmd_run(args) -> int:
    scenario = _load(args)
    params = scenario.params
    if scenario.x_star is not None:
        try:
            transforms = analysis.build_block_transforms(scenario.game)
        except ValueError as err:
            raise ScenarioError(f"$.x_star: {err}") from None
        x_star = np.array(scenario.x_star)
        params = dataclasses.replace(
            params,
            lyapunov=lambda state, g: analysis.lyapunov_value(
                scenario.game, state, x_star, transforms, g
            ),
        )
    try:
        check_step_budget(scenario.game.layout, params)
    except ValueError as err:
        raise ScenarioError(f"$.integrator: {err}") from None
    seeker = Seeker(scenario.game)
    trajectory = seeker.integrate(scenario.initial_state(seeker), params)
    if args.out:
        trajectory.write_csv(args.out)
    else:
        trajectory.write_csv(sys.stdout)
    final = trajectory.final_x
    pairs = [("scenario", scenario.name)]
    pairs += [(name, _fmt(v)) for name, v in zip(scenario.game.var_names, final)]
    pairs += [
        ("pg_inf_norm", _fmt(trajectory.pg_norm[-1])),
        ("t_end", _fmt(trajectory.final_time)),
        ("steps", str(trajectory.steps)),
        ("rhs_evals", str(trajectory.rhs_evals)),
        ("rejected_steps", str(trajectory.rejected_steps)),
        ("stopped_early", str(trajectory.stopped_early).lower()),
    ]
    summary = _kv_or_text(pairs, args.format or "text")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    if args.out:
        print(summary)
    return 0


def _cmd_solve(args) -> int:
    scenario = _load(args)
    report = solve_stationary(scenario.game, np.array(scenario.initial_x))
    pairs = [("scenario", scenario.name)]
    pairs += [(name, _fmt(v)) for name, v in zip(scenario.game.var_names, report.x)]
    pairs += [
        ("residual_inf_norm", _fmt(report.residual)),
        ("iterations", str(report.iterations)),
        ("converged", str(report.converged).lower()),
    ]
    if report.message:
        pairs.append(("message", report.message))
    print(_kv_or_text(pairs, args.format or "text"))
    return 0 if report.converged else 3


def _cmd_graphs(args) -> int:
    scenario = _load(args)
    fmt = args.format or "text"
    lines = []

    def edge_str(g):
        return " ".join(f"{j}-{l}" for j, l in g.edge_pairs()) or "(none)"

    for i, c in enumerate(scenario.game.coalitions, start=1):
        if fmt == "kv":
            lines.append(f"coalition.{i}.agents={c.m}")
            lines.append(f"coalition.{i}.interference={edge_str(c.interference)}")
            lines.append(f"coalition.{i}.communication={edge_str(c.comm)}")
        else:
            lines.append(f"coalition {i} ({c.m} agents)")
            lines.append(f"  interference : {edge_str(c.interference)}")
            lines.append(f"  communication: {edge_str(c.comm)}")
        for k in range(1, c.m + 1):
            sub = interference_to_k_graph(c.comm, c.interference, k)
            desc = f"vertices {','.join(map(str, sub.vertices))} edges {edge_str(sub)}"
            if fmt == "kv":
                lines.append(f"coalition.{i}.neighborhood.{k}={desc}")
            else:
                lines.append(f"  component {k}: {desc}")
        verdict = scenario.containment.get(i)
        if verdict is not None:
            status = "pass" if verdict.passed else "FAIL (" + "; ".join(verdict.failures) + ")"
            if fmt == "kv":
                lines.append(f"coalition.{i}.containment={status}")
            else:
                lines.append(f"  containment check: {status}")
    print("\n".join(lines))
    return 0


def _cmd_costs(args) -> int:
    scenario = _load(args)
    report = analysis.cost_accounting(scenario.game)
    fmt = args.format or "text"
    print(report.render_kv() if fmt == "kv" else report.render_text())
    return 0


def _cmd_check(args) -> int:
    scenario = _load(args)
    game = scenario.game
    rng = np.random.default_rng(scenario.seed)
    n = game.n_actions
    base = np.array(scenario.initial_x)
    # A start outside the game's domain fails, as on run and solve, and so
    # does one where a cost is not finite; samples around it that leave the
    # domain are skipped and counted, and a figure with no sample left is nan.
    game.cost_kernel(game.as_profile(base))
    skipped = 0

    grad_errors = []
    for _ in range(20):
        x = base + rng.uniform(-0.5, 0.5, n)
        try:
            grad_errors.append(gradient_check(game, x))
        except DomainError:
            skipped += 1

    mono = check_monotonicity(game, base - 2.0, base + 2.0, pairs=200, seed=scenario.seed)

    gaps = []
    layout = game.layout
    for _ in range(50):
        x = game.as_profile(base + rng.uniform(-1.0, 1.0, n))
        w = rng.normal(size=layout.size)
        state = SeekerState(x, w - np.repeat(layout.block_spread(w)[0], layout.block_sizes))
        try:
            deviation, bound = analysis.deviation_bounds(game, state)
        except DomainError:
            skipped += 1
            continue
        # fmax passes over a NaN gap (inf - inf), as a Python max from 0.0 does.
        gaps.append(float(np.fmax.reduce(deviation - bound, initial=0.0)))

    pairs = [
        ("scenario", scenario.name),
        ("gradient_max_rel_err", _fmt(max(grad_errors, default=math.nan))),
        ("monotone_on_sample", str(mono.passed).lower()),
        ("monotone_min_inner", _fmt(mono.min_inner)),
        ("deviation_bound_max_gap", _fmt(max(gaps, default=math.nan))),
        ("domain_skipped", str(skipped)),
    ]
    print(_kv_or_text(pairs, args.format or "text"))
    return 0


def _cmd_presets(args) -> int:
    for name in available_presets():
        print(name)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "solve": _cmd_solve,
    "graphs": _cmd_graphs,
    "costs": _cmd_costs,
    "check": _cmd_check,
    "presets": _cmd_presets,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away (``| head``): a quiet exit.  Point
        # the descriptor, if any, at devnull, so the interpreter's final
        # flush of what is still buffered has nowhere to fail.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 0
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a missing scenario or an unwritable output path
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ScenarioError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except (NumericsError, DomainError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
