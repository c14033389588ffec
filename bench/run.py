#!/usr/bin/env python3
"""coalseek benchmark.

    python3 bench/run.py --workload presets|ring-sparse|congestion-net \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  One caller drives
``coalseek.cli.main`` in this process, one command after another (a closed
loop, single-threaded).  With ``--trace 0`` the run repeats whole passes of
the workload for about ``--seconds`` and reports the end-to-end metrics, with
timings in reference-speed seconds (see ``calibration.py``); with
``--trace 1`` it makes one untraced and one traced pass plus the scaling
ladder and reports the per-layer metrics.  The last line of standard output
is one JSON object; the lines before it are a readable summary.  See
``bench/README.md`` for what each metric means.
"""

import os

# Pinned before numpy loads: one BLAS thread, since the caller is one thread
# on a 2-core machine shared with other work.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Scaling ladder (traced run only): ring games of these sizes, each run for a
# fixed number of steps.  Rungs below 100 agents are a single ring.
LADDER = (10, 30, 100, 300, 1000)
LADDER_STEPS = 40


def _import_package():
    """Import coalseek from this checkout's ``src``; exit 2 when absent."""
    if not (SRC / "coalseek" / "__init__.py").is_file():
        print(f"error: no coalseek sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import coalseek

    if Path(coalseek.__file__).resolve().parent != (SRC / "coalseek").resolve():
        print(f"error: imported coalseek from {coalseek.__file__}", file=sys.stderr)
        sys.exit(2)


def _spread(values):
    """Median, the highest listed percentile with at least ten samples
    beyond it (None when there are fewer than 20 samples), and the count."""
    n = len(values)
    median = statistics.median(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return median, (p, statistics.quantiles(values, n=100)[p - 1]), n
    return median, None, n


def _describe(name, unit, values):
    median, pct, n = _spread(values)
    tail = f"p{pct[0]}={pct[1]:.6g}" if pct else "no percentile (n<20)"
    return f"{name:<16} median={median:.6g} {unit:<4} {tail} n={n}"


def measure(workload, inputs, seed, seconds, workdir, start):
    """Untraced run: whole passes until the deadline.  Setup repetitions,
    extra oracle sets and host-speed probes are interleaved with the passes,
    so that every metric samples the same stretch of machine time.  Timing
    metrics are the medians in reference-speed seconds (see calibration)."""
    import calibration
    import workloads as wl

    deadline = start + seconds
    golden = {}
    ops, totals, runs, oracles, setups = [], [], [], [], []
    probes = calibration.probe_batch()
    while True:
        began = time.perf_counter()
        done = wl.run_pass(workload, inputs, seed, workdir)
        wl.gate(done.ops, golden)
        ops += done.ops
        totals.append(done.seconds)
        runs.append(done.time_of(("run",)))
        oracles.append(done.time_of(workload.oracle))
        for extra in wl.oracle_repeats(workload, inputs, seed, workdir, oracles[-1]):
            wl.gate(extra, golden)
            ops += extra
            oracles.append(sum(op.seconds for op in extra))
        setups += wl.setup_repeats(inputs)
        probes += calibration.probe_batch()
        now = time.perf_counter()
        if now + 0.5 * (now - began) > deadline:
            break

    samples = {
        "total_s": totals,
        "setup_s": setups,
        "run_s": runs,
        "oracle_s": oracles,
    }
    speed = calibration.speed(probes)
    print(f"probe median {statistics.median(probes) * 1e3:.4g} ms over {len(probes)} probes: "
          f"the JSON reports each wall-time median below times {speed:.4g}, "
          f"in reference-speed seconds")
    for name, values in samples.items():
        print(_describe(name, "s", values))
        print("  samples " + " ".join(f"{v:.4g}" for v in values))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mib':<16} {rss:.6g} MiB (ru_maxrss of this process)")
    metrics = {name: (statistics.median(v) * speed, "s") for name, v in samples.items()}
    metrics["peak_rss_mib"] = (rss, "MiB")
    digests = sorted({(k, v) for k, v in golden.items()})
    for (label, command, kind), digest in digests:
        print(f"digest {label} {command} {kind} sha256={digest}")
    return ops, metrics


def _alloc_peak(source):
    """tracemalloc peak, in MiB, of ``Seeker(game)`` on a freshly loaded
    scenario, plus the state size and the computed array bytes it holds."""
    from coalseek.dynamics import Seeker
    from coalseek.scenario import load_scenario

    import tracing

    scenario = load_scenario(source)
    tracemalloc.start()
    try:
        seeker = Seeker(scenario.game)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    state = scenario.initial_state(seeker)
    return peak, state.x.size + state.w.size, tracing.seeker_array_mib(seeker)


def layer_metrics(view, spans, done, inputs):
    """Per-layer metrics of one traced pass."""
    runs = [op for op in done.ops if op.command == "run" and op.code == 0]
    solves = [op for op in done.ops if op.command == "solve" and op.code == 0]
    steps = sum(int(op.kv.get("steps", 0)) for op in runs)
    newton = sum(int(op.kv.get("iterations", 0)) for op in solves)
    rhs = view.calls("dynamics.rhs")
    probes = spans.kept.get("oracle.monotonicity", [])
    drawn = sum(kw.get("pairs", 200) + len(kw.get("extra_pairs", ())) for kw, _ in probes)
    evaluated = sum(report.samples for _, report in probes)
    accounts = spans.kept.get("analysis.cost_accounting", [])
    commands = spans.kept.get("cli.command", [])
    csv_bytes = sum(Path(op.argv[-1]).stat().st_size for op in runs)
    return {
        "scenario.load_s": (view.total("scenario.load"), "s"),
        "expr.parse_calls": (view.calls("expr.parse"), "count"),
        "expr.parse_s": (view.total("expr.parse"), "s"),
        "expr.differentiate_calls": (view.calls("expr.differentiate"), "count"),
        "expr.differentiate_s": (view.total("expr.differentiate"), "s"),
        "expr.evaluate_calls": (view.calls("expr.evaluate"), "count"),
        "expr.evaluate_s": (view.total("expr.evaluate"), "s"),
        "graphs.laplacian_s": (view.total("graphs.laplacian"), "s"),
        "graphs.containment_s": (view.total("graphs.containment"), "s"),
        "graphs.consensus_nnz": (sum(inp.consensus_nnz for inp in inputs), "count"),
        "game.partials_s": (view.total("game.partials"), "s"),
        "game.layout_s": (view.total("game.layout"), "s"),
        "game.pseudo_gradient_calls": (view.calls("game.pseudo_gradient"), "count"),
        "game.pseudo_gradient_us": (view.mean_us("game.pseudo_gradient"), "us"),
        "dynamics.seeker_build_s": (view.total("dynamics.seeker_build"), "s"),
        "dynamics.compile_s": (view.total("dynamics.compile"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.rhs_evals": (rhs, "count"),
        "dynamics.domain_rejections": (view.raised_count("dynamics.step"), "count"),
        "dynamics.rhs_useful_ratio": (view.useful_rhs() / rhs if rhs else 0.0, "ratio"),
        "dynamics.step_us": (view.total("dynamics.integrate") / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.partials_us": (view.mean_us("dynamics.partials"), "us"),
        "dynamics.consensus_us": (view.mean_us("dynamics.rhs"), "us"),
        "dynamics.record_us": (view.mean_us("dynamics.record"), "us"),
        "dynamics.csv_write_s": (view.total("dynamics.csv_write"), "s"),
        "dynamics.csv_bytes": (csv_bytes, "bytes"),
        "oracle.newton_iters": (newton, "count"),
        "oracle.newton_iter_ms": (view.total("oracle.solve") / newton * 1e3 if newton else 0.0, "ms"),
        "oracle.gradient_check_s": (view.total("oracle.gradient_check"), "s"),
        "oracle.monotonicity_s": (view.total("oracle.monotonicity"), "s"),
        "oracle.probe_pairs": (drawn, "count"),
        "oracle.probe_useful_ratio": (evaluated / drawn if drawn else 0.0, "ratio"),
        "analysis.transforms_s": (view.total("analysis.transforms"), "s"),
        "analysis.lyapunov_calls": (view.calls("analysis.lyapunov"), "count"),
        "analysis.lyapunov_us": (view.mean_us("analysis.lyapunov"), "us"),
        "analysis.deviation_bounds_s": (view.total("analysis.deviation_bounds"), "s"),
        "analysis.cost_accounting_s": (view.total("analysis.cost_accounting"), "s"),
        "analysis.tx_proposed": (sum(r.totals()[2] for _, r in accounts), "count"),
        "cli.commands": (len(commands), "count"),
        "cli.self_s": (view.self_total("cli.command"), "s"),
        "cli.exit_nonzero": (sum(1 for _, code in commands if code != 0), "count"),
    }


def trace(workload, inputs, seed, workdir):
    """Traced run: one untraced pass, then one traced pass."""
    import tracing
    import workloads as wl

    golden = {}
    wl.setup_once(inputs)  # warm imports and allocator before either pass
    plain = wl.run_pass(workload, inputs, seed, workdir)
    wl.gate(plain.ops, golden)
    sizes = [_alloc_peak(inp.source) for inp in inputs]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        done = wl.run_pass(workload, inputs, seed, workdir)
    finally:
        tracer.uninstall()
    wl.gate(done.ops, golden)
    ops = plain.ops + done.ops
    metrics = layer_metrics(tracing.SpanView(tracer.spans), tracer.spans, done, inputs)
    metrics["dynamics.seeker_alloc_peak_mib"] = (max(s[0] for s in sizes), "MiB")
    metrics["dynamics.state_size"] = (max(s[1] for s in sizes), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (done.seconds - plain.seconds, "s")
    print(f"untraced pass {plain.seconds:.4f} s, traced pass {done.seconds:.4f} s")
    if tracer.missing:
        print("hooks not found (their metrics read 0): " + ", ".join(tracer.missing))
    traces = ROOT / ".bench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.spans.save(traces / f"{workload.name}-seed{seed}.npz")
    return ops, metrics


def ladder(seed, workdir):
    """Scaling ladder: ring games of growing size, a fixed step count each.
    Every rung's run is traced on its own; its ``costs`` checks the traffic
    identity."""
    import generators
    import tracing
    import workloads as wl

    ops, metrics = [], {}
    for m in LADDER:
        ring = generators.ring_game(
            seed, agents=m, coalitions=1 if m < 100 else 4,
            horizon=LADDER_STEPS * 0.05, stop_tol=None,
        )
        path = wl.write_scenario(workdir / f"ladder-{m}.json", ring.doc)
        peak, _, operator = _alloc_peak(path)
        inp = wl.Input(f"ladder-{m}", path, True, consensus_nnz=wl.consensus_nnz(path))
        rung = tracing.Tracer()
        rung.install()
        try:
            op = wl.execute("run", inp, seed, workdir)
        finally:
            rung.uninstall()
        costs = wl.execute("costs", inp, seed, workdir)
        wl.gate([op, costs], {})
        steps = int(op.kv.get("steps", 0))
        if steps != LADDER_STEPS:
            op.problems.append(f"ran {steps} steps, expected {LADDER_STEPS}")
        ops += [op, costs]
        view = tracing.SpanView(rung.spans)
        prefix = f"ladder.m{m}."
        metrics[prefix + "step_us"] = (view.total("dynamics.integrate") / max(steps, 1) * 1e6, "us")
        metrics[prefix + "rhs_evals"] = (view.calls("dynamics.rhs"), "count")
        metrics[prefix + "operator_mib"] = (operator, "MiB")
        metrics[prefix + "alloc_peak_mib"] = (peak, "MiB")
        metrics[prefix + "build_s"] = (
            view.total("scenario.load") + view.total("dynamics.seeker_build"), "s"
        )
    return ops, metrics


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets", "ring-sparse", "congestion-net"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"BLAS threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.inputs(args.seed, workdir)
        if args.trace:
            ops, metrics = trace(workload, inputs, args.seed, workdir)
            rung_ops, rung_metrics = ladder(args.seed, workdir)
            ops += rung_ops
            metrics.update(rung_metrics)
            for name, (value, unit) in metrics.items():
                print(f"{name:<32} {value:.6g} {unit}")
        else:
            ops, metrics = measure(workload, inputs, args.seed, args.seconds, workdir, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.inp.label} {op.command}: {problem}")
    failed = sum(1 for op in ops if op.problems)
    print(f"operations attempted {len(ops)} failed {failed} "
          f"failed_ratio {failed / len(ops):.6g}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
