"""The sampled audits of ``check`` work a block of samples at a time: one
draw and one array pass per block, with the kernel called per point.  The
per-sample loops they replace are kept here as references: the monotonicity
probe, the gradient audit's class loop and ``check``'s deviation spot checks
must reproduce them bit for bit, skip counts included, however the blocks
split the samples.  A traced run on a 3000-agent ring pins the block cap."""

import contextlib
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from coalseek import analysis, cli, oracle
from coalseek.dynamics import SeekerState
from coalseek.expr import DomainError, parse
from coalseek.game import Coalition, Game, pseudo_gradient
from coalseek.graphs import Graph
from coalseek.oracle import AUDIT_STEP, check_monotonicity, gradient_check
from coalseek.scenario import load_scenario
from conftest import STATIONARY_SECOND, ring_game

PRESETS = ("example2", "congestion-demo", "coalition1-fig1")

# Coalitions of one agent each, with no communication.  In the first two,
# the log(x2_1) in the cost of agent (1,1) has no partial, so only a guard
# sees its wall at 0; the start is 0.5 from it, and samples cross it.
GUARD_WALL = ("(x1_1 - 1)^2 + log(x2_1)", "(x2_1 + 1)^2")
GUARD_WALL_ODD = GUARD_WALL + ("(x3_1 - 0.5)^2 + 0.1*x3_1*x1_1",)


def _one_agent_coalitions(*costs):
    trivial = Graph.build([1])
    return Game(tuple(Coalition((parse(cost),), (1.0,), trivial, trivial) for cost in costs))


# --- the per-sample references --------------------------------------------------------


def _reference_monotonicity(game, lo, hi, pairs=200, seed=0, extra_pairs=()):
    """The probe pair by pair: two draws, two pseudo-gradients and one dot
    product per pair."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (game.n_actions,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (game.n_actions,))
    rng = np.random.default_rng(seed)
    min_inner = np.inf
    witness = None
    evaluated = 0
    domain_errors = 0

    def probe(x, y):
        nonlocal min_inner, witness, evaluated, domain_errors
        if np.array_equal(x, y):
            return
        try:
            inner = float((x - y) @ (pseudo_gradient(game, x) - pseudo_gradient(game, y)))
        except DomainError:
            domain_errors += 1
            return
        evaluated += 1
        if inner < min_inner:
            min_inner = inner
            witness = (x.copy(), y.copy())

    for x, y in extra_pairs:
        probe(game.as_profile(x), game.as_profile(y))
    for _ in range(pairs):
        probe(rng.uniform(lo, hi), rng.uniform(lo, hi))
    passed = evaluated > 0 and min_inner > 0.0
    min_inner = float(min_inner) if evaluated else np.nan
    return passed, min_inner, None if passed else witness, evaluated, domain_errors


def _reference_gradient_check(game, x):
    """The audit class by class, each class a list of its columns, slots and
    their costs' profile indices."""

    def partition(colors):
        def groups(keys):
            return np.split(np.argsort(keys, kind="stable"), np.cumsum(np.bincount(keys))[:-1])

        slots = groups(colors[game.layout.column])
        return [(cols, s, game.layout.owner[s]) for cols, s in zip(groups(colors), slots)]

    def audit(classes):
        fd = np.empty_like(sym)
        for cols, slots, costs in classes:
            xp, xm = x.copy(), x.copy()
            xp[cols] += AUDIT_STEP
            xm[cols] -= AUDIT_STEP
            fd[slots] = (game.cost_kernel(xp)[costs] - game.cost_kernel(xm)[costs]) / (2.0 * AUDIT_STEP)
        return float((np.abs(sym - fd) / np.maximum(1.0, np.abs(sym))).max())

    x = game.as_profile(x)
    sym = game.kernel(x)
    try:
        game.cost_kernel(x)
        return audit(partition(game.audit_plan.colors))
    except DomainError:
        return audit(partition(np.arange(x.size)))


def _reference_spot_checks(game, base, rng, samples):
    """The deviation spot checks state by state, each through the
    one-dimensional block means and norms."""
    layout = game.layout

    def spread(g):
        means = np.add.reduceat(g, layout.block_starts) / layout.block_sizes
        dev = g - np.repeat(means, layout.block_sizes)
        return means, np.sqrt(np.add.reduceat(dev * dev, layout.block_starts))

    gaps = []
    skipped = 0
    for _ in range(samples):
        x = game.as_profile(base + rng.uniform(-1.0, 1.0, game.n_actions))
        w = rng.normal(size=layout.size)
        state = SeekerState(x, w - np.repeat(spread(w)[0], layout.block_sizes))
        try:
            pvec = game.kernel(game.as_profile(state.x))
        except DomainError:
            skipped += 1
            continue
        g = state.w + pvec
        deviation = np.abs(g - np.repeat(spread(pvec)[0], layout.block_sizes))
        bound = np.repeat(np.sqrt(1.0 - 1.0 / layout.block_sizes) * spread(g)[1], layout.block_sizes)
        gaps.append(float(np.fmax.reduce(deviation - bound, initial=0.0)))
    return gaps, skipped


def _reference_check_report(scenario):
    """``check``'s kv report from the references, its 20 audit points drawn
    one at a time."""
    game = scenario.game
    rng = np.random.default_rng(scenario.seed)
    base = np.array(scenario.initial_x)
    skipped = 0
    errors = []
    for _ in range(20):
        x = base + rng.uniform(-0.5, 0.5, game.n_actions)
        try:
            errors.append(_reference_gradient_check(game, x))
        except DomainError:
            skipped += 1
    passed, min_inner, *_ = _reference_monotonicity(game, base - 2.0, base + 2.0, 200, scenario.seed)
    gaps, outside = _reference_spot_checks(game, base, rng, 50)
    return "\n".join([
        f"scenario={scenario.name}",
        f"gradient_max_rel_err={max(errors, default=math.nan)!r}",
        f"monotone_on_sample={str(passed).lower()}",
        f"monotone_min_inner={float(min_inner)!r}",
        f"deviation_bound_max_gap={max(gaps, default=math.nan)!r}",
        f"domain_skipped={skipped + outside}",
    ]) + "\n"


# --- comparisons ---------------------------------------------------------------------


def _bits(value):
    """Floats by ``repr``, arrays by their bytes, tuples item by item."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value


def _assert_same_probe(game, lo, hi, pairs, seed, extra_pairs=()):
    report = check_monotonicity(game, lo, hi, pairs=pairs, seed=seed, extra_pairs=extra_pairs)
    got = (report.passed, report.min_inner, report.witness, report.samples, report.domain_errors)
    expected = _reference_monotonicity(game, lo, hi, pairs, seed, extra_pairs)
    assert _bits(got) == _bits(expected)
    return report


def _audit_outcome(audit, game, x):
    try:
        return repr(audit(game, x))
    except DomainError as err:
        return f"DomainError: {err}"


def _assert_same_audits(game, points):
    """Equal bits or the same DomainError at every point; the number of
    points outside the domain."""
    outside = 0
    for x in points:
        expected = _audit_outcome(_reference_gradient_check, game, x)
        assert _audit_outcome(gradient_check, game, x) == expected, x
        outside += expected.startswith("DomainError")
    return outside


def _assert_same_spot_checks(game, base, seed, samples=50):
    got = analysis.deviation_spot_checks(game, base, np.random.default_rng(seed), samples)
    expected = _reference_spot_checks(game, base, np.random.default_rng(seed), samples)
    assert _bits(got) == _bits(expected)
    return got[1]


def _assert_same_audit_set(game, base, seed):
    """Every audit of ``check`` around ``base``: the skipped samples of the
    probe and the spot checks, and the audit points outside the domain."""
    rng = np.random.default_rng(seed)
    points = [base + rng.uniform(-0.5, 0.5, game.n_actions) for _ in range(20)]
    outside = _assert_same_audits(game, points)
    probe = _assert_same_probe(game, base - 2.0, base + 2.0, 200, seed)
    return probe.domain_errors, _assert_same_spot_checks(game, base, seed), outside


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("seed", [0, 5])
def test_audits_match_their_references_on_presets(preset, seed):
    scenario = load_scenario(preset)
    _assert_same_audit_set(scenario.game, np.array(scenario.initial_x), seed)


def test_audits_match_their_references_on_corpus_games(quadratic_corpus):
    for seed, sample in enumerate(quadratic_corpus[:6]):
        game = sample.game
        _assert_same_audit_set(game, np.random.default_rng(seed).uniform(-1.0, 1.0, game.n_actions), seed)


def test_audits_match_their_references_where_samples_leave_the_domain():
    game = _one_agent_coalitions(*GUARD_WALL)
    probe_skipped, spot_skipped, _ = _assert_same_audit_set(game, np.array([0.5, 0.5]), 5)
    assert probe_skipped > 0 and spot_skipped > 0
    # Within a step of the wall, the audit at x or a class call fails, and
    # the rerun column by column raises or returns as the reference does.
    points = [np.array([0.5, k * 5e-7]) for k in range(-1, 5)]
    assert _assert_same_audits(game, points) == 4


def test_probe_matches_its_reference_with_extra_pairs(example2_game):
    game = example2_game
    same = np.full(10, 0.25)
    extra = [(np.zeros(10), STATIONARY_SECOND), (same, same), (STATIONARY_SECOND, np.ones(10))]
    report = _assert_same_probe(game, -2.0, 2.0, 100, 0, extra)
    assert not report.passed and report.samples == 102
    # An extra pair outside the domain is skipped and counted.
    wall = _one_agent_coalitions(*GUARD_WALL)
    extra = [([0.5, -1.0], [0.5, 0.5]), ([0.5, 0.5], [0.5, -1.0]), ([0.1, 0.2], [0.3, 0.4])]
    assert _assert_same_probe(wall, 0.0, 1.0, 7, 3, extra).domain_errors == 2


@pytest.mark.parametrize("rows", ["one", "audit", "probe"])
def test_audits_match_their_references_when_blocks_split_the_samples(rows, monkeypatch, quadratic_corpus):
    # Odd numbers of actions, a cap of one row per block, two columns per
    # block of the audit (which splits 7 and 3 columns mid-stream), and three
    # pairs and six states per block (which split 200 pairs and 50 states).
    games = [quadratic_corpus[5].game, _one_agent_coalitions(*GUARD_WALL_ODD)]
    for game in games:
        assert game.n_actions % 2 == 1
        size = game.layout.size
        cap = {"one": 1, "audit": 2 * game.n_actions + 1, "probe": 6 * size + 1}[rows]
        monkeypatch.setattr(oracle, "AUDIT_BLOCK_FLOATS", cap)
        base = np.full(game.n_actions, 0.5)
        _assert_same_audit_set(game, base, 3)
        wall = [np.array([0.5, k * 5e-7, 0.5]) for k in range(-1, 5)]
        if game.n_actions == 3:
            assert _assert_same_audits(game, wall) == 4
        extra = [(base, base + 1.0), (base, base), (base - 1.0, base)]
        _assert_same_probe(game, base - 2.0, base + 2.0, 11, 4, extra)


def _document(path, costs, start):
    doc = {
        "schema": "coalseek/scenario-v1",
        "name": path.stem,
        "coalitions": [{"costs": [cost], "communication": []} for cost in costs],
        "initial_x": start,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("cap", [None, 1])
def test_check_reports_match_the_reference(cap, monkeypatch, tmp_path):
    if cap is not None:
        monkeypatch.setattr(oracle, "AUDIT_BLOCK_FLOATS", cap)
    sources = list(PRESETS) + [_document(tmp_path / "guard-wall-odd.json", GUARD_WALL_ODD, [0.5, 0.5, 0.5])]
    for source in sources:
        for seed in (0, 7):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(["check", source, "--format", "kv", "--seed", str(seed)]) == 0
            scenario = dataclasses.replace(load_scenario(source), seed=seed)
            assert stdout.getvalue() == _reference_check_report(scenario)


# --- the block cap ---------------------------------------------------------------------


def test_audit_blocks_cap_their_memory_on_a_large_game():
    game = ring_game(agents=3000)
    n, size = game.n_actions, game.layout.size
    base = np.zeros(n)
    game.kernel(base)  # compiled outside the trace
    # One block and one row of the probe's widest matrix (its partials), in
    # bytes.  Without the cap, the probe's draw alone takes 200 * 2 * 3000
    # floats, 9.6 MB.
    block = 8 * (oracle.AUDIT_BLOCK_FLOATS + 2 * size)
    audits = {
        "probe": lambda: check_monotonicity(game, base - 2.0, base + 2.0, pairs=200, seed=5),
        "spot checks": lambda: analysis.deviation_spot_checks(game, base, np.random.default_rng(5), 50),
    }
    for name, audit in audits.items():
        tracemalloc.start()
        try:
            audit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * block, (name, peak)
