import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import coalseek
from coalseek.cli import main
from coalseek.expr import MAX_HEIGHT, compile_vector_function, evaluate
from coalseek.scenario import (
    SCHEMA_KEY,
    ScenarioError,
    available_presets,
    load_scenario,
    parse_scenario,
    preset_path,
)


def _minimal_doc(**overrides):
    doc = {
        "schema": SCHEMA_KEY,
        "name": "mini",
        "coalitions": [
            {
                "costs": ["(x1_1 - 1)^2 + 0.2*x1_1*x1_2", "(x1_2 + 1)^2 + 0.2*x1_1*x1_2"],
                "communication": [[1, 2]],
            }
        ],
    }
    doc.update(overrides)
    return doc


# --- loading and validation -----------------------------------------------------


def test_presets_catalog():
    assert available_presets() == ("coalition1-fig1", "congestion-demo", "example2")


def test_example2_shape(example2):
    game = example2.game
    assert game.n_coalitions == 3
    assert game.sizes == (1, 3, 6)
    assert game.n_actions == 10
    assert game.coalitions[1].interference.edge_pairs() == ((1, 2), (1, 3), (2, 3))
    assert example2.x_star == (0.0,) * 10
    assert all(v.passed for v in example2.containment.values())
    assert example2.warnings == ()


def test_initial_x_matches_published_run(example2):
    assert example2.initial_x == (4.0, 1.6, -1.2, -0.8, 0.0, 0.4, 1.0, 1.4, 1.8, 4.0)


def test_congestion_reference_metadata(congestion_demo):
    ref = congestion_demo.reference["published_equilibrium"]
    assert ref == [12.63, 5.58, 3.68, 6.12, 5.16, 2.03, 2.03, 10.16, 10.16, 5.63]


def test_parse_minimal_document():
    scenario = parse_scenario(_minimal_doc())
    assert scenario.game.n_actions == 2
    assert scenario.params.step == 1e-3 and scenario.params.horizon == 100.0
    assert scenario.initial_x == (0.0, 0.0)
    assert scenario.seed == 0


def test_interference_inferred_when_omitted():
    scenario = parse_scenario(_minimal_doc())
    assert scenario.game.coalitions[0].interference.edge_pairs() == ((1, 2),)


def test_declared_interference_missing_edge_rejected():
    doc = _minimal_doc()
    doc["coalitions"][0]["interference"] = []
    with pytest.raises(ScenarioError, match=r"dependence edge \(1,2\)"):
        parse_scenario(doc)


def test_declared_interference_supergraph_allowed():
    doc = _minimal_doc()
    doc["coalitions"][0]["costs"] = ["(x1_1 - 1)^2", "(x1_2 + 1)^2"]
    doc["coalitions"][0]["interference"] = [[1, 2]]
    scenario = parse_scenario(doc)
    assert scenario.game.coalitions[0].interference.edge_pairs() == ((1, 2),)


def test_unknown_schema_rejected():
    with pytest.raises(ScenarioError, match="unsupported schema"):
        parse_scenario(_minimal_doc(schema="nope/v9"))


def test_bad_cost_string_names_key():
    doc = _minimal_doc()
    doc["coalitions"][0]["costs"][1] = "x1_2 +"
    with pytest.raises(ScenarioError, match=r"coalitions\[0\].costs\[1\]"):
        parse_scenario(doc)


def test_weights_default_to_one():
    scenario = parse_scenario(_minimal_doc())
    assert scenario.game.coalitions[0].comm.weight(1, 2) == 1.0


def test_explicit_weight_kept():
    doc = _minimal_doc()
    doc["coalitions"][0]["communication"] = [[1, 2, 2.5]]
    scenario = parse_scenario(doc)
    assert scenario.game.coalitions[0].comm.weight(1, 2) == 2.5


def test_nonzero_w_requires_flag():
    doc = _minimal_doc(initial_w=[[1, 1, 1, 0.5]])
    with pytest.raises(ScenarioError, match="allow_nonzero_w"):
        parse_scenario(doc)
    doc["allow_nonzero_w"] = True
    scenario = parse_scenario(doc)
    state = scenario.initial_state()
    assert state.w[scenario.game.layout.slot(1, 1, 1)] == 0.5
    assert state.w.sum() == 0.5


def test_containment_failure_is_warning_not_error():
    doc = _minimal_doc()
    doc["coalitions"][0]["communication"] = []  # disconnected comm graph
    scenario = parse_scenario(doc)
    assert scenario.warnings
    assert not scenario.containment[1].passed


def test_initial_x_length_checked():
    with pytest.raises(ScenarioError, match="initial_x"):
        parse_scenario(_minimal_doc(initial_x=[1.0]))


def test_load_from_path(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(_minimal_doc()))
    scenario = load_scenario(path)
    assert scenario.name == "mini"


def test_unknown_preset_raises():
    with pytest.raises(FileNotFoundError, match="unknown preset"):
        load_scenario("does-not-exist")


# --- CLI ---------------------------------------------------------------------------


def test_cli_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("command", ["run", "solve", "graphs", "costs", "check", "presets"])
def test_cli_csv_report_format_is_a_usage_error(capsys, command):
    # Reports render as text or kv; only trajectories are CSV.
    argv = [command] + ([] if command == "presets" else ["coalition1-fig1"])
    assert main(argv + ["--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_cli_missing_scenario_exit_code(capsys):
    assert main(["solve", "no-such-preset"]) == 1


def test_cli_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_minimal_doc(schema="wrong")))
    assert main(["solve", str(bad)]) == 2
    assert "validation error" in capsys.readouterr().err


_COALITION = _minimal_doc()["coalitions"][0]


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"integrator": {"method": "foo"}}, id="method"),
        pytest.param({"integrator": {"step": -1}}, id="step"),
        pytest.param({"integrator": {"horizon": 0}}, id="horizon"),
        pytest.param({"integrator": {"horizon": float("inf")}}, id="horizon-inf"),
        pytest.param({"integrator": {"record_stride": 0}}, id="record_stride"),
        pytest.param(
            {"integrator": {"method": "dopri5", "record_dt": 1.0, "record_stride": 10}},
            id="record_stride-dopri5",
        ),
        pytest.param({"integrator": {"method": "rk4", "record_dt": 1.0}}, id="record_dt-rk4"),
        pytest.param({"integrator": {"record_dt": 1.0}}, id="record_dt-default-method"),
        pytest.param({"integrator": {"method": "dopri5"}}, id="record_dt-missing"),
        pytest.param({"integrator": {"method": "dopri5", "record_dt": 0}}, id="record_dt-zero"),
        pytest.param({"integrator": {"method": "dopri5", "record_dt": -1.0}}, id="record_dt-negative"),
        pytest.param({"x_star": ["a", 0.0]}, id="x_star"),
        pytest.param({"initial_x": [float("nan"), 0.0]}, id="initial_x-nan"),
        pytest.param({"initial_x": [float("inf"), 0.0]}, id="initial_x-inf"),
        pytest.param(
            {"allow_nonzero_w": True, "initial_w": [[1, 1.5, 1, 0.5]]}, id="initial_w-index"
        ),
        pytest.param(
            {"allow_nonzero_w": True, "initial_w": [[1, 1, 1, "x"]]}, id="initial_w-value"
        ),
        pytest.param({"delta": float("inf")}, id="delta-inf"),
        pytest.param({"coalitions": [dict(_COALITION, dbar=[float("nan"), 1.0])]}, id="dbar-nan"),
        pytest.param(
            {"coalitions": [dict(_COALITION, communication=[[1, 2, float("inf")]])]},
            id="weight-inf",
        ),
        pytest.param(
            {"coalitions": [dict(_COALITION, communication=[[True, 2]])]},
            id="communication-endpoint-bool",
        ),
        pytest.param(
            {"coalitions": [dict(_COALITION, interference=[[True, 2]])]},
            id="interference-endpoint-bool",
        ),
        pytest.param({"seed": -1}, id="seed"),
        pytest.param(
            {"coalitions": [dict(_COALITION, costs=["1e999*x1_1^2", _COALITION["costs"][1]])]},
            id="cost-literal-inf",
        ),
    ],
)
def test_cli_malformed_scenario_is_validation_error(tmp_path, capsys, overrides):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_minimal_doc(**overrides)))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: $.")
    assert err.count("\n") == 1


def test_cli_non_utf8_scenario_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 200000, id="nested-past-recursion-limit"),
        pytest.param(
            json.dumps(_minimal_doc(seed="N")).replace('"N"', "9" * 5000), id="seed-5000-digits"
        ),
        pytest.param(
            json.dumps(_minimal_doc(initial_x=[0, "N"])).replace('"N"', "1" * 5000),
            id="initial_x-5000-digits",
        ),
    ],
)
def test_cli_json_past_interpreter_limits_is_validation_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: invalid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_cli_unwritable_output_is_one_line_error(tmp_path, capsys, flag):
    argv = ["run", "coalition1-fig1", "--out", str(tmp_path / "t.csv"), flag, str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert err.count("\n") == 1


def test_cli_bad_override_is_usage_error(capsys):
    assert main(["run", "coalition1-fig1", "--step", "-1"]) == 1
    assert main(["solve", "coalition1-fig1", "--delta", "0"]) == 1
    assert main(["check", "coalition1-fig1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.count("usage error") == 3


@pytest.mark.parametrize("command", ["run", "solve", "check"])
@pytest.mark.parametrize("delta", ["inf", "-inf", "nan"])
def test_cli_non_finite_delta_is_usage_error(tmp_path, capsys, command, delta):
    argv = [command, "example2", f"--delta={delta}"]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: delta must be positive and finite\n"
    assert not (tmp_path / "t.csv").exists()


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    doc = {
        "schema": SCHEMA_KEY,
        "name": "runaway",
        "coalitions": [{"costs": ["10*log(x1_1 + 1)"], "communication": []}],
        "integrator": {"step": 1.0, "horizon": 50.0, "record_stride": 1},
        "initial_x": [-0.5],
        "delta": 1.0,
    }
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "solve", "check"])
def test_cli_start_outside_domain_is_numerical_failure(tmp_path, capsys, command):
    doc = {
        "schema": SCHEMA_KEY,
        "name": "pole",
        "coalitions": [{"costs": ["x1_1^2 - log(x1_1)"], "communication": []}],
        "initial_x": [-1.0],
    }
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1


def _one_agent_file(tmp_path, cost, start):
    doc = {
        "schema": SCHEMA_KEY,
        "name": "one-agent",
        "coalitions": [{"costs": [cost], "communication": []}],
        "initial_x": [start],
    }
    path = tmp_path / "one-agent.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "cost, start, message",
    [
        ("x1_1^2 - log(x1_1)", -1.0, "log of non-positive value -1.0 in the cost of agent (1,1)"),
        ("x1_1^1e300", 1.5, "pow(1.5, 1e+300) left the real domain in the cost of agent (1,1)"),
    ],
)
def test_cli_domain_failure_names_operation_and_cost(tmp_path, capsys, cost, start, message):
    path = _one_agent_file(tmp_path, cost, start)
    assert main(["run", path, "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


def test_cli_check_skips_samples_outside_the_domain(tmp_path, capsys):
    # From x1_1 = 0.2, samples at up to -0.8 cross the log barrier at 0.
    path = _one_agent_file(tmp_path, "x1_1^2 - log(x1_1)", 0.2)
    assert main(["check", path, "--format", "kv"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert 0 < int(kv["domain_skipped"]) < 70  # of 20 gradient and 50 bound samples
    assert float(kv["gradient_max_rel_err"]) <= 1e-6
    assert float(kv["deviation_bound_max_gap"]) <= 1e-9
    assert kv["monotone_on_sample"] == "true"


def _count_compiles(monkeypatch):
    """Patches the compiler where ``game`` and ``oracle`` bind it; the list
    returned collects, per compile, the number of outputs and of guarded
    expressions."""
    import coalseek.game
    import coalseek.oracle

    compiled = []

    def counting(exprs, names, *label, guarded=()):
        exprs, guarded = list(exprs), list(guarded)
        compiled.append((len(exprs), len(guarded)))
        return compile_vector_function(exprs, names, *label, guarded=guarded)

    monkeypatch.setattr(coalseek.game, "compile_vector_function", counting)
    monkeypatch.setattr(coalseek.oracle, "compile_vector_function", counting)
    return compiled


def test_cli_check_compiles_the_kernel_once(monkeypatch, capsys):
    # Once over the partials, guarded by the costs, and once over the costs
    # followed by the partials.
    compiled = _count_compiles(monkeypatch)
    assert main(["check", "congestion-demo"]) == 0
    game = load_scenario("congestion-demo").game
    n, size = game.n_actions, game.layout.size
    assert sorted(compiled) == sorted([(size, n), (n + size, 0)])


@pytest.mark.parametrize("command", ["run", "solve"])
def test_cli_run_and_solve_never_compile_the_cost_kernel(tmp_path, monkeypatch, capsys, command):
    compiled = _count_compiles(monkeypatch)
    argv = [command, "congestion-demo"]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    game = load_scenario("congestion-demo").game
    n = game.n_actions
    assert (game.layout.size, n) in compiled
    assert (n, 0) not in compiled


@pytest.mark.parametrize("command", ["run", "solve", "costs", "check"])
def test_cli_only_check_builds_the_audit_plan(tmp_path, monkeypatch, capsys, command):
    import coalseek.oracle

    built = []

    class CountingPlan(coalseek.oracle.AuditPlan):
        def __init__(self, game):
            built.append(game.n_actions)
            super().__init__(game)

    monkeypatch.setattr(coalseek.oracle, "AuditPlan", CountingPlan)
    argv = [command, "congestion-demo"]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    assert built == ([10] if command == "check" else [])


def test_cli_check_counts_the_samples_a_guard_wall_rejects(tmp_path, capsys):
    # log(x2_1) in the cost of agent (1,1) has no partial; samples around
    # x2_1 = 0.5 reach past its wall at 0.
    doc = {
        "schema": SCHEMA_KEY,
        "name": "guard-wall",
        "coalitions": [
            {"costs": ["(x1_1 - 1)^2 + log(x2_1)"], "communication": []},
            {"costs": ["(x2_1 + 1)^2"], "communication": []},
        ],
        "initial_x": [0.5, 0.5],
    }
    path = tmp_path / "guard-wall.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--format", "kv", "--seed", "5"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert kv["domain_skipped"] == "11"
    assert float(kv["gradient_max_rel_err"]) <= 1e-6


def test_cli_jacobian_domain_exit_names_entry_and_operation(tmp_path, capsys):
    # d2/dx1_1^2 of x1_1^1.5 is 0.75 * x1_1^-0.5, which has no value at 0.
    path = _one_agent_file(tmp_path, "x1_1^1.5 + x1_1", 0.0)
    assert main(["solve", path, "--format", "kv"]) == 3
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert kv["message"] == (
        "jacobian left the domain: pow(0.0, -0.5) left the real domain "
        "in the jacobian entry d/dx1_1 of component x1_1"
    )


def _example2_rk4_file(tmp_path):
    """example2's document with fixed-step RK4 as its integrator: h = 0.005
    to t = 200, every 200th step recorded."""
    doc = json.loads(preset_path("example2").read_text(encoding="utf-8"))
    doc["integrator"] = {
        "method": "rk4",
        "step": 0.005,
        "horizon": 200.0,
        "record_stride": 200,
        "stop_tol": 1e-8,
    }
    path = tmp_path / "example2-rk4.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_unrecoverable_step_names_its_cause(tmp_path, capsys):
    # Past the critical gain, example2's run leaves the domain of exp.
    path = _example2_rk4_file(tmp_path)
    argv = ["run", path, "--delta", "3", "--step", "0.05", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 3
    # 0.05 / 2**42: the step was rejected 42 times before it fell below the
    # resolution of t at the horizon.
    assert re.fullmatch(
        r"numerical failure: step at t=0\.562564 failed: the step shrank to 1\.14e-14, "
        r"below the resolution of t at the horizon 200, after leaving the domain: "
        r"exp\(\S+\) overflows in the cost of agent \(3,1\)\n",
        capsys.readouterr().err,
    )


def test_cli_dopri5_step_collapse_names_the_fastest_entry(tmp_path, capsys):
    # The same run on the preset's dopri5 leaves no domain: exp(x3_1) runs
    # away, and the steps shrink through error rejections alone.
    argv = ["run", "example2", "--delta", "3", "--step", "0.05", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.search(
        r"step at t=0\.564597 failed: the step shrank to \S+, below the resolution of t.*x3_1",
        err,
    )


def _timed_main(argv):
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


def test_cli_run_ends_where_the_step_collapses_at_the_start(tmp_path, capsys):
    # A gain of 1e300 shrinks every dopri5 step towards 1e-300; near t = 0
    # any positive step advances t, so only the horizon's resolution ends it.
    doc = json.loads(preset_path("congestion-demo").read_text(encoding="utf-8"))
    doc["coalitions"][1]["dbar"][2] = 1e300
    path = tmp_path / "fast-gain.json"
    path.write_text(json.dumps(doc))
    code, seconds = _timed_main(["run", str(path), "--horizon", "0.5", "--out", str(tmp_path / "t.csv")])
    assert code == 3 and seconds < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.search(r"step at t=0 failed: .*below the resolution of t at the horizon 0\.5; x2_3 moves", err)


def test_cli_record_dt_asking_for_too_many_records_is_validation_error(tmp_path, capsys):
    doc = json.loads(preset_path("congestion-demo").read_text(encoding="utf-8"))
    doc["integrator"]["record_dt"] = 1e-300
    path = tmp_path / "tiny-record-dt.json"
    path.write_text(json.dumps(doc))
    code, seconds = _timed_main(["run", str(path), "--out", str(tmp_path / "t.csv")])
    assert code == 2 and seconds < 1.0
    assert capsys.readouterr().err == (
        "validation error: $.integrator: record_dt asks for more than 1000000 records, each a step\n"
    )


def test_cli_unrecoverable_non_finite_state_names_its_cause(tmp_path, capsys):
    # Finite partials, but a communication weight that overflows every
    # Euler step however short.
    doc = _minimal_doc(
        coalitions=[
            {
                "costs": ["(x1_1 - 1)^2 + x1_1*x1_2", "(x1_2 + 1)^2 + x1_1*x1_2"],
                "communication": [[1, 2, 1e308]],
            }
        ],
        integrator={"method": "euler", "step": 0.1, "horizon": 1.0},
    )
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: step at t=0 failed: the step shrank to 8.88e-17, below the "
        "resolution of t at the horizon 1, after leaving the domain: "
        "step produced a non-finite state\n"
    )


def _cli_subprocess(argv, module="coalseek.cli", **environ):
    """Run ``python -m <module>`` on ``argv`` with the package under test
    importable, Python's default warning filters and ``environ`` set."""
    src = str(Path(coalseek.__file__).resolve().parents[1])
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **environ
    )
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=120
    )


def test_python_dash_m_coalseek_is_the_cli():
    proc = _cli_subprocess(["presets", "--format", "kv"], module="coalseek")
    assert proc.returncode == 0
    assert proc.stdout.decode().split() == list(available_presets())
    assert _cli_subprocess(["frobnicate"], module="coalseek").returncode == 1


def test_cli_messages_do_not_depend_on_the_hash_seed(tmp_path):
    # Each message names the first of several failing names: a Jacobian
    # entry of component x1_1 (d/dx1_1 and d/dx2_1 both raise pow(0, -0.5)),
    # and an unknown action of three.
    jacobian = tmp_path / "jacobian.json"
    jacobian.write_text(json.dumps(_minimal_doc(
        coalitions=[{"costs": ["x1_1^1.5 + x1_1*x2_1^0.5"]}, {"costs": ["x2_1^2 + x2_1"]}],
        initial_x=[0, 0],
    )))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps(_minimal_doc(coalitions=[{"costs": ["x1_1^2 + x5_1 + x6_1 + x7_1"]}]))
    )
    for argv, expected in (
        (["solve", str(jacobian), "--format", "kv"], b"entry d/dx1_1 of component x1_1"),
        (["graphs", str(unknown)], b"unknown action 'x5_1'"),
    ):
        runs = [_cli_subprocess(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
        first, second = ((r.returncode, r.stdout, r.stderr) for r in runs)
        assert first == second
        assert expected in first[1] + first[2]


def test_cli_run_names_the_disconnected_block_the_energy_value_needs(tmp_path, capsys):
    doc = json.loads(preset_path("example2").read_text(encoding="utf-8"))
    doc["coalitions"][2]["communication"].remove([2, 4])
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "validation error: $.x_star: the energy value needs the communication graph of "
        "block (3,4) connected"
    )
    # Only the energy value needs it.
    assert main(["solve", str(path)]) == 0


@pytest.mark.parametrize(
    "weight, block",
    [(1e-12, None), (1e-9, None), (1e-300, "(3,4)"), (1e300, "(3,2)")],
)
def test_cli_run_energy_value_on_a_reweighted_edge(tmp_path, capsys, weight, block):
    # Edge [2, 4] of coalition 3 lies in blocks (3,2) and (3,4).  Far from 1,
    # its weight leaves each block connected, and the energy value builds
    # for as long as the block's spectrum is resolved in double precision.
    doc = json.loads(preset_path("example2").read_text(encoding="utf-8"))
    edges = doc["coalitions"][2]["communication"]
    edges[edges.index([2, 4])] = [2, 4, weight]
    path = tmp_path / "reweighted.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--horizon", "0.5", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err.splitlines()
    if block is None:
        assert (code, err) == (0, [])
    else:
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(
            "validation error: $.x_star: the energy value cannot resolve the "
            f"communication graph of block {block}: its Laplacian has eigenvalues "
        )


@pytest.mark.parametrize("method", ["euler", "rk4", "dopri5"])
def test_cli_overflowing_stage_warns_nothing(tmp_path, method):
    # The scenario of the test above, run as a command: the overflow in the
    # consensus term is a rejected step, and stderr holds the one line only.
    integrator = {"method": method, "step": 0.1, "horizon": 1.0}
    if method == "dopri5":
        integrator["record_dt"] = 0.5
    doc = _minimal_doc(
        coalitions=[
            {
                "costs": ["(x1_1 - 1)^2 + x1_1*x1_2", "(x1_2 + 1)^2 + x1_1*x1_2"],
                "communication": [[1, 2, 1e308]],
            }
        ],
        integrator=integrator,
    )
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    proc = _cli_subprocess(["run", str(path), "--out", str(tmp_path / "t.csv")])
    assert proc.returncode == 3
    assert proc.stderr.startswith(
        b"numerical failure: step at t=0 failed: the step shrank to 8.88e-17, below the "
        b"resolution of t at the horizon 1, after leaving the domain: "
    )
    assert proc.stderr.count(b"\n") == 1


def test_cli_deep_halving_completes(tmp_path, capsys):
    # Next to the wall of log(x1_1) the first step is halved 45 times before
    # an attempt is accepted.
    doc = {
        "schema": SCHEMA_KEY,
        "delta": 1.0,
        "coalitions": [{"costs": ["x1_1^2 - log(x1_1)"], "communication": []}],
        "integrator": {"method": "rk4", "step": 0.01, "horizon": 0.01, "record_stride": 1},
        "initial_x": [2e-16],
    }
    path = tmp_path / "wall.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv"), "--format", "kv"]) == 0
    captured = capsys.readouterr()
    kv = dict(line.split("=", 1) for line in captured.out.splitlines())
    assert (kv["steps"], kv["rejected_steps"], kv["t_end"]) == ("2", "45", "0.01")
    assert captured.err == ""


def test_cli_dopri5_counts_domain_rejections(tmp_path, capsys):
    # Descent on a log barrier: a first trial step of 1 from x1_1 = 0.05
    # jumps past the wall at 0, and the halved attempts recover.
    path = _one_agent_file(tmp_path, "x1_1^2 - log(x1_1)", 0.05)
    doc = json.loads(Path(path).read_text())
    doc["delta"] = 1.0
    doc["integrator"] = {"method": "dopri5", "step": 1.0, "horizon": 20.0, "record_dt": 1.0}
    Path(path).write_text(json.dumps(doc))
    assert main(["run", path, "--out", str(tmp_path / "t.csv"), "--format", "kv"]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert int(kv["rejected_steps"]) > 0
    assert int(kv["rhs_evals"]) <= 6 * (int(kv["steps"]) + int(kv["rejected_steps"])) + 1
    assert abs(float(kv["x1_1"]) - 0.5**0.5) <= 1e-8


def test_cli_dopri5_unrecoverable_step_is_one_line(tmp_path, capsys):
    # Ascent on a log cost reaches the wall at x1_1 = -1 at t = 1/80: the
    # steps shrink toward it until they no longer advance t.
    doc = {
        "schema": SCHEMA_KEY,
        "name": "runaway",
        "coalitions": [{"costs": ["10*log(x1_1 + 1)"], "communication": []}],
        "integrator": {"method": "dopri5", "step": 1.0, "horizon": 50.0, "record_dt": 1.0},
        "initial_x": [-0.5],
        "delta": 1.0,
    }
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step at t=0.0125 failed: ")
    assert err.count("\n") == 1


def test_cli_step_collapse_at_a_domain_wall_names_the_domain_exit(tmp_path, capsys):
    # The dynamics descend x2_1 into the wall of log(x2_1), which only a
    # guard sees: the halved steps reach the horizon's resolution, and the
    # message names the last exit, not the fastest entry.
    doc = {
        "schema": SCHEMA_KEY,
        "name": "guard-wall",
        "coalitions": [
            {"costs": ["(x1_1 - 1)^2 + log(x2_1)"], "communication": []},
            {"costs": ["(x2_1 + 1)^2"], "communication": []},
        ],
        "initial_x": [0.5, 0.5],
    }
    path = tmp_path / "guard-wall.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"numerical failure: step at t=2\.02733 failed: the step shrank to \S+, below the "
        r"resolution of t at the horizon 100, after leaving the domain: log of non-positive "
        r"value \S+ in the cost of agent \(1,1\)\n",
        err,
    )


def test_cli_run_reports_counters(tmp_path, capsys):
    # Fixed RK4 with no halvings: four evaluations per step and the first.
    path = _example2_rk4_file(tmp_path)
    argv = ["run", path, "--horizon", "1", "--format", "kv", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    at = keys.index("steps")
    assert keys[at : at + 3] == ["steps", "rhs_evals", "rejected_steps"]
    kv = dict(line.split("=", 1) for line in lines)
    assert (kv["steps"], kv["rhs_evals"], kv["rejected_steps"]) == ("200", "801", "0")


def test_cli_fixed_step_run_lands_on_the_horizon(tmp_path, capsys):
    # 1000 steps of 0.05 add up to 49.9999999999993; the last is stretched
    # by that shortfall, far below the step, to land on 50 itself.
    out = tmp_path / "t.csv"
    path = _example2_rk4_file(tmp_path)
    argv = ["run", path, "--step", "0.05", "--horizon", "50", "--format", "kv", "--out", str(out)]
    assert main(argv) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert (kv["t_end"], kv["steps"], kv["rejected_steps"]) == ("50.0", "1000", "0")
    assert out.read_text().splitlines()[-1].split(",")[0] == "50.0"


def test_congestion_demo_generator_matches_the_preset():
    script = Path(__file__).resolve().parents[1] / "scripts" / "build_congestion_demo.py"
    spec = importlib.util.spec_from_file_location("_build_congestion_demo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shipped = preset_path("congestion-demo").read_text(encoding="utf-8")
    assert json.dumps(module.build_document(), indent=2) + "\n" == shipped


def _read_three_lines_and_close(argv):
    """Run ``coalseek`` with stdout on a pipe whose reader takes three
    lines and then closes it, as ``| head -3`` does."""
    src = str(Path(coalseek.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "coalseek.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return lines, proc.wait(timeout=120), err


def test_cli_closed_stdout_is_a_quiet_exit(tmp_path):
    lines, code, err = _read_three_lines_and_close(["costs", "congestion-demo", "--format", "kv"])
    assert lines[0] == b"agent.1_1.aux_proposed=2\n" and len(lines) == 3
    assert (code, err) == (0, b"")
    # A report larger than any pipe buffer: the writer must meet the
    # closed pipe while printing.
    m = 150
    doc = _minimal_doc(
        coalitions=[
            {
                "costs": [f"(x1_{j} - 1)^2 + 0.1*x1_{j}*x1_{j % m + 1}" for j in range(1, m + 1)],
                "communication": [[j, j % m + 1] for j in range(1, m + 1)],
            }
        ]
    )
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    lines, code, err = _read_three_lines_and_close(["costs", str(path), "--format", "kv"])
    assert all(line.startswith(b"agent.1_1.") for line in lines)
    assert (code, err) == (0, b"")


def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    summary = tmp_path / "fig1.txt"
    code = main(
        [
            "run",
            "coalition1-fig1",
            "--out",
            str(out),
            "--summary",
            str(summary),
            "--horizon",
            "20",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,x1_1,x1_2,x1_3,x1_4")
    assert len(lines) > 2
    printed = capsys.readouterr().out
    assert "x1_1" in printed
    # The summary holds no wall time, so it is the same on every run.
    assert summary.read_text() == printed
    assert "wall_time_s" not in printed


def test_cli_run_example2_final_row_near_origin(tmp_path):
    out = tmp_path / "example2.csv"
    assert main(["run", "example2", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    actions = [abs(float(v)) for v in last[1:11]]
    assert max(actions) <= 0.05


# example2's endpoint at t = 200 under fixed-step RK4 with h = 0.005.
_EXAMPLE2_RK4_ENDPOINT = {
    "x1_1": 1.695228503254854e-05,
    "x2_1": -3.4678922188796276e-05,
    "x2_2": 1.2421745128964216e-06,
    "x2_3": -2.209674203522812e-06,
    "x3_1": 2.5534489111364166e-05,
    "x3_2": -0.00015848164732243733,
    "x3_3": 0.0015826805349250103,
    "x3_4": 3.866929863827496e-06,
    "x3_5": 4.971766966196785e-06,
    "x3_6": 0.0003106929444042465,
}


def test_cli_run_example2_records_every_unit_of_time(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["run", "example2", "--format", "kv", "--out", str(out)]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    times = [row.split(",", 1)[0] for row in out.read_text().splitlines()[1:]]
    assert times == [repr(float(t)) for t in range(201)]
    assert int(kv["rhs_evals"]) == 6 * (int(kv["steps"]) + int(kv["rejected_steps"])) + 1
    for name, value in _EXAMPLE2_RK4_ENDPOINT.items():
        assert abs(float(kv[name]) - value) <= 1e-11


def test_cli_run_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        assert main(["run", "coalition1-fig1", "--out", str(target), "--horizon", "10"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_solve_kv_deterministic(capsys):
    assert main(["solve", "example2", "--format", "kv"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", "example2", "--format", "kv"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "converged=true" in first


def test_cli_graphs_lists_neighborhoods(capsys):
    assert main(["graphs", "example2"]) == 0
    out = capsys.readouterr().out
    assert "coalition 3" in out
    assert "component 4: vertices 2,3,4 edges 2-4 3-4" in out
    assert out.count("containment check: pass") == 2


def test_cli_graphs_rejects_a_non_ascii_digit(tmp_path, capsys):
    # Digits are ASCII: an Arabic-Indic three is a stray character, not 3.
    path = _one_agent_file(tmp_path, "x1_1^2 + ٣", 0.5)
    assert main(["graphs", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "validation error: $.coalitions[0].costs[0]: "
        "expected a number, variable or '(', found '٣' (byte offset 9)"
    ]


def test_cli_costs_kv(capsys):
    assert main(["costs", "example2", "--format", "kv"]) == 0
    out = capsys.readouterr().out
    assert "agent.3_1.dropped=4,5" in out
    assert "agent.3_4.dropped=1,5,6" in out


def test_cli_check_reports_violation(capsys):
    assert main(["check", "example2"]) == 0
    out = capsys.readouterr().out
    assert "monotone_on_sample" in out
    assert "gradient_max_rel_err" in out


def test_cli_delta_override_changes_run(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "coalition1-fig1", "--out", str(a), "--horizon", "5"]) == 0
    assert main(
        ["run", "coalition1-fig1", "--out", str(b), "--horizon", "5", "--delta", "0.05"]
    ) == 0
    assert a.read_bytes() != b.read_bytes()


def test_cli_presets_command(capsys):
    assert main(["presets"]) == 0
    assert capsys.readouterr().out.split() == list(available_presets())


# --- deep costs -------------------------------------------------------------------


def _wide_game_file(tmp_path, cost, followers=250):
    """Coalition 1: one agent with ``cost``; coalition 2: ``followers``
    independent agents with costs ``(x2_j - 1)^2``."""
    doc = _minimal_doc(
        coalitions=[
            {"costs": [cost]},
            {"costs": [f"(x2_{j} - 1)^2" for j in range(1, followers + 1)]},
        ],
        delta=0.5,
        integrator={"method": "dopri5", "step": 0.01, "horizon": 5.0, "record_dt": 1.0},
        initial_x=[0.5] * (1 + followers),
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_runs_a_cost_with_a_250_term_chain(tmp_path, capsys):
    # One parenthesis per chained operation used to pass CPython's limit of
    # 200 nested brackets in the compiled source.
    chain = " + ".join(f"x2_{j}" for j in range(1, 251))
    path = _wide_game_file(tmp_path, f"(x1_1 - 1)^2 + 0.001*x1_1*({chain})")
    for argv in (["run", str(path), "--out", str(tmp_path / "t.csv")], ["solve", str(path)], ["check", str(path)]):
        assert main(argv + ["--format", "kv"]) == 0
    game = load_scenario(str(path)).game
    x = np.random.default_rng(1).uniform(-2.0, 2.0, game.n_actions)
    env = dict(zip(game.var_names, x.tolist()))
    partials = list(game.partials.values())
    for kernel, exprs in ((game.kernel, partials), (game.cost_kernel, [*game.costs, *partials])):
        reference = np.array([evaluate(e, env) for e in exprs])
        assert np.array_equal(kernel(x).view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "cost, message",
    [
        pytest.param("(" * 3000 + "x1_1" + ")" * 3000, "nested more than", id="parentheses"),
        pytest.param(" + ".join(["x1_1"] * 3000), "operations deep", id="chain"),
    ],
)
@pytest.mark.parametrize("command", ["run", "solve", "check"])
def test_cli_too_deep_a_cost_is_one_validation_line(tmp_path, capsys, cost, message, command):
    argv = [command, _one_agent_file(tmp_path, cost, 0.5), "--format", "kv"]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"validation error: \$\.coalitions\[0\]\.costs\[0\]: .*{message}.* \(byte offset \d+\)\n", err
    )


@pytest.mark.parametrize("command", ["run", "solve", "check"])
def test_cli_runs_a_division_chain_of_the_greatest_height(tmp_path, capsys, command):
    # Every division of the chain depends on x1_1, so each level of the cost
    # adds levels to its first and second derivatives, which the compiler
    # and the Newton Jacobian walk recursively.
    cost = "x1_1" + "".join(f"/({j + 2} + x1_1)" for j in range(MAX_HEIGHT - 1))
    argv = [command, _one_agent_file(tmp_path, cost, 0.5), "--format", "kv", "--horizon", "1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_cli_check_rejects_a_start_whose_cost_overflows_quietly(tmp_path, capsys):
    # The cost of agent (1,1) is inf at (1, 1) with no failing operation;
    # its partials are finite, and check reads costs.
    doc = _minimal_doc(initial_x=[1.0, 1.0])
    doc["coalitions"][0]["costs"] = ["1e308*x1_1 + 1e308*x1_2", "(x1_2 - 1)^2"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: non-finite value in the cost of agent (1,1)\n"
