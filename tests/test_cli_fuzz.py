"""Mutated preset documents through the CLI: whatever one mutation breaks,
each command returns a documented exit code (0 success, 1 usage, 2
validation, 3 numerics), writes at most one stderr line that is not a
warning, and raises nothing."""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coalseek.cli import main
from coalseek.scenario import available_presets, preset_path

PRESETS = {
    name: json.loads(preset_path(name).read_text(encoding="utf-8"))
    for name in available_presets()
}

COMMANDS = (("graphs",), ("costs",), ("solve",), ("check",), ("run", "--horizon", "0.5"))

# Wrong types, zeros, signs, bad expressions, indices out of range, and
# magnitudes near the ends of double precision: a start whose costs
# overflow, a weight whose block spectrum cannot be resolved, a gain too
# stiff to integrate or a record_dt asking for too many records.  Every run
# is bounded, so each of these ends with its exit code.
REPLACEMENTS = st.sampled_from(
    [None, True, 0, 1, -1, 2, 7, 0.5, -2.5, 1e3, -1e3, 1e-3, 1e300, -1e300, 1e-300,
     "", "x1_1", "x9_9", "log(x1_1)", "rk4", [], {}, [0], [1, 2], [1, 1]]
)


def _locations(node, path=()):
    """Key paths of every leaf and every list element of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if isinstance(node, list) or not isinstance(child, (dict, list)):
            yield path + (key,)
        yield from _locations(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    """A preset with one leaf or list element replaced or deleted."""
    doc = copy.deepcopy(PRESETS[draw(st.sampled_from(sorted(PRESETS)))])
    *parents, key = draw(st.sampled_from(list(_locations(doc))))
    parent = _at(doc, parents)
    if draw(st.booleans()):
        parent[key] = draw(REPLACEMENTS)
    else:
        del parent[key]
    return doc


# Coalition 3 without communication edge (2,4): block (3,4) has members 2, 3
# and 4, and 2 is cut off, so the energy value for x_star is undefined.
DISCONNECTED = copy.deepcopy(PRESETS["example2"])
DISCONNECTED["coalitions"][2]["communication"].remove([2, 4])
# A weight of 1e-300 on that edge: the block's reduced Laplacian is not
# numerically positive definite.
FAINT = copy.deepcopy(PRESETS["example2"])
FAINT["coalitions"][2]["communication"][2] = [2, 4, 1e-300]  # was [2, 4]
# A start whose costs overflow.
FAR = copy.deepcopy(PRESETS["coalition1-fig1"])
FAR["initial_x"][0] = 1e300


@settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=mutants(), command=st.sampled_from(COMMANDS))
@example(doc=DISCONNECTED, command=COMMANDS[-1])
@example(doc=FAINT, command=COMMANDS[-1])
@example(doc=FAR, command=("check",))
@example(doc=FAR, command=("solve",))
@example(doc=FAR, command=COMMANDS[-1])
def test_mutated_presets_exit_with_one_line(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:], "--format", "kv"])
    assert code in (0, 1, 2, 3)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("warning: ")]
    assert len(lines) <= 1, lines
