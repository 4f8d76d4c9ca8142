"""The regcheck exit-code contract under malformed input, fuzzed with hypothesis.

A small valid (2,3) instance over GF(7) is mutated (keys dropped, values
replaced by values of the wrong type, sign or size, lists cut or grown,
the equations given differing variable lists) and checked in process
through ``cli.run``: the exit code is 0, 1, 2 or 3, nothing escapes as a
traceback, and exit 1 comes only with a verdict on stdout.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from fanoci.cli import run
from fanoci.families import DegreeTuple
from fanoci.fields import FieldSpec
from fanoci.regularity import random_complete_intersection

BASE = random_complete_intersection(
    DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1
).to_json()

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(min_value=-3, max_value=9),
    st.sampled_from([-(10**6), 10**6, 2**64, 10**30]),
    st.sampled_from(["", "gf:7", "gf:4", "gf:2", "gf:32003", "rational", "z1", "x"]),
    st.lists(st.integers(min_value=-2, max_value=4), max_size=6),
    st.just({}),
)
MODES = [[], ["--reduce"], ["--mode", "probabilistic"]]


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _mutate(data, draw):
    paths = list(_paths(data))
    path = draw(st.sampled_from(paths))
    kind = draw(st.sampled_from(["replace", "drop", "grow", "variables"]))
    if kind == "variables":
        names = draw(st.lists(st.sampled_from(["z1", "z2", "z3", "z4", "z5", "w"]),
                              min_size=4, max_size=6))
        equations = data.get("equations") if isinstance(data, dict) else None
        if isinstance(equations, list) and equations and isinstance(equations[-1], dict):
            equations[-1]["variables"] = names
        return data
    if not path:
        return draw(JUNK) if kind == "replace" else data
    *head, last = path
    parent = data
    for step in head:
        parent = parent[step]
    if kind == "replace":
        parent[last] = draw(JUNK)
    elif kind == "drop":
        del parent[last]
    elif isinstance(parent[last], list) and parent[last]:
        parent[last].append(copy.deepcopy(parent[last][-1]))
    return data


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), mode=st.sampled_from(MODES))
def test_regcheck_json_keeps_the_exit_code_contract(tmp_path, data, mode):
    instance = copy.deepcopy(BASE)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        instance = _mutate(instance, data.draw)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(instance))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["regcheck", "--input", str(path), "--samples", "1", *mode], out=out)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert json.loads(out.getvalue())["verdict"] in ("irregular", "singular-at-point")
    if code in (2, 3):
        assert out.getvalue() == ""
