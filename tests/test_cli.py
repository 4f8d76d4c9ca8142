import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest

from fanoci.cli import build_parser, run
from fanoci.families import DegreeTuple, nondecreasing_degree_tuples
from fanoci.fields import FieldSpec
from fanoci.proof_audit import audit_range
from fanoci.rationals import format_rational
from fanoci.regularity import random_complete_intersection

REMARK_TUPLES = [
    [2, 3, 6, 6, 7],
    [2, 4, 5, 6, 7],
    [2, 5, 5, 5, 7],
    [3, 3, 5, 6, 7],
    [3, 4, 4, 6, 7],
    [3, 4, 5, 5, 7],
    [4, 4, 4, 5, 7],
]


def invoke(argv):
    buffer = io.StringIO()
    code = run(argv, out=buffer)
    return code, buffer.getvalue()


def test_classify_remark_family():
    code, output = invoke(["classify", "--degrees", "2,5,5,5,7", "--format", "json"])
    assert code == 0
    (payload,) = json.loads(output)
    assert payload["theorems"]["t6"] == "ii"
    assert payload["theorems"]["t4"] == "none"
    assert payload["ct"] == "gt_M_over_M+1"
    assert payload["hypertangent_ratio"] == "21/20"


def test_enumerate_novelty_filter():
    code, output = invoke(
        ["enumerate", "--ambient", "24", "--filter", "t6-not-t4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(output)
    assert [entry["degrees"] for entry in payload] == REMARK_TUPLES


def test_remark1_rows():
    code, output = invoke(["remark1", "--format", "csv"])
    assert code == 0
    lines = output.strip().splitlines()
    assert len(lines) == 8  # header + 7 rows
    assert all(",24," in line for line in lines[1:])


# exit code and sha256 of the stdout of the classification commands: the
# Remark 1 catalogue in every format, the filter token it equals, the literal
# t6-vs-t4 comparison, a k box, a d_max box, a theorem comparison and two
# single certificates.
PINNED_CLASSIFICATION_OUTPUTS = {
    "remark1 --format json": "90c610937fc2a732ac791208c7a70945ab4b583366638e70455f8dde8e48d7b4",
    "enumerate --ambient 24 --filter t6-not-t4 --format json": (
        "90c610937fc2a732ac791208c7a70945ab4b583366638e70455f8dde8e48d7b4"
    ),
    "remark1 --format csv": "6a61a8c0b7f6911e5f3ec1034b28680be7cae10187a58ae104f6c641a1ca0f3c",
    "remark1 --format text": "5396dc558a1380de9da01897742a98beb1bcb0fb09c506f5ddadaece92cf7342",
    "enumerate --ambient 24 --filter t6:any-not-t4 --format csv": (
        "a401225aaafb08a0eddc42a37d17b4e246ca93dcc21b7d38b3313a34955bb1b2"
    ),
    "enumerate --ambient 12 --k 2 --format text": (
        "3d9255a09676f899629a5bc3e520356563b6a553cc70d178be369a1b344bb17b"
    ),
    "enumerate --ambient 20 --d-max 7 --filter ke --format json": (
        "6b417e956cb99e2565dd0d5120241dfc04cf57bbf32561e2efa593ab5147e8db"
    ),
    "enumerate --ambient 28 --filter t3-not-t5 --format csv": (
        "2440409ffe72a9967a893dc146d3e2025105bdfdc34d3db08c3da38e502e0a0f"
    ),
    "classify --degrees 2,5,5,5,7 --format csv": (
        "69823276b152d5efd3ed689302ed220370b73d13341cc917daa9f81924eebd98"
    ),
    "classify --degrees 6,6 --format text": (
        "79f5eb934cdf9738951ffddfc431a3fc6125275a9833b7882e0de76ea54249a3"
    ),
}


@pytest.mark.parametrize("command", list(PINNED_CLASSIFICATION_OUTPUTS))
def test_classification_outputs_pinned(command):
    code, output = invoke(command.split())
    assert code == 0
    assert hashlib.sha256(output.encode()).hexdigest() == PINNED_CLASSIFICATION_OUTPUTS[command]


def test_float_free_reports():
    for argv in (
        ["classify", "--degrees", "6,6"],
        ["remark1"],
        ["audit", "--k-max", "2", "--m-max", "12"],
    ):
        code, output = invoke(argv)
        payload = json.loads(output)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(payload)


def test_determinism_byte_identical():
    argv = ["randomci", "--degrees", "2,2", "--field", "gf:101", "--trials", "3", "--seed", "5"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second
    argv2 = ["audit", "--k-max", "2", "--m-max", "12"]
    assert invoke(argv2) == invoke(argv2)


def test_audit_exit_code_and_vacuity():
    code, output = invoke(["audit", "--k-max", "2", "--m-max", "12"])
    assert code == 0
    code, output = invoke(["audit", "--k-max", "2", "--m-max", "9", "--format", "json"])
    assert code == 0
    payload = json.loads(output)
    assert payload[0]["verdict"] == "vacuous"


@pytest.mark.parametrize(
    "box",
    [
        ("2", "9", "5", "60"),  # vacuous
        ("3", "18", "3", "18"),  # contains (7,7,7)
        ("4", "20", "4", "20"),
    ],
)
def test_audit_json_is_the_indented_sorted_dump(box):
    k_max, m_max, tuple_k_max, tuple_m_max = box
    code, output = invoke(
        ["audit", "--format", "json", "--k-max", k_max, "--m-max", m_max,
         "--tuple-k-max", tuple_k_max, "--tuple-m-max", tuple_m_max]
    )
    assert code == 0
    report = audit_range(
        int(k_max), int(m_max), tuple_k_max=int(tuple_k_max), tuple_M_max=int(tuple_m_max)
    )
    assert output == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _benchmark_audit_boxes():
    """The audit boxes of the benchmark workload and their recorded outputs."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workload", bench / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    expected = json.loads((bench / "expected.json").read_text())["audit"]
    return workload.SIZES, expected


@pytest.mark.parametrize("size", ["smoke", "standard"])
def test_audit_bytes_match_the_benchmark_record(size):
    sizes, expected = _benchmark_audit_boxes()
    for fmt in ("text", "json"):
        code, output = invoke(["audit", "--format", fmt, *sizes[size]["audit_args"]])
        data = output.encode("utf-8")
        assert code == 0
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            expected[size][fmt]["sha256"],
            expected[size][fmt]["bytes"],
        ), fmt
        if fmt == "text":
            assert output.splitlines()[0] == f"records: {expected[size]['records']}"


# the boxes of test_audit_order_is_the_params_text_order, as
# (k_max, M_max, tuple_k_max, tuple_M_max)
ORDER_BOXES = [(2, 9, 5, 60), (5, 15, 5, 60), (3, 30, 6, 12), (4, 20, 2, 5), (4, 24, 4, 24)]


def _collected_output(report, fmt):
    """The audit output of each format, written from a collected report."""
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["check,params,lhs,rhs,verdict,note"]
        for r in report.records:
            params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            lines.append(
                f'{r.check},"{params}",{format_rational(r.lhs)},{format_rational(r.rhs)},'
                f'{r.verdict},"{r.note.replace(chr(34), chr(39))}"'
            )
        return "\n".join(lines) + "\n"
    counts = Counter(r.verdict for r in report.records)
    lines = [f"records: {len(report.records)}"]
    lines += [f"  {verdict}: {counts[verdict]}" for verdict in sorted(counts)]
    lines += [f"discrepancy: {note}" for note in report.discrepancy_notes]
    lines.append(f"aggregate: {'PASS' if report.aggregate_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "box", ORDER_BOXES, ids=["vacuous", "mixed", "tuples-wide-k", "no-tuples", "k4"]
)
def test_streamed_audit_equals_the_collected_report(box):
    k_max, M_max, tuple_k_max, tuple_M_max = box
    report = audit_range(k_max, M_max, tuple_k_max=tuple_k_max, tuple_M_max=tuple_M_max)
    args = ["--k-max", str(k_max), "--m-max", str(M_max),
            "--tuple-k-max", str(tuple_k_max), "--tuple-m-max", str(tuple_M_max)]
    for fmt in ("text", "csv", "json"):
        code, output = invoke(["audit", *args, "--format", fmt])
        assert code == (0 if report.aggregate_pass else 1)
        assert output == _collected_output(report, fmt), fmt


def _spy_tail_records(monkeypatch):
    """Count the calls of ``_tail_records`` by (k, M)."""
    import fanoci.proof_audit as proof_audit

    calls, tail_records = Counter(), proof_audit._tail_records

    def spy(d, k, M):
        calls[k, M] += 1
        return tail_records(d, k, M)

    monkeypatch.setattr(proof_audit, "_tail_records", spy)
    return calls


def test_a_block_whose_minimum_falls_short_is_enumerated(monkeypatch):
    # the shift-2 minimum of the (3, 20) block is lowered below 5M + k - 2, so
    # the text audit cannot count that block whole; its square-sum record
    # then fails as well, so the audit exits 1
    import fanoci.proof_audit as proof_audit

    box = ("--k-max", "4", "--m-max", "24", "--tuple-k-max", "4", "--tuple-m-max", "24")
    optimize = proof_audit.optimize_square_sum

    def lowered(k, M, shift):
        result = optimize(k, M, shift)
        if (k, M, shift) == (3, 20, 2):
            return result._replace(integer_min=5 * M + k - 3)
        return result

    monkeypatch.setattr(proof_audit, "optimize_square_sum", lowered)
    report = audit_range(4, 24, tuple_k_max=4, tuple_M_max=24)
    calls = _spy_tail_records(monkeypatch)
    code, output = invoke(["audit", *box, "--format", "text"])
    assert (code, output) == (1, _collected_output(report, "text"))
    assert calls[3, 20] == proof_audit._tuple_count(3, 20) > 1
    assert all(count == 1 for block, count in calls.items() if block != (3, 20))


def test_text_audit_makes_one_tail_pair_per_block_and_json_one_per_tuple(monkeypatch):
    sizes, expected = _benchmark_audit_boxes()
    argv = ["audit", *sizes["standard"]["audit_args"]]
    calls = _spy_tail_records(monkeypatch)
    code, output = invoke([*argv, "--format", "text"])
    blocks = {(k, M) for k in range(2, 5) for M in range(3 * k + 4, 41)}
    assert code == 0 and output.splitlines()[0] == f"records: {expected['standard']['records']}"
    assert set(calls) == blocks and max(calls.values()) == 1
    calls.clear()
    invoke([*argv, "--format", "json"])
    tuples = {
        (k, M): len(list(nondecreasing_degree_tuples(k, M + k, 2, M + k))) for k, M in blocks
    }
    assert calls == tuples and sum(calls.values()) == 7151


class _Discard:
    """A stdout that keeps nothing of what it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_audit_holds_no_report(fmt):
    # the benchmark's standard box makes 24,970 records; collected, their
    # traced allocations peak at about 9.5 MB
    sizes, _ = _benchmark_audit_boxes()
    argv = ["audit", *sizes["standard"]["audit_args"], "--format", fmt]
    run(["audit", "--k-max", "2", "--m-max", "12", "--format", fmt], out=_Discard())
    tracemalloc.start()
    try:
        code = run(argv, out=_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("box", [["--k-max", "1"], ["--k-max", "3", "--m-max", "0"]])
def test_audit_outside_the_box_exit_2_with_nothing_written(fmt, box, capsys):
    code, output = invoke(["audit", *box, "--format", fmt])
    assert (code, output) == (2, "")
    assert "need k_max >= 2 and M_max >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "box",
    [["--ambient", "8"], ["--ambient", "40", "--k", "2"], ["--ambient", "8", "--k", "5"]],
    ids=["ambient-8", "ambient-40-k2", "empty"],
)
@pytest.mark.parametrize(
    "token, message",
    [
        ("t5:ii", "t5 has no cases"),
        ("t6:iv", "unknown case in 't6:iv'"),
        ("-not-t4", "unknown theorem id: ''"),
        ("t3-not-t7", "unknown theorem id: 't7'"),
    ],
)
def test_enumerate_bad_filter_exit_2_on_any_box(box, token, message, capsys):
    # on the ambient-8 box t3 holds for no tuple, so "t3-not-t7" never reached
    # t7 when the ids were checked only as they were evaluated; the last box
    # holds no tuple at all
    code, output = invoke(["enumerate", *box, f"--filter={token}", "--format", "json"])
    assert (code, output) == (2, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", ["-3", "0", "1"])
def test_enumerate_k_below_2_exit_2(k, capsys):
    code, output = invoke(["enumerate", "--ambient", "12", "--k", k, "--format", "json"])
    assert (code, output) == (2, "")
    assert "need k >= 2 degrees" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--k-max", "16", "--m-max", "100", "--format", "json"],
        ["audit", "--k-max", "16", "--m-max", "100", "--format", "csv"],
        ["enumerate", "--ambient", "30", "--format", "text"],
    ],
    ids=["audit-json", "audit-csv", "enumerate-text"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # ``| head -1`` in a shell: each output is far larger than a pipe's
    # buffer, so the writer meets the closed pipe
    proc = _spawn_cli(argv)
    assert proc.stdout.readline()
    _assert_broken_pipe_exit(proc)


def test_stdout_closed_before_the_final_flush_exits_141():
    # a small output waits in stdout's buffer until the flush at the end,
    # and the reader is gone by then
    proc = _spawn_cli(["audit", "--k-max", "2", "--m-max", "12", "--format", "text"])
    _assert_broken_pipe_exit(proc)


def _spawn_cli(argv):
    # stdout block-buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "fanoci.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def _assert_broken_pipe_exit(proc):
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in stderr and "Error" not in stderr, stderr


def test_unknown_flag_rejected_with_usage_exit():
    with pytest.raises(SystemExit) as exit_info:
        run(["classify", "--degrees", "2,2", "--bogus"])
    assert exit_info.value.code == 2


def test_parse_failure_exit_2():
    code, _ = invoke(["classify", "--degrees", "2,x"])
    assert code == 2


def test_regcheck_exit_codes(tmp_path):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(101), seed=7)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        ["regcheck", "--input", str(path), "--samples", "2", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["verdict"] == "regular"
    assert payload["samples"] == 2

    # an irregular instance: f1 carries no quadratic part away from z1^2,
    # and the check fails for the sampled forms is not guaranteed; instead
    # exercise the budget path for exit 3 with an oversized ambient space
    big = random_complete_intersection(
        DegreeTuple((2, 2, 2, 2, 2)), FieldSpec.prime(5), seed=0
    )
    big_path = tmp_path / "big.json"
    big_path.write_text(json.dumps(big.to_json()))
    code, _ = invoke(["regcheck", "--input", str(big_path), "--samples", "1"])
    assert code == 3


def test_regcheck_probabilistic_over_a_large_prime_exit_3(tmp_path):
    # the GF(p^2) scan for p = 32003 is far over the enumeration budget
    ci = random_complete_intersection(
        DegreeTuple((2, 3)), FieldSpec.prime(32003), seed=0
    )
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, _ = invoke(
        ["regcheck", "--input", str(path), "--mode", "probabilistic", "--samples", "1"]
    )
    assert code == 3


def test_regcheck_probabilistic_reduced_over_a_large_prime_exit_0(tmp_path):
    # reduced, (2,3) leaves one quadratic, a forced prefix: its codimension
    # is 1 without a scan of GF(32003^2)
    ci = random_complete_intersection(
        DegreeTuple((2, 3)), FieldSpec.prime(32003), seed=0
    )
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        [
            "regcheck", "--input", str(path), "--mode", "probabilistic", "--samples", "1",
            "--reduce",
        ]
    )
    assert code == 0
    (report,) = json.loads(output)["reports"]
    assert (report["verdict"], report["trace"]) == ("regular", [1])


@pytest.mark.parametrize("extra", [[], ["--reduce"]], ids=["unreduced", "reduce"])
def test_regcheck_probabilistic_over_the_rationals_exit_2(tmp_path, capsys, extra):
    # reduced, the sequence is one quadratic, which no longer asks the
    # oracle; the refusal must still come, with the oracle's message
    from fanoci.polynomials import MultiPoly
    from fanoci.regularity import PointedCI, ambient_variables

    Q = FieldSpec.rationals()
    names = ambient_variables(5)
    z1, z2, z3, z4, z5 = (MultiPoly.variable(Q, names, n) for n in names)
    ci = PointedCI(DegreeTuple((2, 3)), Q, (z4 + z1 * z1, z5 + z2 * z3 + z2**3))
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        ["regcheck", "--input", str(path), "--mode", "probabilistic", *extra]
    )
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == (
        "input error: probabilistic codimension requires a prime field\n"
    )


def test_regcheck_probabilistic_past_the_uncut_budget_exit_0(tmp_path):
    # scanning every member on each slice would enumerate 10,172,526 points
    # of P^5(GF(25)) here, over the budget; cut by the linear members, the
    # scan fits and the verdict is the exact one
    ci = random_complete_intersection(DegreeTuple((2, 4)), FieldSpec.prime(5), seed=0)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    base = ["regcheck", "--input", str(path), "--samples", "1"]
    code, output = invoke(base + ["--mode", "probabilistic"])
    exact_code, exact_output = invoke(base + ["--mode", "exact"])
    assert code == exact_code == 0
    assert json.loads(output)["verdict"] == json.loads(exact_output)["verdict"]


def test_regcheck_kernel_pair_budget_exit_3(tmp_path, monkeypatch, capsys):
    # a kernel budget abort exits 3 and reports how far the run got
    from fanoci import groebner

    ci = random_complete_intersection(DegreeTuple((3, 4)), FieldSpec.prime(101), seed=0)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    monkeypatch.setattr(groebner, "MAX_PAIRS", 2)
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1"])
    assert (code, output) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith(
        "resource budget exceeded: Groebner computation exceeded the pair budget (2)"
        " after 2 pairs, with "
    )
    assert "basis elements and largest degree" in err


def test_regcheck_packing_guard_exit_3(tmp_path, monkeypatch, capsys):
    # no CI instance reaches an exponent of 2**31, so the regcheck handler is
    # made to ask the kernel for one; its budget error must map to exit 3
    from fanoci import cli
    from fanoci.groebner import groebner_basis
    from fanoci.polynomials import MultiPoly

    Q = FieldSpec.rationals()
    x, y = (MultiPoly.variable(Q, ("x", "y"), n) for n in ("x", "y"))

    def oversized(*args, **kwargs):
        groebner_basis([x ** (2**31) - y ** (2**31), x * y])

    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(101), seed=0)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    monkeypatch.setattr(cli, "sampled_regularity_check", oversized)
    code, output = invoke(["regcheck", "--input", str(path)])
    assert (code, output) == (3, "")
    assert "packed" in capsys.readouterr().err


def test_regcheck_irregular_exit_1(tmp_path):
    # deterministically irregular: the quadratic part of f1 is z4^2, so the
    # prefix (l, z4, z4^2) never reaches codimension 3, whatever l is
    from fanoci.polynomials import MultiPoly
    from fanoci.regularity import PointedCI, ambient_variables

    Q = FieldSpec.rationals()
    names = ambient_variables(5)
    v = {n: MultiPoly.variable(Q, names, n) for n in names}
    ci = PointedCI(
        DegreeTuple((2, 3)),
        Q,
        (v["z4"] + v["z4"] ** 2, v["z5"] + v["z2"] ** 3),
    )
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        ["regcheck", "--input", str(path), "--samples", "2", "--seed", "0"]
    )
    payload = json.loads(output)
    assert payload["verdict"] == "irregular"
    assert code == 1


def _singular_instance(tmp_path):
    # a (2,3) instance over GF(3) whose linear parts z1 + z2 and 2*z1 + 2*z2
    # are dependent, so it is singular at the origin
    from fanoci.polynomials import MultiPoly
    from fanoci.regularity import PointedCI, ambient_variables

    field = FieldSpec.prime(3)
    names = ambient_variables(5)
    z = [MultiPoly.variable(field, names, n) for n in names]
    f1 = z[0] + z[1] + z[2] ** 2
    f2 = 2 * z[0] + 2 * z[1] + z[3] ** 3 + z[0] * z[4]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(PointedCI(DegreeTuple((2, 3)), field, (f1, f2)).to_json()))
    return path


# the stdout of every regcheck of the singular instance: one report, however
# many forms were asked for, and "reduced": false with --reduce too
SINGULAR_OUTPUTS = {
    "json": """{
  "note": "sampled evidence: the conjunction over randomly drawn linear forms, not a proof over all of them",
  "reports": [
    {
      "note": "dependent linear parts: the intersection is singular at the origin",
      "reduced": false,
      "target_codim": 4,
      "trace": [],
      "verdict": "singular-at-point"
    }
  ],
  "samples": 8,
  "verdict": "singular-at-point"
}
""",
    "text": """verdict: singular-at-point (over 8 sampled forms)
  sample 0: singular-at-point trace=[]
""",
}


@pytest.mark.parametrize("fmt", sorted(SINGULAR_OUTPUTS))
@pytest.mark.parametrize(
    "extra",
    [[], ["--reduce"], ["--mode", "probabilistic"]],
    ids=["exact", "reduce", "probabilistic"],
)
def test_regcheck_singular_instance_exit_1(tmp_path, capsys, fmt, extra):
    path = _singular_instance(tmp_path)
    code, output = invoke(["regcheck", "--input", str(path), "--format", fmt, *extra])
    assert (code, output) == (1, SINGULAR_OUTPUTS[fmt])
    assert capsys.readouterr().err == ""


def test_regcheck_zero_samples_exit_2(tmp_path, capsys):
    path = _singular_instance(tmp_path)
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "0"])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err == "input error: samples must be >= 1\n"


def test_regcheck_malformed_input_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = invoke(["regcheck", "--input", str(path)])
    assert code == 2
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"degrees": [2, 2], "field": "gf:4", "equations": []}))
    code, _ = invoke(["regcheck", "--input", str(path2)])
    assert code == 2


def _instance_with_a_long_coefficient(field):
    # a coefficient string of 4,400 digits, past Python's integer digit limit
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(5), seed=0)
    data = ci.to_json()
    data["field"] = field
    for equation in data["equations"]:
        equation["field"] = field
    data["equations"][0]["terms"][0]["coeff"] = "1" + "0" * 4400
    return json.dumps(data).encode()


BAD_INPUT_FILES = {
    "not-utf-8": b'{"degrees": [2, 3], "field": "gf:5\xff"}',
    "nested-past-the-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
    "integer-literal-past-the-digit-limit": b'{"degrees": [' + b"1" * 4400 + b", 3]}",
    "rational-coefficient-past-the-digit-limit": _instance_with_a_long_coefficient("rational"),
    "prime-field-coefficient-past-the-digit-limit": _instance_with_a_long_coefficient("gf:5"),
}


@pytest.mark.parametrize("content", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys())
def test_regcheck_unreadable_input_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, output = invoke(["regcheck", "--input", str(path)])
    err = capsys.readouterr().err
    assert (code, output) == (2, "")
    assert err.startswith("input error:") and "Traceback" not in err


def test_randomci_statistics_schema():
    code, output = invoke(
        [
            "randomci",
            "--degrees",
            "2,3",
            "--field",
            "gf:101",
            "--trials",
            "4",
            "--samples",
            "2",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["trials"] == 4
    assert payload["smooth"] + payload["singular"] == 4
    assert payload["regular"] + payload["irregular"] == payload["smooth"]
    assert "/" in payload["pass_rate"] or payload["pass_rate"].isdigit()


def test_randomci_rejects_negative_trials():
    code, _ = invoke(["randomci", "--degrees", "2,3", "--field", "gf:101", "--trials", "-1"])
    assert code == 2
    code, output = invoke(["randomci", "--degrees", "2,3", "--field", "gf:101", "--trials", "0"])
    assert code == 0
    assert json.loads(output)["trials"] == 0


def test_randomci_field_tag_outside_the_grammar_exit_2(capsys):
    code, output = invoke(["randomci", "--degrees", "2,3", "--field", "gf:1_01"])
    assert (code, output) == (2, "")
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize(
    "digits, shown",
    [
        # more digits than ``int`` converts: a bad tag
        (5000, "bad field tag: 'gf:1111"),
        # converted, and refused as beyond the exact primality range
        (4000, "characteristic 1111"),
    ],
    ids=["5000 digits", "4000 digits"],
)
def test_randomci_huge_field_tag_exit_2_with_a_short_message(capsys, digits, shown):
    code, output = invoke(["randomci", "--degrees", "2,3", "--field", "gf:" + "1" * digits])
    assert (code, output) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("input error: " + shown)
    assert len(err) < 200 and "more characters)" in err


def test_randomci_rejects_zero_samples_before_drawing():
    # checked up front: with no trials no instance reaches the sampled check
    for trials in ("0", "3"):
        argv = ["randomci", "--degrees", "2,3", "--field", "gf:7", "--trials", trials]
        code, output = invoke([*argv, "--samples", "0"])
        assert (code, output) == (2, "")


@pytest.mark.parametrize(
    "degrees, reduce, n_vars",
    [("20,20", False, 40), ("5,5", False, 10), ("5,7", True, 9)],
)
def test_randomci_refuses_a_box_beyond_the_budget_before_drawing(
    monkeypatch, capsys, degrees, reduce, n_vars
):
    # drawing lists every monomial of each degree: (20,20) alone would be
    # C(59, 20) of them, so the budget is checked first
    def draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr("fanoci.cli.random_complete_intersection", draw)
    for trials in ("0", "1"):
        argv = ["randomci", "--degrees", degrees, "--field", "gf:5", "--trials", trials]
        code, output = invoke(argv + ["--reduce"] * reduce)
        assert (code, output) == (3, "")
        assert capsys.readouterr().err == (
            f"resource budget exceeded: {n_vars} variables exceed the exact-kernel"
            " budget of 8 (pass a larger max_variables to override)\n"
        )


def _sparse_instance(d):
    """The sparse (2, d) instance over GF(32003): f1 = z1 + ... + z_d +
    z_{d+2} + z1^2, f2 = z_{d+1} + z_{d+2}^(d-2) + z1^d.  Its tail part
    z_{d+2}^(d-2) restricts to a dense power of a d-term linear form."""
    from fanoci.polynomials import MultiPoly
    from fanoci.regularity import PointedCI, ambient_variables

    field = FieldSpec.prime(32003)
    names = ambient_variables(d + 2)
    z = [MultiPoly.variable(field, names, n) for n in names]
    f1 = sum(z[:d], z[d + 1]) + z[0] ** 2
    f2 = z[d] + z[d + 1] ** (d - 2) + z[0] ** d
    return PointedCI(DegreeTuple((2, d)), field, (f1, f2))


def test_regcheck_reduce_beyond_the_budget_exit_3_before_any_restriction(
    tmp_path, monkeypatch, capsys
):
    # reduced, (2,10) leaves 8 forms in M - 1 = 9 variables
    def no_restriction(*args):
        raise AssertionError("restricted before the budget check")

    path = tmp_path / "ci.json"
    path.write_text(json.dumps(_sparse_instance(10).to_json()))
    monkeypatch.setattr("fanoci.regularity.restrict_to_graph", no_restriction)
    code, output = invoke(["regcheck", "--input", str(path), "--reduce"])
    assert (code, output) == (3, "")
    assert capsys.readouterr().err == (
        "resource budget exceeded: 9 variables exceed the exact-kernel budget of 8"
        " (pass a larger max_variables to override)\n"
    )


def test_regcheck_reduce_probabilistic_stops_restricting_at_a_zero_member(
    tmp_path, monkeypatch
):
    # reduced, the (2,20) check is irregular at prefix 2, where the zero part
    # (2,2) ends the prefix loop; the part z22^18 after it is never read, so
    # it must not be restricted (it becomes a dense power of a 20-term form)
    import fanoci.regularity as regularity

    restrict = regularity.restrict_to_graph

    def spy(polys, kept, images):
        if any(g.total_degree() > 2 for g in polys):
            raise AssertionError("restricted a member after the first zero one")
        return restrict(polys, kept, images)

    path = tmp_path / "ci.json"
    path.write_text(json.dumps(_sparse_instance(20).to_json()))
    monkeypatch.setattr(regularity, "restrict_to_graph", spy)
    code, output = invoke(
        ["regcheck", "--input", str(path), "--reduce", "--mode", "probabilistic",
         "--samples", "2", "--format", "text"]
    )
    assert code == 1
    assert output.splitlines()[1:] == [
        f"  sample {i}: irregular trace=[1, 1] failing_prefix=2" for i in range(2)
    ]


def _with_coefficients(data, convert):
    for equation in data["equations"]:
        for term in equation["terms"]:
            term["coeff"] = convert(term["coeff"])
    return data


def test_regcheck_integer_coefficients_over_the_rationals(tmp_path):
    from fanoci.polynomials import MultiPoly
    from fanoci.regularity import PointedCI, ambient_variables

    Q = FieldSpec.rationals()
    names = ambient_variables(5)
    v = {n: MultiPoly.variable(Q, names, n) for n in names}
    ci = PointedCI(
        DegreeTuple((2, 3)), Q, (v["z1"] - 2 * v["z4"] ** 2, v["z2"] + 3 * v["z5"] ** 3)
    )
    outputs = []
    for convert in (str, int):
        path = tmp_path / f"ci_{convert.__name__}.json"
        path.write_text(json.dumps(_with_coefficients(ci.to_json(), convert)))
        outputs.append(invoke(["regcheck", "--input", str(path), "--samples", "1"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1)


@pytest.mark.parametrize("bad", [2.5, True, None, [1]])
def test_regcheck_non_integer_coefficient_exit_2(tmp_path, bad):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1)
    data = ci.to_json()
    data["equations"][0]["terms"][0]["coeff"] = bad
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1"])
    assert code == 2
    assert output == ""


@pytest.mark.parametrize("tag", ["gf:5", "rational"])
@pytest.mark.parametrize("bad", ["1_0", "٣", " 3 ", "+3", "0.5", "1e3"])
def test_regcheck_coefficient_outside_the_grammar_exit_2(tmp_path, tag, bad):
    # int() and Fraction() take all of these; "1_0" over gf:5 would be 10 = 0,
    # and its term would silently vanish
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(5), seed=1)
    data = ci.to_json()
    data["field"] = tag
    for equation in data["equations"]:
        equation["field"] = tag
    data["equations"][0]["terms"][0]["coeff"] = bad
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1"])
    assert (code, output) == (2, "")


# sha256 of the stdout of `regcheck --reduce` and of `randomci --reduce` on
# small seeded instances over GF(101): the instance draws, the sampled
# forms and the restriction to their common zeros all feed them.
PINNED_REDUCED_OUTPUTS = {
    (2, 4): (
        "25f8cadbac702e5c8696ef412ce7f1f4f3420a6912e4738d803a950128118630",
        "75bee3b14990deabcc2b60c8d086b274967bc4c913265903b945f9bc6e1fe473",
    ),
    (3, 3): (
        "25f8cadbac702e5c8696ef412ce7f1f4f3420a6912e4738d803a950128118630",
        "28e3babe3af1f8b1b810bfc3a61ddea7fdfdc0feec7f01f433664ca1425c4b98",
    ),
    (2, 2, 3): (
        "35624295dcf5f2bfe0a8b9dcc5dd7e74d35c51170ba0f4b7da8c4f3ab588a7b2",
        "5da17343e016c79d230308457a7b72005ec42746a5696301eb44231899dac18c",
    ),
}


@pytest.mark.parametrize("degrees", list(PINNED_REDUCED_OUTPUTS))
def test_reduced_outputs_pinned(tmp_path, degrees):
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(101), seed=3)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    runs = [
        ["regcheck", "--input", str(path), "--reduce", "--samples", "3", "--seed", "1"],
        [
            "randomci", "--degrees", ",".join(map(str, degrees)), "--field", "gf:101",
            "--trials", "4", "--samples", "2", "--seed", "2", "--reduce",
        ],
    ]
    digests = []
    for argv in runs:
        code, output = invoke(argv)
        assert code == 0
        digests.append(hashlib.sha256(output.encode()).hexdigest())
    assert tuple(digests) == PINNED_REDUCED_OUTPUTS[degrees]


# exit code and sha256 of the stdout of `regcheck` and of `randomci` without
# `--reduce` on seeded instances over GF(2), GF(3) and GF(101), as
# (regcheck --samples 3, randomci, default regcheck in text, default
# regcheck in json); the default regcheck draws 8 forms.  Their exact
# checks are decided on the reduced sequence and traced by the uncut
# prefix loop where that is irregular; the bytes are those of the uncut
# engine.  Over GF(3) the 3-form regcheck is irregular for two of its three
# sampled forms (trace [1, 2, 3, 3], failing prefix 4) and the randomci run
# counts one irregular trial; over GF(2) the 8-form regcheck is irregular
# for five of them (trace [1, 2, 3, 4, 4], failing prefix 5).
PINNED_UNREDUCED_OUTPUTS = {
    (3, (2, 3), 9): (
        (1, "883f2732723123da53657cb03e30255a9042d9c7de0ad10d2a87df5f329a9fdd"),
        (0, "3a1a0cb5085d2059abc1cc368d3c68cf657a15f55e713d2ab7d1a17e47243faf"),
        (1, "3e9c67dc1675ecacf84e8639ef67a71e47c72500494c04d467a80351c3986e7b"),
        (1, "fc013dbc53b8890def55bddcf5f65a1a6c1af29d7db27359b113b2e7a1f8273f"),
    ),
    (101, (3, 3), 3): (
        (0, "34132cf2343604f4508b1868a117490f2f0dd269dd6685de468eed9d2d19ef87"),
        (0, "86bc801332975b979f8770b3a2be02c911fae0b55b1c36126f5d1c551e034d23"),
        (0, "a24363bff26d99371927e56d0c1373b8758f64ce7a402b81b2d306b11acf862f"),
        (0, "a705a9b35097ca576b8dc9b57d86541d222911481af99e244059284eafd6e0d2"),
    ),
    (101, (2, 2, 3), 3): (
        (0, "903a6016bd2dffe61e83d88fcafaf3e5b617f0f3ea06e9b2b3dc2416be31e708"),
        (0, "cb716f4fc4becdc0c035c703e9a3653ddfea1b2eb7ec4c47eface0e7db30abd1"),
        (0, "90e5df17a5afe4df7f1b070345ccfce92bf3ba97d3a3d9f37864f1fd755ba90d"),
        (0, "74ab65db1aadfb7d849e1c676184c7a20fe62c4adf15015c257fe9d3d82d7a2f"),
    ),
    (2, (3, 3), 10): (
        (0, "b521538fa96c723cb2f70f173b9a65ba9c314925f561b06ede196c9f9171a45c"),
        (0, "fae7ef2ab29ad658def084604cb111ac653db50517b88ec084802025121c5b20"),
        (1, "b0c1ce8b85e5d63b8cac32db2ab89e60359d3bce755e9304340b31759a256808"),
        (1, "9f029bb39836150e50f61a31352c45ee884a1fe5802b09d8245d2f5ebcaba0ab"),
    ),
}


@pytest.mark.parametrize("p, degrees, seed", list(PINNED_UNREDUCED_OUTPUTS))
def test_unreduced_outputs_pinned(tmp_path, p, degrees, seed):
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(p), seed=seed)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    runs = [
        ["regcheck", "--input", str(path), "--samples", "3", "--seed", "1"],
        [
            "randomci", "--degrees", ",".join(map(str, degrees)), "--field", f"gf:{p}",
            "--trials", "12", "--samples", "2", "--seed", "3",
        ],
        ["regcheck", "--input", str(path), "--format", "text"],
        ["regcheck", "--input", str(path)],
    ]
    results = []
    for argv in runs:
        code, output = invoke(argv)
        results.append((code, hashlib.sha256(output.encode()).hexdigest()))
    assert tuple(results) == PINNED_UNREDUCED_OUTPUTS[(p, degrees, seed)]


# exit code and sha256 of the stdout of the unreduced exact `regcheck
# --samples 4`, in json and in text, on seeded instances over GF(2) and
# GF(3) with both regular and irregular samples.  An irregular sample's
# trace and failing prefix come from the unreduced sequence; (2,4) and (3,3)
# share the ambient space, so over GF(3) their reports coincide.
PINNED_IRREGULAR_OUTPUTS = {
    (2, (2, 2, 2), 0): (
        (1, "d78c8da5cf0061400eac1172570fd70802413f4b65ee2322c227ed536b79d3f8"),
        (1, "7903161d9c1383c3166a72d1834cefaf5a5a2149466ac7797bf5f4bc8ec198bb"),
    ),
    (2, (2, 4), 0): (
        (1, "5173b2452f9f9c5903f8be54cb5f8c0bcf660e1e32eba9439298028a3da908cf"),
        (1, "041601b798b31f072f60bf9baa55861b8fddb07d48cbf005b15bebc92567c2f6"),
    ),
    (2, (3, 3), 8): (
        (1, "014a66134d01e5ae7c15ae137e124e53a0f49c7d806dee2d36d491723c84e13f"),
        (1, "e66458f044d0aa26855f15eda1ada277986873349ecdb7303fca2c8fd9a6bdf6"),
    ),
    (3, (2, 2, 2), 9): (
        (1, "1ce51b6eff8022a46f341f48706ff5cd7ea1927721d890de36b049941cf7a27a"),
        (1, "e66458f044d0aa26855f15eda1ada277986873349ecdb7303fca2c8fd9a6bdf6"),
    ),
    (3, (2, 4), 18): (
        (1, "8b59b5fe466f51589e35656e108ed76f271769748cb9dfe796073fa561c5f236"),
        (1, "0b859439655fabf36aba473a076699f7866659e2feb7179667d1349bf45e2db1"),
    ),
    (3, (3, 3), 14): (
        (1, "8b59b5fe466f51589e35656e108ed76f271769748cb9dfe796073fa561c5f236"),
        (1, "0b859439655fabf36aba473a076699f7866659e2feb7179667d1349bf45e2db1"),
    ),
}


@pytest.mark.parametrize("p, degrees, seed", list(PINNED_IRREGULAR_OUTPUTS))
def test_unreduced_irregular_outputs_pinned(tmp_path, p, degrees, seed):
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(p), seed=seed)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    results, outputs = [], {}
    for fmt in ("json", "text"):
        code, outputs[fmt] = invoke(
            ["regcheck", "--input", str(path), "--samples", "4", "--format", fmt]
        )
        results.append((code, hashlib.sha256(outputs[fmt].encode()).hexdigest()))
    assert tuple(results) == PINNED_IRREGULAR_OUTPUTS[(p, degrees, seed)]
    verdicts = {r["verdict"] for r in json.loads(outputs["json"])["reports"]}
    assert verdicts == {"regular", "irregular"}


# sha256 of the stdout of `regcheck --mode probabilistic` on seeded instances
# over GF(2), where the slicing oracle is blind often enough that its traces
# change with the number of trials (5) and the seed (j at prefix j) that
# is_regular_sequence gives it.
PINNED_PROBABILISTIC_OUTPUTS = {
    ((2, 4), 1): "89e29532b77b7108e80dea4ba755662b8edd66179f3514048a5a989a7e0d2da3",
    ((3, 3), 4): "95803384fad2ad693c1c785fe41b65a68f4e72ef40da1ab5b0c96fc03948286e",
}


@pytest.mark.parametrize("degrees, seed", list(PINNED_PROBABILISTIC_OUTPUTS))
def test_probabilistic_outputs_pinned(tmp_path, degrees, seed):
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(2), seed=seed)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        [
            "regcheck", "--input", str(path), "--mode", "probabilistic",
            "--samples", "8", "--seed", "1",
        ]
    )
    assert code == 1
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == PINNED_PROBABILISTIC_OUTPUTS[(degrees, seed)]


# sha256 of the stdout of `regcheck --mode probabilistic --reduce` on seeded
# instances: each form's reduced sequence, restricted through the graph of
# T_oV and of one hyperplane, goes to the slicing oracle, which restricts it
# once more to the graph of its slicing rows.  All three exit 1: over GF(2)
# the oracle is blind often enough that some traces stop at [1, 1], and
# over GF(3) one of the eight (3,4) traces is [1, 2, 2].
PINNED_REDUCED_PROBABILISTIC_OUTPUTS = {
    (2, (2, 4), 1): "16aa11536430fe7d142ad5ff17b88458bcabe2051bd6741ca7cd73de7894d322",
    (2, (3, 3), 4): "4b54a326b134a1a90ae9ab0613607c47e26b78667d508c82b4db67b4e57291d0",
    (3, (3, 4), 2): "ddff7847b3ed2b3885d65281bfdc16fc59f575ee166dde61fd1e717f73ecb71c",
}


@pytest.mark.parametrize("p, degrees, seed", list(PINNED_REDUCED_PROBABILISTIC_OUTPUTS))
def test_reduced_probabilistic_outputs_pinned(tmp_path, p, degrees, seed):
    ci = random_complete_intersection(DegreeTuple(degrees), FieldSpec.prime(p), seed=seed)
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci.to_json()))
    code, output = invoke(
        [
            "regcheck", "--input", str(path), "--mode", "probabilistic",
            "--samples", "8", "--seed", "1", "--reduce",
        ]
    )
    assert code == 1
    digest = hashlib.sha256(output.encode()).hexdigest()
    assert digest == PINNED_REDUCED_PROBABILISTIC_OUTPUTS[(p, degrees, seed)]


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_regcheck_non_integer_exponent_exit_2(tmp_path, bad):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1)
    # a decoded copy: ``to_json`` gives each exponent vector as its stored tuple
    data = json.loads(json.dumps(ci.to_json()))
    data["equations"][0]["terms"][0]["exponents"][0] = bad
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1"])
    assert code == 2
    assert output == ""


def test_regcheck_duplicate_terms_exit_2(tmp_path, capsys):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1)
    data = ci.to_json()
    terms = data["equations"][1]["terms"]
    terms.append(dict(terms[0]))  # the same exponents once more
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1", "--reduce"])
    assert code == 2
    assert output == ""
    assert "duplicate term" in capsys.readouterr().err


def test_parser_is_built_once_and_still_rejects_bad_flags(capsys):
    assert build_parser() is build_parser()
    first = invoke(["classify", "--degrees", "2,3", "--format", "text"])
    with pytest.raises(SystemExit) as exit_info:
        run(["regcheck", "--bogus"])
    assert exit_info.value.code == 2
    assert "usage: fanoci regcheck" in capsys.readouterr().err
    # a rejected command leaves nothing behind for the next one
    assert invoke(["classify", "--degrees", "2,3", "--format", "text"]) == first
    assert first[0] == 0


def test_regcheck_string_variables_exit_2(tmp_path):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1)
    data = ci.to_json()
    for equation in data["equations"]:
        equation["variables"] = "abcde"  # as many characters as variables
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1"])
    assert code == 2
    assert output == ""


@pytest.mark.parametrize(
    "mode",
    [[], ["--reduce"], ["--mode", "probabilistic"]],
    ids=["exact", "reduce", "probabilistic"],
)
def test_regcheck_equations_over_different_variables_exit_2(tmp_path, capsys, mode):
    ci = random_complete_intersection(DegreeTuple((2, 3)), FieldSpec.prime(7), seed=1)
    data = ci.to_json()
    data["equations"][1]["variables"] = ["a", "b", "c", "d", "e"]
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(data))
    code, output = invoke(["regcheck", "--input", str(path), "--samples", "1", *mode])
    assert (code, output) == (2, "")
    assert "share one variable list" in capsys.readouterr().err


def test_degrees_out_of_order_give_one_notice_line_per_run(capsys):
    # the sorting notice is a plain stderr line on every run, even where
    # warnings are errors, and stdout is that of the sorted degrees
    code, expected = invoke(["classify", "--degrees", "2,3"])
    assert code == 0 and capsys.readouterr().err == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            code, output = invoke(["classify", "--degrees", "3,2"])
            assert code == 0 and output == expected
            assert capsys.readouterr().err == (
                "notice: degrees [3, 2] were not nondecreasing; sorted to [2, 3]\n"
            )
