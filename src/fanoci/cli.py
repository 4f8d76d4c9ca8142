"""Command-line front end.

Subcommands: classify, enumerate, remark1, audit, regcheck, randomci.
Reports are emitted to stdout in json (canonical: sorted keys, "num/den"
rationals, never floats), csv, or text.  Exit codes: 0 success / audit
pass / regular verdict, 1 failed check, 2 argument or input-file problem,
3 exceeded resource budget, 141 stdout closed by its reader (``| head``).

Runs are bit-reproducible: the same invocation (including --seed) writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .dimension import EXACT, PROBABILISTIC
from .errors import InputError, ResourceBudgetError
from .families import (
    GENERICITY_CAVEAT,
    DegreeTuple,
    FamilyCertificate,
    enumerate_families,
    remark_families,
    theorem_applicability,
)
from .fields import FieldSpec
from .proof_audit import FAIL, AuditSummary, audit_records, audit_summary, iter_json
from .rationals import format_rational
from .regularity import (
    PointedCI,
    check_budget,
    random_complete_intersection,
    sampled_regularity_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _parse_degrees(text: str) -> DegreeTuple:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad degree list {text!r}") from exc
    ordered = sorted(values)
    degrees = DegreeTuple(tuple(ordered))
    if ordered != values:
        notice = f"degrees {values} were not nondecreasing; sorted to {ordered}"
        print(f"notice: {notice}", file=sys.stderr)
    return degrees


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _emit_certificates(certs: List[FamilyCertificate], fmt: str, out) -> None:
    if fmt == "json":
        print(_dump_json([c.to_json() for c in certs]), file=out)
    elif fmt == "csv":
        print(FamilyCertificate.CSV_HEADER, file=out)
        for cert in certs:
            print(cert.to_csv_row(), file=out)
    else:
        for cert in certs:
            d = cert.degrees
            print(
                f"{d}: k={d.k} M={d.M} ambient={d.ambient}"
                f" t3={str(cert.t3).lower()} t4={cert.t4_case}"
                f" t5={str(cert.t5).lower()} t6={cert.t6_case}"
                f" ct={cert.ct_conclusion} ratio="
                f"{format_rational(cert.hypertangent_ratio)}"
                f" ke={cert.ke_metric} direct_factor={cert.direct_factor}",
                file=out,
            )
            print(f"  note: {GENERICITY_CAVEAT}", file=out)


def _cmd_classify(args, out) -> int:
    cert = theorem_applicability(_parse_degrees(args.degrees))
    _emit_certificates([cert], args.format, out)
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    tuples = enumerate_families(
        ambient=args.ambient,
        k=args.k,
        d_max=args.d_max,
        filter_spec=args.filter,
    )
    certs = [theorem_applicability(t) for t in tuples]
    _emit_certificates(certs, args.format, out)
    return EXIT_OK


def _cmd_remark1(args, out) -> int:
    certs = [theorem_applicability(t) for t in remark_families()]
    _emit_certificates(certs, args.format, out)
    return EXIT_OK


def _cmd_audit(args, out) -> int:
    box = (args.k_max, args.m_max)
    tuple_box = {"tuple_k_max": args.tuple_k_max, "tuple_M_max": args.tuple_m_max}
    if args.format == "text":
        # the text only counts records, so a passing tail block is counted whole
        summary = audit_summary(*box, **tuple_box)
        print(f"records: {sum(summary.verdicts.values())}", file=out)
        for verdict in sorted(summary.verdicts):
            print(f"  {verdict}: {summary.verdicts[verdict]}", file=out)
        for note in summary.discrepancy_notes:
            print(f"discrepancy: {note}", file=out)
        print(f"aggregate: {'FAIL' if FAIL in summary.verdicts else 'PASS'}", file=out)
    else:
        summary = AuditSummary()
        records = summary.watch(audit_records(*box, **tuple_box))
        if args.format == "json":
            for piece in iter_json(records):
                out.write(piece)
            out.write("\n")
        else:
            print("check,params,lhs,rhs,verdict,note", file=out)
            for record in records:
                params = ";".join(f"{k}={v}" for k, v in sorted(record.params.items()))
                note = record.note.replace('"', "'")
                print(
                    f'{record.check},"{params}",{format_rational(record.lhs)},'
                    f'{format_rational(record.rhs)},{record.verdict},"{note}"',
                    file=out,
                )
    return EXIT_CHECK_FAILED if FAIL in summary.verdicts else EXIT_OK


def _cmd_regcheck(args, out) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, bad JSON, an integer past the digit
        # limit, or JSON nested past the recursion limit
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    ci = PointedCI.from_json(data)
    report = sampled_regularity_check(
        ci,
        samples=args.samples,
        seed=args.seed,
        reduce=args.reduce,
        kernel=PROBABILISTIC if args.mode == "probabilistic" else EXACT,
    )
    if args.format == "json":
        print(_dump_json(report.to_json()), file=out)
    else:
        print(f"verdict: {report.verdict} (over {report.samples} sampled forms)", file=out)
        for i, rep in enumerate(report.reports):
            print(
                f"  sample {i}: {rep.verdict} trace={list(rep.trace)}"
                + (f" failing_prefix={rep.failing_prefix}" if rep.failing_prefix else ""),
                file=out,
            )
    return EXIT_OK if report.is_regular else EXIT_CHECK_FAILED


def _cmd_randomci(args, out) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    degrees = _parse_degrees(args.degrees)
    field = FieldSpec.from_json_tag(args.field)
    # drawing an instance lists every monomial of each degree, which can
    # exhaust memory long before the check would refuse it: refuse a box
    # beyond the kernel's budget first
    check_budget(degrees, args.reduce)
    stats = {"trials": args.trials, "smooth": 0, "singular": 0, "regular": 0, "irregular": 0}
    for trial in range(args.trials):
        ci = random_complete_intersection(degrees, field, seed=args.seed + trial)
        if not ci.is_smooth_at_origin:
            stats["singular"] += 1
            continue
        stats["smooth"] += 1
        report = sampled_regularity_check(
            ci, samples=args.samples, seed=args.seed + trial, reduce=args.reduce
        )
        stats["regular" if report.is_regular else "irregular"] += 1
    payload = {
        "degrees": list(degrees.degrees),
        "field": field.json_tag,
        "seed": args.seed,
        "samples_per_instance": args.samples,
        **stats,
        "pass_rate": format_rational(
            Fraction(stats["regular"], args.trials) if args.trials else Fraction(0)
        ),
    }
    if args.format == "json":
        print(_dump_json(payload), file=out)
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="fanoci",
        description=(
            "Exact classification of Fano complete-intersection families,"
            " inequality auditing, and regular-sequence checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="certificate for one degree tuple")
    classify.add_argument("--degrees", required=True, help="comma separated, e.g. 2,5,5,5,7")
    classify.add_argument("--format", choices=("json", "csv", "text"), default="json")

    enum = sub.add_parser("enumerate", help="list degree tuples in a box")
    enum.add_argument("--ambient", type=int, required=True, help="sum of the degrees")
    enum.add_argument("--k", type=int, default=None, help="restrict the codimension")
    enum.add_argument("--d-max", type=int, default=None, help="cap on each degree")
    enum.add_argument(
        "--filter",
        default=None,
        help=(
            "certificate filter: t3|t4|t5|t6 (optionally with :i/:ii/:iii), ke,"
            " or STRONG-not-WEAK; 't6-not-t4' is the catalogued novelty filter"
            " (t6 case ii outside t4), 't6:any-not-t4' the unrestricted one"
        ),
    )
    enum.add_argument("--format", choices=("json", "csv", "text"), default="json")

    remark = sub.add_parser("remark1", help="the fixed 7-family novelty catalogue")
    remark.add_argument("--format", choices=("json", "csv", "text"), default="json")

    audit = sub.add_parser("audit", help="run the full inequality audit")
    audit.add_argument("--k-max", type=int, default=30)
    audit.add_argument("--m-max", type=int, default=200)
    audit.add_argument("--tuple-k-max", type=int, default=5)
    audit.add_argument("--tuple-m-max", type=int, default=60)
    audit.add_argument("--format", choices=("json", "csv", "text"), default="json")

    reg = sub.add_parser("regcheck", help="regularity of a complete intersection at 0")
    reg.add_argument("--input", required=True, help="PointedCI JSON file")
    reg.add_argument("--mode", choices=("exact", "probabilistic"), default="exact")
    reg.add_argument("--samples", type=int, default=8, help="sampled linear forms")
    reg.add_argument("--seed", type=int, default=0)
    reg.add_argument("--reduce", action="store_true", help="eliminate the linear members first")
    reg.add_argument("--format", choices=("json", "text"), default="json")

    rand = sub.add_parser("randomci", help="regularity statistics over random instances")
    rand.add_argument("--degrees", required=True)
    rand.add_argument("--field", required=True, help="gf:<p>")
    rand.add_argument("--trials", type=int, default=20)
    rand.add_argument("--samples", type=int, default=8)
    rand.add_argument("--seed", type=int, default=0)
    rand.add_argument("--reduce", action="store_true")
    rand.add_argument("--format", choices=("json", "text"), default="json")

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
    "remark1": _cmd_remark1,
    "audit": _cmd_audit,
    "regcheck": _cmd_regcheck,
    "randomci": _cmd_randomci,
}


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Parse arguments and execute; returns the exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)  # exits with code 2 + usage on bad flags
    try:
        return _HANDLERS[args.command](args, out)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: devnull takes the flush at exit (``signal`` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
