"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import io
import json
import time
from fractions import Fraction
from random import Random

from fanoci.cli import run
from fanoci.dimension import codim_probabilistic, projective_codim
from fanoci.families import DegreeTuple, hypertangent_ratio, max_M_for_bound
from fanoci.fields import FieldSpec
from fanoci.polynomials import MultiPoly, random_poly
from fanoci.proof_audit import audit_range
from fanoci.regularity import (
    PointedCI,
    ambient_variables,
    random_complete_intersection,
    regularity_check,
    sampled_regularity_check,
)

Q = FieldSpec.rationals()

REMARK_TUPLES = [
    [2, 3, 6, 6, 7],
    [2, 4, 5, 6, 7],
    [2, 5, 5, 5, 7],
    [3, 3, 5, 6, 7],
    [3, 4, 4, 6, 7],
    [3, 4, 5, 5, 7],
    [4, 4, 4, 5, 7],
]


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_remark_reproduction():
    buffer = io.StringIO()
    start = time.time()
    code = run(
        ["enumerate", "--ambient", "24", "--filter", "t6-not-t4", "--format", "json"],
        out=buffer,
    )
    elapsed = time.time() - start
    payload = json.loads(buffer.getvalue())
    degrees = [entry["degrees"] for entry in payload]
    ok = (
        code == 0
        and degrees == REMARK_TUPLES
        and degrees == sorted(degrees)
        and elapsed < 1.0
    )
    _verdict(1, f"novelty catalogue: 7 tuples in ambient 24 ({elapsed:.2f}s)", ok)


def test_criterion_2_m_cap_rederivation():
    cap_i = max_M_for_bound(Fraction(49, 48))
    cap_ii = max_M_for_bound(Fraction(21, 20))
    cap_iii = max_M_for_bound(Fraction(27, 25))
    ok = (
        cap_i == 47
        and cap_ii == 19
        and cap_iii == 12
        and DegreeTuple((6, 6)).M == 10 <= cap_iii
    )
    _verdict(2, f"M caps 47/19 rederived exactly; case-(iii) M=10 <= {cap_iii}", ok)


def test_criterion_3_threshold_8_boundary():
    ok = True
    exact_ones = []
    for dk in range(2, 101):
        candidates = [(2, dk, dk)]
        if dk >= 3:
            candidates.append((2, dk - 1, dk))
        for raw in candidates:
            degrees = tuple(sorted(raw))
            dt = DegreeTuple(degrees)
            if dt.degrees[-1] != dk:
                continue
            ratio = hypertangent_ratio(dt)
            product = (
                Fraction(3, 4)
                * Fraction(dk, dk - 1)
                * Fraction(dt.d_plus, dt.d_plus - 1)
            )
            ok = ok and (ratio > 1) == (dk <= 7)
            if dk == 7:
                ok = ok and ratio > 1
            if product == 1:
                exact_ones.append((dk, dt.d_plus))
    ok = ok and exact_ones == [(8, 7)]
    ok = ok and hypertangent_ratio(DegreeTuple((2, 7, 8))) == 1
    _verdict(3, "ratio = 1 exactly at (d_k, d+) = (8, 7); > 1 whenever d_k = 7", ok)


def test_criterion_4_full_audit():
    start = time.time()
    report = audit_range(30, 200, tuple_k_max=5, tuple_M_max=60)
    elapsed = time.time() - start
    ok = (
        report.aggregate_pass
        and len(report.failures) == 0
        and elapsed < 60.0
        and len(report.discrepancy_notes) > 0  # annotations emitted
    )
    _verdict(
        4,
        f"audit k<=30, M<=200: {len(report.records)} checks, 0 failures,"
        f" {len(report.discrepancy_notes)} discrepancy annotations ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_tight_case_exactness():
    from fanoci.proof_audit import optimize_square_sum

    result = optimize_square_sum(2, 10, 2)
    ok = (
        result.integer_min == 50
        and result.relaxation_bound == Fraction(50)
        and result.integer_min == result.relaxation_bound
        and isinstance(result.relaxation_bound, Fraction)
        and not isinstance(result.relaxation_bound, float)
    )
    _verdict(5, "square-sum shift-2 minimum 50 equals the bound, exactly", ok)


def test_criterion_6_oracle_equivalence():
    F5 = FieldSpec.prime(5)
    rng = Random(0)
    total = 50
    agreements = 0
    disagreements = []
    for case in range(total):
        n_vars = rng.choice([3, 4])
        n_gens = rng.choice([1, 2, 3])
        variables = tuple(f"x{i}" for i in range(1, n_vars + 1))
        gens = []
        for _ in range(n_gens):
            poly = random_poly(
                rng.choice([1, 2, 3]),
                variables,
                F5,
                homogeneous=True,
                seed=rng.getrandbits(63),
            )
            while poly.is_zero():
                poly = random_poly(
                    rng.choice([1, 2, 3]),
                    variables,
                    F5,
                    homogeneous=True,
                    seed=rng.getrandbits(63),
                )
            gens.append(poly)
        exact = projective_codim(gens).codimension
        probabilistic = codim_probabilistic(
            gens, trials=3, seed=case, extension_degree=1
        ).codimension
        if exact == probabilistic:
            agreements += 1
        else:
            disagreements.append((case, gens, exact))
    resolved = all(
        codim_probabilistic(gens, trials=3, seed=case, extension_degree=2).codimension
        == exact
        for case, gens, exact in disagreements
    )
    ok = agreements >= int(0.95 * total) and resolved
    _verdict(
        6,
        f"oracle agreement {agreements}/{total} over GF(5);"
        f" {len(disagreements)} disagreement(s) resolved over GF(25)",
        ok,
    )


def test_criterion_7_worked_instances():
    names4 = ambient_variables(4)
    v4 = {n: MultiPoly.variable(Q, names4, n) for n in names4}
    ci1 = PointedCI(
        DegreeTuple((2, 2)), Q, (v4["z3"] + v4["z1"] ** 2, v4["z4"] + v4["z2"] ** 2)
    )
    r1 = regularity_check(ci1, v4["z1"])

    names5 = ambient_variables(5)
    v5 = {n: MultiPoly.variable(Q, names5, n) for n in names5}
    ci2 = PointedCI(
        DegreeTuple((2, 3)), Q, (v5["z4"] + v5["z1"] ** 2, v5["z5"] + v5["z2"] ** 3)
    )
    r2 = regularity_check(ci2, v5["z1"])
    ci3 = PointedCI(
        DegreeTuple((2, 3)), Q, (v5["z4"] + v5["z2"] ** 2, v5["z5"] + v5["z2"] ** 3)
    )
    r3 = regularity_check(ci3, v5["z1"])

    ok = (
        r1.verdict == "regular"
        and r1.trace == (1, 2, 3)
        and r2.verdict == "irregular"
        and r2.failing_prefix == 3
        and r2.trace == (1, 2, 2)
        and r3.verdict == "regular"
        and r3.trace == (1, 2, 3, 4)
    )
    _verdict(7, "worked regularity instances give the stated verdicts and traces", ok)


def test_criterion_8_genericity_evidence():
    F101 = FieldSpec.prime(101)
    degrees = DegreeTuple((2, 3))
    passes = 0
    for seed in range(100):
        ci = random_complete_intersection(degrees, F101, seed=seed)
        if not ci.is_smooth_at_origin:
            continue
        report = sampled_regularity_check(ci, samples=8, seed=seed)
        passes += report.is_regular
    ok = passes >= 95
    _verdict(
        8,
        f"sampled regularity holds on {passes}/100 random (2,3) instances over GF(101)",
        ok,
    )
