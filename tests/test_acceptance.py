"""Acceptance suite: every criterion at its stated range, exact equality only.

Each test prints one pass line (visible with ``pytest -s`` or on failure);
tolerances are zero everywhere, so every check is a plain ``==`` on
Fractions, polynomials, and field elements.  Criteria 2-8 and 10 run the
case grids of :mod:`qmzv.verify`, the same cases ``qmzv verify`` runs.
"""

import random
from fractions import Fraction

from qmzv.cyclo import cyclo_ctx, cyclotomic_poly, product_one_minus_powers
from qmzv.exactnum import UniPoly, det_fraction_free, det_hessenberg
from qmzv.qstirling import SymbolicQ, stirling1, stirling1_closed, stirling2, stirling2_iterated
from qmzv.seqlib import bell_complete, bell_partition_sum
from qmzv.verify import CASES, random_sequence, run_case, suite_cases, transform_round_trip
from qmzv.zeta import _zeta_multi, zeta_brute, zeta_m1_closed

F = Fraction


def _report(number, label):
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def _assert_cases_pass(cases):
    for case in cases:
        res = run_case(case)
        assert res.passed, (case[0], res.first_failure())


def test_criterion_01_single_level_binomial_row():
    for n in range(2, 26):
        for m in range(0, n):
            assert _zeta_multi(n, m, 1) == zeta_m1_closed(n, m), (n, m)
    for n in range(2, 13):
        for m in range(0, n):
            assert zeta_brute(n, m, 1).value == zeta_m1_closed(n, m), (n, m)
    _report(1, "Z(zeta; m, 1) = C(n-1, m)/(m+1), n <= 25, brute-checked n <= 12")


def test_criterion_02_level_two_closed_form():
    _assert_cases_pass(suite_cases("s2", n_max=25, m_max=12))
    _report(2, "s = 2 closed form + both r-Stirling variants, n <= 25, m <= 12")


def test_criterion_03_level_three_closed_form():
    _assert_cases_pass(suite_cases("s3", n_max=18, m_max=6))
    _report(3, "s = 3 closed form, n <= 18, m <= 6, incl. the degree-8 factor")


def test_criterion_04_single_row_polynomials_and_constants():
    _assert_cases_pass(suite_cases("polynomials"))
    _report(4, "Z(zeta; 1, s) polynomials s = 2..9; constants = +-B_s^(s)/s!")


def test_criterion_05_level_four_displays():
    assert CASES["reference_poly"](1, 4).passed
    assert CASES["reference_poly"](2, 4).passed
    _report(5, "s = 4 displays for m = 1 and m = 2")


def test_criterion_06_degenerate_bernoulli_family():
    _assert_cases_pass(suite_cases("dgber", n_max=20, s_max=8))
    _assert_cases_pass(suite_cases("btt26", n_max=20, s_max=8))
    _report(6, "degenerate-Bernoulli value, in-field link, and decomposition, n <= 20")


def test_criterion_07_determinant_and_bell_routes():
    # budget=0 leaves the brute route out of this grid; brute over the same
    # points is covered by test_zeta::test_route_agreement_sweep.
    _assert_cases_pass(suite_cases("routes", n_max=14, m_max=8, s_max=3, budget=0))
    _report(7, "Bell/determinant/inverse-determinant routes, n <= 14, m <= 8, s <= 3")


def test_criterion_08_orthogonality():
    _assert_cases_pass(suite_cases("orthogonality", n_max=10))
    _report(8, "both orthogonality sums, n, m <= 10, (r, s) in {1,2,3}^2, symbolic and zeta_7")


def test_criterion_09_sequence_transform_equivalences():
    rng = random.Random(2024)
    for trial in range(50):
        res = transform_round_trip(random_sequence(rng))
        assert res.passed, (trial, res.first_failure())
    _report(9, "four forward and two inverse transform routes agree on 50 random sequences; round trip")


def test_criterion_10_log_generating_identity():
    _assert_cases_pass(suite_cases("logf", trunc=12))
    _report(10, "bivariate log identity, s = 1, 2, 3, truncation 12")


def test_criterion_11_stirling_closed_forms():
    sym = SymbolicQ()
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for n in range(r + 1, 11):
                for m in range(r, n):
                    a, b = stirling1_closed(n, m, r, s, sym)
                    want = stirling1(n, m, r, s, sym)
                    assert a == want and b == want, ("first", r, s, n, m)
                for k in range(r + 1, n + 1):
                    a, b = stirling2_iterated(n, k, r, s, sym)
                    want = stirling2(n, k, r, s, sym)
                    assert a == want and b == want, ("second", r, s, n, k)
    _report(11, "subset-sum and iterated-sum closed forms, n <= 10, r, s <= 3, symbolic q")


def test_criterion_12_infrastructure():
    for n in range(1, 41):
        prod = UniPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == UniPoly((-1,) + (0,) * (n - 1) + (1,)), n

    rng = random.Random(9)
    for n in range(2, 31):
        ctx = cyclo_ctx(n)
        for _ in range(4):
            a = ctx.element(
                [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(ctx.degree)]
            )
            if not a.is_zero():
                assert a * a.inverse() == 1, n

    for n in range(2, 41):
        assert product_one_minus_powers(cyclo_ctx(n)) == n, n

    for n in range(0, 11):
        xs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        assert bell_complete(n, xs) == bell_partition_sum(n, xs), n

    for d in range(1, 9):
        for _ in range(4):
            m = [
                [F(rng.randint(-9, 9), rng.randint(1, 9)) if j <= i + 1 else F(0) for j in range(d)]
                for i in range(d)
            ]
            assert det_hessenberg(m) == det_fraction_free(m), d
    _report(12, "cyclotomic, Bell, and determinant infrastructure properties")
