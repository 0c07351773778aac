import json
import sys

import pytest

from qmzv import cli, verify
from qmzv.util import CheckResult

DEFAULT_COUNTS = dict(
    routes=351, orthogonality=18, gtrudi=50, s2=156, s3=69, dgber=152, logf=3, polynomials=25, btt26=266,
)


def test_default_case_counts():
    nones = dict(n_max=None, m_max=None, s_max=None, trunc=None, budget=None)
    for suite, count in DEFAULT_COUNTS.items():
        assert len(verify.suite_cases(suite)) == count, suite
        # a bound given as None keeps the default
        assert verify.suite_cases(suite, **nones) == verify.suite_cases(suite), suite


def test_all_is_every_suite_in_registry_order():
    assert list(verify.SUITES) == list(DEFAULT_COUNTS)
    everything = verify.suite_cases("all")
    assert len(everything) == 1090
    assert everything == [case for name in verify.SUITES for case in verify.suite_cases(name)]


def test_failing_identity_sweep_is_reported(capsys, monkeypatch):
    def broken(r, s, qspec, n_max):
        result = CheckResult(["orthogonality"])
        result.record(True, identity=1, n=0, m=0)
        result.record(False, identity=2, n=1, m=0)
        return result

    monkeypatch.setitem(verify.CASES, "orthogonality", broken)
    code = cli.main(["verify", "orthogonality", "--n-max", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["cases"] == 18 and len(payload["failures"]) == 18
    assert payload["failures"][0] == {
        "case": "orthogonality r=1 s=1 q=root:7",
        "params": {"r": 1, "s": 1, "qspec": "root:7", "n_max": 2},
        "expected": "identity",
        "actual": str({"identity": 2, "n": 1, "m": 0}),
        "routes": ["orthogonality"],
    }


def test_dgber_compares_with_the_product_route_when_brute_does_not_fit(capsys):
    assert verify.CASES["dgber"](n=3, s=2, budget=0).routes == ["degenerate-bernoulli", "product"]
    assert verify.CASES["dgber"](n=3, s=2, budget=2).routes == ["degenerate-bernoulli", "brute"]
    for suite in ("dgber", "all"):
        code = cli.main(["verify", suite, "--n-max", "3", "--budget", "0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["failures"] == [], suite


def test_dgber_fallback_runs_the_product_route(capsys, monkeypatch):
    monkeypatch.setattr(verify.zeta, "_zeta_multi", lambda n, m, s: -1)
    code = cli.main(["verify", "dgber", "--n-max", "3", "--budget", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 and payload["failures"]
    assert all(f["routes"] == ["degenerate-bernoulli", "product"] for f in payload["failures"])


def test_routes_compare_the_multisection_only_where_it_is_bounded(monkeypatch):
    assert "multisection" in verify.CASES["routes"](n=2, m=1, s=3, budget=0).routes

    def no_subsets(s):
        raise AssertionError(f"enumerated the subsets of Z/{s}")

    monkeypatch.setattr(verify.zeta, "_rotation_orbits", no_subsets)
    case = ("routes n=2 m=1 s=18", "routes", {"n": 2, "m": 1, "s": 18, "budget": 0})
    result = verify.run_case(case)
    assert result.passed and "multisection" not in result.routes


def test_routes_compare_the_newton_engine_only_where_it_is_bounded(monkeypatch):
    assert "newton" in verify.CASES["routes"](n=5, m=2, s=3, budget=0).routes

    def no_newton(top, n, s):
        raise AssertionError(f"ran the Newton engine on ({n}, {s})")

    monkeypatch.setitem(verify.zeta.ROW_ENGINES, "newton", no_newton)
    # s > 6 on the complement engine: the Newton engine stays out
    result = verify.CASES["routes"](n=2, m=1, s=200, budget=0)
    assert result.passed and "newton" not in result.routes


@pytest.fixture
def newton_fault(monkeypatch):
    """Plant a fault in one Newton row: ``plant(n, s, m)`` makes entry m of
    the row (n, s) wrong by one wherever a prefix holds it.  The row
    prefixes are emptied before and after, so the row reaches every route
    that reads it and no wrong row outlives the test."""

    def plant(n, s, m):
        real = verify.zeta.ROW_ENGINES["newton"]

        def faulty(top, nn, ss):
            row = real(top, nn, ss)
            if (nn, ss) == (n, s) and m < len(row):
                row = row[:m] + (row[m] + 1,) + row[m + 1 :]
            return row

        monkeypatch.setitem(verify.zeta.ROW_ENGINES, "newton", faulty)

    verify.seqlib._slot.cache_clear()
    yield plant
    verify.seqlib._slot.cache_clear()


def test_a_planted_newton_fault_fails_verify_routes(capsys, newton_fault):
    newton_fault(9, 2, 3)
    argv = ["verify", "routes", "--n-max", "10", "--m-max", "4", "--s-max", "3", "--budget", "0"]
    code = cli.main(argv + ["--format", "json"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 4
    assert all(" n=9 " in f["case"] and f["case"].endswith(" s=2") for f in failures)
    routes = [f for f in failures if f["case"] == "routes n=9 m=3 s=2"]
    assert routes and routes[0]["actual"].startswith("newton=")


def test_a_planted_newton_fault_fails_criterion_7(newton_fault):
    # the grid of test_acceptance::test_criterion_07_determinant_and_bell_routes
    newton_fault(13, 3, 8)
    cases = verify.suite_cases("routes", n_max=14, m_max=8, s_max=3, budget=0)
    failed = [case[0] for case in cases if not verify.run_case(case).passed]
    assert "routes n=13 m=8 s=3" in failed
    assert all(label.endswith(" n=13 m=8 s=3") for label in failed)


def test_single_index_reference_is_labelled_as_such(capsys, monkeypatch):
    assert verify.CASES["row_from_column"](n=3, m=1, s=1).routes == ["row-from-column", "single-index"]
    monkeypatch.setattr(verify.zeta, "zeta_1s_det", lambda n, s: -1)
    code = cli.main(["verify", "routes", "--n-max", "2", "--m-max", "1", "--s-max", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 and payload["failures"]
    assert all(f["routes"] == ["binomial-det", "single-index"] for f in payload["failures"])


def test_a_case_that_raises_is_one_failed_case(capsys, monkeypatch):
    def raising(n, s):
        raise ZeroDivisionError("planted")

    monkeypatch.setitem(verify.CASES, "binomial_det", raising)
    code = cli.main(["verify", "routes", "--n-max", "3", "--m-max", "1", "--s-max", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 and payload["cases"] == 6
    assert [f["case"] for f in payload["failures"]] == ["binomial-det n=2 s=1", "binomial-det n=3 s=1"]
    assert all(f["actual"] == "ZeroDivisionError: planted" for f in payload["failures"])

    def interrupted(n, s):
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.CASES, "binomial_det", interrupted)
    with pytest.raises(KeyboardInterrupt):
        verify.run_case(("binomial-det n=2 s=1", "binomial_det", {"n": 2, "s": 1}))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.10.7")
def test_cases_past_the_int_digit_limit_pass():
    # Z(2; 1, 15000) = 1/2^15000 has 4516 digits, past the interpreter's
    # default limit of 4300 for int -> str, which the reports format
    limit = sys.get_int_max_str_digits()
    for case in (
        ("routes n=2 m=1 s=15000", "routes", {"n": 2, "m": 1, "s": 15000, "budget": 0}),
        ("row-from-column n=2 m=1 s=15000", "row_from_column", {"n": 2, "m": 1, "s": 15000}),
    ):
        result = verify.run_case(case)
        assert (result.cases, result.failures) == (1, []), case
    assert sys.get_int_max_str_digits() == limit


def test_a_planted_power_sum_fault_fails_only_the_routes_that_share_it(capsys, monkeypatch):
    # -p_4(v) at n = 9 off by one: the single-index value Z_9(zeta_9; 1, 4)
    # is wrong, and with it the Bell and det values that read it, while the
    # Newton engine, which reads the same prefix, finds an inexact division;
    # the field reference and every other route stay right
    z = verify.zeta
    real = z._newton_power_sums

    def faulty(top, n):
        q = real(top, n)
        if n == 9 and top >= 4:
            q[4] += 1
        return q

    monkeypatch.setattr(z, "_newton_power_sums", faulty)
    z._zeta_single.cache_clear()
    verify.seqlib._slot.cache_clear()
    try:
        argv = ["verify", "routes", "--n-max", "10", "--m-max", "4", "--s-max", "3", "--budget", "0"]
        code = cli.main(argv + ["--format", "json"])
        failures = json.loads(capsys.readouterr().out)["failures"]
        want = z._zeta_multi(9, 2, 2, z._field_row)
        shared = [z.zeta_bell(9, 2, 2).value, z.zeta_det(9, 2, 2).value]
        apart = [z.zeta_via_stirling(9, 2, 2).value, z.zeta_brute(9, 2, 2).value,
                 z._zeta_multi(9, 2, 2, z._complement_row), z._zeta_multi(9, 2, 2, z._multisection_row)]
    finally:
        z._zeta_single.cache_clear()
        verify.seqlib._slot.cache_clear()
    assert want not in shared and apart == [want] * 4
    assert code == 4
    assert {"routes n=9 m=4 s=1", "row-from-column n=9 m=2 s=2"} <= {f["case"] for f in failures}
    for f in failures:
        assert f["case"].split(" n=")[1].split()[0] == "9", f["case"]
        if not f["actual"].startswith("InexactDivision: "):
            named = {pair.split("=")[0] for pair in f["actual"].split("; ") if "=" in pair}
            assert named <= {"bell", "det", "newton"}, f


def test_a_route_that_raises_is_reported_beside_the_others(capsys, monkeypatch):
    # the power-sum fault above: the Newton engine raises at (9, 2, 2), and
    # the wrong Bell and det values must still show in the same case
    z = verify.zeta
    real = z._newton_power_sums

    def faulty(top, n):
        q = real(top, n)
        if n == 9 and top >= 4:
            q[4] += 1
        return q

    monkeypatch.setattr(z, "_newton_power_sums", faulty)
    z._zeta_single.cache_clear()
    verify.seqlib._slot.cache_clear()
    try:
        argv = ["verify", "routes", "--n-max", "10", "--m-max", "4", "--s-max", "3", "--budget", "0"]
        code = cli.main(argv + ["--format", "json"])
        failures = json.loads(capsys.readouterr().out)["failures"]
    finally:
        z._zeta_single.cache_clear()
        verify.seqlib._slot.cache_clear()
    assert code == 4
    (case,) = [f for f in failures if f["case"] == "routes n=9 m=2 s=2"]
    pairs = dict(pair.split("=", 1) for pair in case["actual"].split("; "))
    assert sorted(pairs) == ["bell", "det", "newton"]
    assert pairs["newton"].startswith("InexactDivision: ")
    assert "newton" in case["routes"] and "brute" not in case["routes"]


def test_verify_routes_runs_the_routes_of_the_live_table(capsys, monkeypatch):
    # verify routes reaches Bell through zeta.ROUTES, which looks zeta_bell up
    # when it runs, so a value planted there fails every routes case, by Bell
    z = verify.zeta
    real = z.zeta_bell
    monkeypatch.setattr(z, "zeta_bell", lambda n, m, s: z.ZetaValue(real(n, m, s).value + 1, "bell", (n, m, s)))
    argv = ["verify", "routes", "--n-max", "6", "--m-max", "3", "--s-max", "2", "--budget", "0"]
    code = cli.main(argv + ["--format", "json"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == 4
    assert sorted(f["case"] for f in failures) == sorted(
        f"routes n={n} m={m} s={s}" for n in range(2, 7) for m in range(1, 4) for s in (1, 2)
    )
    for f in failures:
        assert [pair.split("=")[0] for pair in f["actual"].split("; ")] == ["bell"], f
