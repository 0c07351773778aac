import json

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


def test_single_index_reference_is_labelled_as_such(capsys, monkeypatch):
    assert verify.CASES["row_from_column"](n=3, m=1, s=1).routes == ["row-from-column", "single-index"]
    monkeypatch.setattr(verify.zeta, "zeta_1s_det", lambda n, s: -1)
    code = cli.main(["verify", "routes", "--n-max", "2", "--m-max", "1", "--s-max", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 and payload["failures"]
    assert all(f["routes"] == ["binomial-det", "single-index"] for f in payload["failures"])
