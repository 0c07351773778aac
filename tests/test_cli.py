import decimal
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from qmzv import cli, seqlib, verify, zeta
from qmzv.util import CheckResult

F = Fraction


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- value


def test_value_closed(capsys):
    code, out, _ = run_cli(capsys, "value", "--n", "7", "--m", "2", "--s", "2", "--method", "closed")
    assert code == 0
    assert "= 1 [closed]" in out


def test_value_m0_convention(capsys):
    code, out, _ = run_cli(capsys, "value", "--n", "5", "--m", "0", "--s", "3")
    assert code == 0 and "= 1" in out


def test_value_product_json(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--n", "9", "--m", "3", "--s", "1", "--method", "product", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "14" and payload["method"] == "product"


def test_value_csv_and_approx(capsys):
    code, out, _ = run_cli(
        capsys, "value", "--n", "4", "--m", "1", "--s", "1", "--format", "csv", "--approx"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,s,method,value,approx"
    assert lines[1].startswith("4,1,1,product,3/2,")


def test_value_exit_code_budget(capsys):
    code, _, err = run_cli(
        capsys, "value", "--n", "30", "--m", "14", "--s", "1", "--method", "brute", "--budget", "10"
    )
    assert code == 2 and "budget" in err


def test_value_exit_code_unsupported_closed(capsys):
    code, _, err = run_cli(capsys, "value", "--n", "7", "--m", "2", "--s", "5", "--method", "closed")
    assert code == 3 and "closed" in err


def test_value_exit_code_bad_params(capsys):
    code, _, err = run_cli(capsys, "value", "--n", "1", "--m", "1", "--s", "1")
    assert code == 1


def test_bad_arguments_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--n", "7", "--m", "2"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("QMZV_BUDGET", "5")
    code, _, err = run_cli(capsys, "value", "--n", "25", "--m", "12", "--s", "1", "--method", "brute")
    assert code == 2
    monkeypatch.setenv("QMZV_BUDGET", "10000000")
    code, out, _ = run_cli(capsys, "value", "--n", "10", "--m", "4", "--s", "1", "--method", "brute")
    assert code == 0


def test_negative_budget_flag_is_refused(capsys, monkeypatch):
    monkeypatch.delenv("QMZV_BUDGET", raising=False)
    for argv in (
        ("value", "--n", "5", "--m", "2", "--s", "1", "--method", "brute", "--budget", "-1"),
        ("verify", "routes", "--n-max", "3", "--budget", "-5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:") and "budget" in err


def test_negative_budget_env_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("QMZV_BUDGET", "-3")
    for argv in (
        ("value", "--n", "5", "--m", "2", "--s", "1", "--method", "brute"),
        ("verify", "routes", "--n-max", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:") and "budget" in err
    # the flag still overrides the environment
    code, out, _ = run_cli(capsys, "value", "--n", "5", "--m", "2", "--s", "1", "--method", "brute",
                           "--budget", "100")
    assert code == 0 and "[brute]" in out


def test_non_integer_budget_env_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("QMZV_BUDGET", "abc")
    for argv in (
        ("value", "--n", "5", "--m", "2", "--s", "1", "--method", "brute"),
        ("verify", "routes", "--n-max", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: QMZV_BUDGET must be an integer, got 'abc'"]


# ----------------------------------------------------------------- table


def test_table_zeta_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "table", "zeta", "--n", "6", "--s", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value"
    from qmzv.zeta import zeta_m1_closed

    got = [line.split(",")[1] for line in lines[1:]]
    assert got == [str(zeta_m1_closed(6, m)) for m in range(6)]


def test_table_zeta_rejects_bad_n_and_s(capsys):
    for argv in (("--n", "5", "--s", "-1"), ("--n", "5", "--s", "0"), ("--n", "0"), ("--n", "-3")):
        code, out, err = run_cli(capsys, "table", "zeta", *argv)
        assert code == 1 and out == "" and err.startswith("error:")


def test_table_zeta_n1_is_refused_like_value(capsys):
    refusal = (1, "", "error: need n >= 2\n")
    assert run_cli(capsys, "table", "zeta", "--n", "1") == refusal
    assert run_cli(capsys, "value", "--n", "1", "--m", "0", "--s", "1") == refusal


def test_table_negative_n_max_exits_one(capsys):
    for kind in ("stirling1", "stirling2", "rstirling", "bernoulli"):
        code, out, err = run_cli(capsys, "table", kind, "--n-max", "-1")
        assert code == 1 and out == "" and err.startswith("error:"), kind


def test_table_bad_q_point_exits_one(capsys):
    for q in ("1/0", "abc", "root:x"):
        code, out, err = run_cli(capsys, "table", "stirling1", "--n-max", "2", "--q", q)
        assert code == 1 and out == "" and err.startswith("error:")


def test_table_negative_fraction_q_is_read_as_a_value(capsys):
    # argparse alone takes "-5/7" for an option and exits 1 with "expected one argument"
    for kind in ("stirling1", "stirling2"):
        joined = run_cli(capsys, "table", kind, "--q=-5/7", "--n-max", "5")
        split = run_cli(capsys, "table", kind, "--q", "-5/7", "--n-max", "5")
        assert joined[0] == 0 and joined[1]
        assert split[:2] == joined[:2], kind
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv", "table", "stirling2", "--q", "-5/7", "--n-max", "5"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, run_cli(capsys, "table", "stirling2", "--q=-5/7", "--n-max", "5")[1])


def test_table_stirling_classical(capsys):
    code, out, _ = run_cli(
        capsys, "table", "stirling1", "--r", "1", "--s", "1", "--q", "1",
        "--n-max", "4", "--format", "csv",
    )
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in out.strip().splitlines()[1:]}
    assert rows[("3", "2")] == "3"
    assert rows[("4", "2")] == "11"


def test_table_stirling_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "table", "stirling2", "--r", "1", "--s", "1", "--n-max", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    entries = {(v["n"], v["k"]): v["value"] for v in payload["values"]}
    assert entries[(3, 2)] == "2 + q"


def test_table_stirling_at_root_of_unity(capsys):
    code, out, _ = run_cli(
        capsys, "table", "stirling1", "--r", "1", "--s", "1", "--q", "root:4",
        "--n-max", "5", "--format", "csv",
    )
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",", 2)[2] for line in out.strip().splitlines()[1:]}
    # [5 4] at q = i is [1]+[2]+[3]+[4] = 1 + (1+i) + i + 0 = 2 + 2i
    assert rows[("5", "4")] == "2 + 2*z"


def test_table_rstirling(capsys):
    code, out, _ = run_cli(capsys, "table", "rstirling", "--r", "5", "--n-max", "10", "--format", "csv")
    assert code == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in out.strip().splitlines()[1:]}
    assert rows[("10", "9")] == "35"


def test_table_bernoulli_norlund(capsys):
    code, out, _ = run_cli(capsys, "table", "bernoulli", "--kind", "norlund", "--n-max", "4", "--format", "csv")
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "-1/2", "5/6", "-9/4", "251/30"]


def test_table_bernoulli_order(capsys):
    code, out, _ = run_cli(
        capsys, "table", "bernoulli", "--kind", "order", "--alpha", "2", "--n-max", "2", "--format", "csv"
    )
    assert code == 0
    values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "-1", "5/6"]


def test_table_bernoulli_builds_each_family_from_one_series(capsys, monkeypatch):
    calls = {"series_inv": 0, "newton_log": 0}

    def counted(name):
        inner = getattr(seqlib, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(seqlib, name, counted(name))
    seqlib._slot.cache_clear()
    code, out, _ = run_cli(capsys, "table", "bernoulli", "--kind", "norlund", "--n-max", "30")
    assert code == 0 and len(out.splitlines()) == 32 and calls["series_inv"] == 1
    code, out, _ = run_cli(capsys, "table", "bernoulli", "--kind", "order", "--alpha", "3", "--n-max", "30")
    assert code == 0 and len(out.splitlines()) == 32 and calls["newton_log"] == 1


def test_table_bad_kind_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "nosuch", "--n-max", "3"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_table_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "table", "zeta")
    assert code == 1 and "needs --n" in err


# ------------------------------------------------------------------ poly


def test_poly_command_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--m", "1", "--s", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2
    assert payload["coefficients"] == ["-5/12", "1/2", "-1/12"]


def test_poly_command_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--m", "1", "--s", "3")
    assert code == 0
    assert out.strip() == "Z(n; m=1, s=3) = -3/8 + 1/2*n - 1/8*n^2"


LARGE_S_OUTPUTS = {
    ("poly", "--m", "1", "--s", "16"): (
        "Z(n; m=1, s=16) = -8092989203533249/32011868528640000 + 1/2*n"
        " - 1195757/4324320*n^2 + 35118025721/1089728640000*n^4"
        " - 277382447/90531302400*n^6 + 54576553/313528320000*n^8"
        " - 324509/60354201600*n^10 + 18602411/235381386240000*n^12"
        " - 47/112086374400*n^14 + 3617/10670622842880000*n^16\n"
    ),
    ("table", "zeta", "--n", "10", "--s", "40"): (
        "m  value\n"
        "0  1\n"
        "1  4914003659709977584796500729/10737418240000000000\n"
        "2  1372622589768183108777338997733107973163039/26214400000000000000000000\n"
        "3  83054882002343268149645685861168810267129695677/512000000000000000000000000000000\n"
        "4  78523865357594346215139600081328128515593572992361"
        "/625000000000000000000000000000000000000\n"
        "5  2199832830873759130262830773967977307987671/2000000000000000000000000000000000000000\n"
        "6  301911092436215885895749554359277/125000000000000000000000000000000000000\n"
        "7  34731087117574197096161/1000000000000000000000000000000000000000\n"
        "8  69770924939/500000000000000000000000000000000000000\n"
        "9  1/10000000000000000000000000000000000000000\n"
    ),
}


def test_large_s_rows_use_the_field_product_unchanged(capsys, monkeypatch):
    from qmzv import zeta

    def no_subsets(s):
        raise AssertionError(f"enumerated the subsets of Z/{s}")

    monkeypatch.setattr(zeta, "_rotation_orbits", no_subsets)
    for argv, want in LARGE_S_OUTPUTS.items():
        assert run_cli(capsys, *argv) == (0, want, ""), argv

    # (10, 40) above now comes from the complement engine, as does a row
    # with s >> n, with neither other engine reachable
    def no_newton(top, n, s):
        raise AssertionError(f"ran the Newton engine on ({n}, {s})")

    monkeypatch.setitem(zeta.ROW_ENGINES, "newton", no_newton)
    code, out, err = run_cli(capsys, "table", "zeta", "--n", "10", "--s", "1000")
    assert code == 0 and err == "" and len(out.splitlines()) == 11
    assert out.splitlines()[-1] == f"9  1/{10 ** 1000}"


# ---------------------------------------------------------------- verify


def test_verify_small_suite_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "routes", "--n-max", "5", "--m-max", "3", "--s-max", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "routes"
    assert payload["failures"] == []
    assert set(payload) == {"suite", "cases", "failures", "elapsed_ms"}


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def broken(n, m, s, budget):
        result = CheckResult(["broken"])
        result.record(False, expected="1", actual="2")
        return result

    monkeypatch.setitem(verify.CASES, "routes", broken)
    code, out, _ = run_cli(
        capsys, "verify", "routes", "--n-max", "3", "--m-max", "1", "--s-max", "1", "--format", "json"
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["failures"] and payload["failures"][0]["expected"] == "1"


def test_verify_parallel_jobs(capsys):
    code, out, _ = run_cli(capsys, "verify", "gtrudi", "--jobs", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["cases"] == 50


def test_verify_logf_with_trunc(capsys):
    code, out, _ = run_cli(capsys, "verify", "logf", "--trunc", "6", "--format", "json")
    assert code == 0 and json.loads(out)["cases"] == 3


def test_verify_rejects_degenerate_ranges(capsys):
    code, _, err = run_cli(capsys, "verify", "routes", "--n-max", "0")
    assert code == 1 and "--n-max" in err
    code, _, err = run_cli(capsys, "verify", "gtrudi", "--jobs", "0")
    assert code == 1


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "orthogonality", "--n-max", "4", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["failures"] == []


def test_unopenable_out_path_exits_one_with_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "value.txt"
    code, out, err = run_cli(capsys, "value", "--n", "5", "--m", "2", "--s", "1", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_verify_refuses_an_unopenable_out_path_before_running_a_case(tmp_path, capsys, monkeypatch):
    def refuse(case):
        pytest.fail(f"case {case[0]} ran before --out was refused")

    monkeypatch.setattr(verify, "run_case", refuse)
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "verify", "all", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write --out ") and err.count("\n") == 1
    assert not target.exists()


def test_approx_beyond_float_range_exits_one_with_one_error_line(capsys):
    # Z(1100; 550, 1) = C(1099, 550) and the s = 1 row are exact but
    # overflow a float, so --approx is refused before anything is printed
    for argv in (["value", "--n", "1100", "--m", "550", "--s", "1", "--method", "closed"],
                 ["table", "zeta", "--n", "1100", "--s", "1"],
                 ["table", "bernoulli", "--kind", "norlund", "--n-max", "200"]):
        code, out, err = run_cli(capsys, *argv, "--approx")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out


def _value_draws(seed, count):
    """``count`` seeded ``value`` command lines, alternating between two
    ranges: n <= 30 with any m <= n + 2, s <= 6 and every method; and n up
    to 10^6 with m <= 6, s <= 16 on the product and closed routes.  The
    brute oracle's budget is 20000 tuples, as in ``verify`` sweeps, so a
    larger draw ends in its refusal, exit 2, rather than in seconds of
    enumeration."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            n = rng.randint(2, 30)
            m, s = rng.randint(0, n + 2), rng.randint(1, 6)
            method = rng.choice(tuple(zeta.ROUTES))
        else:
            n, m, s = rng.randint(2, 10**6), rng.randint(0, 6), rng.randint(1, 16)
            method = rng.choice(("product", "closed"))
        argv = ["value", "--n", str(n), "--m", str(m), "--s", str(s), "--method", method, "--budget", "20000"]
        argv += ["--format", rng.choice(("text", "json", "csv"))]
        yield argv + ["--approx"] * (rng.random() < 0.3)


def test_value_draws_end_in_a_documented_exit_code(capsys):
    for argv in _value_draws(2024, 200):
        code, out, err = run_cli(capsys, *argv)
        assert code in range(5), argv
        assert err.count("error:") <= 1 and "Traceback" not in out + err, argv
        assert (code == 0) == bool(out), argv


_Q_FORMS = ("symbolic", "0", "1", "-1", "2/3", "-5/7", "root:0", "root:x", "1/0", "abc")


def _command_draws(seed, count):
    """``count`` seeded command lines over every other command, in turn:
    ``table zeta`` with n <= 60 and s <= 6 or a refused n or s; ``table
    stirling1|stirling2`` with n_max <= 8 at every ``--q`` form, valid and
    malformed (given as ``--q=...`` so that a leading minus stays a value);
    ``table rstirling`` with r from 0 to 4; ``table bernoulli`` of both kinds
    with alpha from -1 to 4; ``poly`` with a cap that may fall below m*s; and
    every ``verify`` suite at small bounds, budget 0 included.  Every draw
    picks a ``--format``, and about 30 % of the ``table`` draws ``--approx``
    (the only command here that takes it)."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 6
        if kind == 0:
            n = rng.randint(-2, 1) if rng.random() < 0.2 else rng.randint(2, 60)
            s = rng.randint(-1, 0) if rng.random() < 0.2 else rng.randint(1, 6)
            argv = ["table", "zeta", "--n", str(n), "--s", str(s)]
        elif kind == 1:
            q = f"root:{rng.randint(1, 12)}" if rng.random() < 0.4 else rng.choice(_Q_FORMS)
            argv = ["table", rng.choice(("stirling1", "stirling2")), "--n-max", str(rng.randint(-1, 8)),
                    "--r", str(rng.choice((0, 1, 1, 2, 3))), "--s", str(rng.choice((0, 1, 1, 2, 3))), f"--q={q}"]
        elif kind == 2:
            argv = ["table", "rstirling", "--n-max", str(rng.randint(-1, 10)), "--r", str(rng.randint(0, 4))]
        elif kind == 3:
            argv = ["table", "bernoulli", "--kind", rng.choice(("norlund", "order")),
                    "--alpha", str(rng.randint(-1, 4)), "--n-max", str(rng.randint(-1, 30))]
        elif kind == 4:
            argv = ["poly", "--m", str(rng.randint(0, 5)), "--s", str(rng.randint(0, 4)),
                    "--degree-cap", str(rng.randint(0, 16))]
        else:
            argv = ["verify", rng.choice(cli._SUITES), "--n-max", str(rng.choice((0, 2, 3, 4, 5))),
                    "--m-max", str(rng.randint(1, 3)), "--s-max", str(rng.randint(1, 3)),
                    "--trunc", str(rng.randint(1, 6)), "--budget", str(rng.choice((0, 0, 200, 20000)))]
        argv += ["--format", rng.choice(("text", "json", "csv"))]
        yield argv + ["--approx"] * (argv[0] == "table" and rng.random() < 0.3)


def test_command_draws_end_in_a_documented_exit_code(capsys):
    for argv in _command_draws(2025, 200):
        code, out, err = run_cli(capsys, *argv)
        assert code in range(5), argv
        assert err.count("error:") <= 1 and "Traceback" not in out + err, argv
        printed = (0, 4) if argv[0] == "verify" else (0,)
        assert (code in printed) == bool(out), argv


def test_values_past_the_int_digit_limit_print_exactly(capsys):
    # Z(2; 1, s) = 1/2^s: at s = 20000 the denominator has 6021 digits, past
    # the interpreter's default limit of 4300 for int -> str.  Decimal gives
    # the expected digits by another conversion, under no such limit.
    den = str(decimal.Decimal(2**20000))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, "value", "--n", "2", "--m", "1", "--s", "20000")
    assert (code, err) == (0, "")
    assert out == f"Z(n=2; m=1, s=20000) = 1/{den} [product]\n"
    code, out, err = run_cli(capsys, "table", "zeta", "--n", "2", "--s", "20000")
    assert (code, err) == (0, "")
    assert out == f"m  value\n0  1\n1  1/{den}\n"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


# ------------------------------------------------------------ determinism


def test_value_output_is_byte_deterministic(capsys):
    a = run_cli(capsys, "value", "--n", "12", "--m", "4", "--s", "2", "--format", "json")
    b = run_cli(capsys, "value", "--n", "12", "--m", "4", "--s", "2", "--format", "json")
    assert a == b


def test_table_output_is_byte_deterministic(capsys):
    a = run_cli(capsys, "table", "stirling1", "--r", "2", "--s", "2", "--n-max", "5", "--format", "json")
    b = run_cli(capsys, "table", "stirling1", "--r", "2", "--s", "2", "--n-max", "5", "--format", "json")
    assert a == b


def test_verify_report_deterministic_modulo_timing(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "verify", "s2", "--n-max", "6", "--m-max", "3", "--format", "json"
        )
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


# ------------------------------------------------------------- entry point


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qmzv", "value", "--n", "7", "--m", "2", "--s", "2", "--method", "closed"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "= 1 [closed]" in proc.stdout


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._worker_count(1) == 1
    assert cli._worker_count(3) == 3
    assert cli._worker_count(4) == 4
    assert cli._worker_count(10 ** 9) == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(8) == 1


def test_verify_jobs_runs_the_pool_when_cpus_allow(monkeypatch, capsys):
    # pin the CPU count so the process-pool path runs on every host
    started = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, out, _ = run_cli(capsys, "verify", "gtrudi", "--jobs", "2", "--format", "json")
    assert code == 0 and started == [2]
    assert json.loads(out)["cases"] == 50


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    builds = []
    build = cli._build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    for m in (1, 2, 3):
        code, out, _ = run_cli(capsys, "value", "--n", "7", "--m", str(m), "--s", "1")
        assert code == 0 and f"m={m}" in out
    assert len(builds) == 1
