"""Command-line front end: exact values, table dumps, value polynomials in n,
and the identity-verification suites.

All rationals are printed as exact ``p/q`` strings; ``--approx`` adds clearly
labeled decimal approximations.  ``verify`` exits 4 when any case fails and
emits a machine-readable report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import seqlib, zeta
from .exactnum import UniPoly, poly_str
from .qstirling import (
    BadParams,
    RationalQ,
    RootOfUnityQ,
    SymbolicQ,
    orthogonality_check,
    rstirling1,
    stirling1,
    stirling2,
)
from .zeta import DEFAULT_BRUTE_BUDGET, BudgetExceeded, UnsupportedClosedForm

_METHODS = ("brute", "product", "stirling", "bell", "det", "closed")
_TABLE_KINDS = ("zeta", "stirling1", "stirling2", "rstirling", "bernoulli")
_SUITES = (
    "routes",
    "orthogonality",
    "gtrudi",
    "s2",
    "s3",
    "dgber",
    "logf",
    "polynomials",
    "btt26",
    "all",
)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_qpoint(text: str):
    if text == "symbolic":
        return SymbolicQ()
    try:
        if text.startswith("root:"):
            return RootOfUnityQ(int(text[len("root:"):]))
        return RationalQ(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"bad q point {text!r}: {exc}") from exc


def _format_value(v) -> str:
    if isinstance(v, UniPoly):
        return poly_str(v, "q")
    if isinstance(v, (int, Fraction)):
        return str(v)
    # cyclotomic element: print as a polynomial in z = zeta_n
    return poly_str(UniPoly(v.coords), "z")


def _emit(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_rows(fmt, header, rows, out, json_payload):
    """Rows are lists of already-stringified cells."""
    if fmt == "json":
        _emit(json.dumps(json_payload, sort_keys=True) + "\n", out)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _emit(buf.getvalue(), out)
    else:
        widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
        lines = ["  ".join(str(c).ljust(w) for c, w in zip(header, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
        _emit("\n".join(lines) + "\n", out)


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("QMZV_BUDGET")
    return int(env) if env else DEFAULT_BRUTE_BUDGET


def cmd_value(args) -> int:
    zv = zeta.zeta_value(args.n, args.m, args.s, method=args.method, budget=_budget(args))
    payload = {
        "n": args.n,
        "m": args.m,
        "s": args.s,
        "method": zv.method,
        "value": str(zv.value),
    }
    header = ["n", "m", "s", "method", "value"]
    row = [args.n, args.m, args.s, zv.method, str(zv.value)]
    if args.approx:
        payload["approx"] = float(zv.value)
        header.append("approx")
        row.append(repr(float(zv.value)))
    if args.format == "text":
        text = f"Z(n={args.n}; m={args.m}, s={args.s}) = {zv.value} [{zv.method}]"
        if args.approx:
            text += f" (approx {float(zv.value)!r})"
        _emit(text + "\n", args.out)
    else:
        _render_rows(args.format, header, [row], args.out, payload)
    return 0


def cmd_table(args) -> int:
    n_max = args.n_max
    approx = args.approx
    if args.table == "zeta":
        if args.n is None:
            raise BadParams("table zeta needs --n")
        if args.n < 1:
            raise BadParams("table zeta needs --n >= 1")
        if args.s < 1:
            raise BadParams("need s >= 1")
        values = [zeta._zeta_multi(args.n, m, args.s) for m in range(args.n)]
        header = ["m", "value"] + (["approx"] if approx else [])
        rows = [
            [m, str(v)] + ([repr(float(v))] if approx else [])
            for m, v in enumerate(values)
        ]
        payload = {"kind": "zeta", "n": args.n, "s": args.s, "values": [str(v) for v in values]}
    elif args.table in ("stirling1", "stirling2"):
        if n_max is None:
            raise BadParams("stirling tables need --n-max")
        q = _parse_qpoint(args.q)
        fn = stirling1 if args.table == "stirling1" else stirling2
        rows = []
        values = []
        for n in range(n_max + 1):
            for k in range(n + 1):
                v = fn(n, k, r=args.r, s=args.s, q=q)
                text = _format_value(v)
                rows.append([n, k, text])
                values.append({"n": n, "k": k, "value": text})
        header = ["n", "k", "value"]
        payload = {
            "kind": args.table,
            "r": args.r,
            "s": args.s,
            "q": args.q,
            "values": values,
        }
    elif args.table == "rstirling":
        if n_max is None:
            raise BadParams("rstirling table needs --n-max")
        rows = []
        values = []
        for n in range(n_max + 1):
            for k in range(n + 1):
                v = rstirling1(n, k, args.r)
                rows.append([n, k, str(v)])
                values.append({"n": n, "k": k, "value": str(v)})
        header = ["n", "k", "value"]
        payload = {"kind": "rstirling", "r": args.r, "values": values}
    else:  # bernoulli
        if n_max is None:
            raise BadParams("bernoulli table needs --n-max")
        if args.kind == "order":
            vals = [seqlib.bernoulli_order(n, args.alpha) for n in range(n_max + 1)]
            label = f"order-{args.alpha}"
        else:
            vals = [seqlib.norlund(n) for n in range(n_max + 1)]
            label = "norlund"
        header = ["n", "value"] + (["approx"] if approx else [])
        rows = [
            [n, str(v)] + ([repr(float(v))] if approx else [])
            for n, v in enumerate(vals)
        ]
        payload = {"kind": "bernoulli", "family": label, "values": [str(v) for v in vals]}
    _render_rows(args.format, header, rows, args.out, payload)
    return 0


def cmd_poly(args) -> int:
    p = zeta.zeta_poly_in_n(args.m, args.s, degree_cap=args.degree_cap)
    coeffs = [str(c) for c in p.coeffs]
    payload = {"m": args.m, "s": args.s, "degree": p.degree(), "coefficients": coeffs}
    if args.format == "text":
        _emit(f"Z(n; m={args.m}, s={args.s}) = {poly_str(p, 'n')}\n", args.out)
    elif args.format == "json":
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        rows = [[k, c] for k, c in enumerate(coeffs)]
        _render_rows("csv", ["power", "coefficient"], rows, args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# verification suites
#
# Each case function is a module-level callable (picklable for --jobs) that
# returns (ok, expected, actual, route_labels).
# ---------------------------------------------------------------------------


def _case_routes(n, m, s, budget):
    reference = zeta._zeta_multi(n, m, s)
    values = {
        "stirling": zeta.zeta_via_stirling(n, m, s).value,
        "bell": zeta.zeta_bell(n, m, s).value,
        "det": zeta.zeta_det(n, m, s).value,
    }
    if math.comb(n - 1, m) <= min(budget, 20000):
        values["brute"] = zeta.zeta_brute(n, m, s, budget=budget).value
    bad = {k: v for k, v in values.items() if v != reference}
    actual = "; ".join(f"{k}={v}" for k, v in sorted(bad.items()))
    return (not bad, str(reference), actual or str(reference), ["product"] + sorted(values))


def _case_row_from_column(n, m, s):
    got = zeta.zeta_row_from_column(n, m, s)
    want = zeta._zeta_single(n, m * s)
    return (got == want, str(want), str(got), ["row-from-column", "product"])


def _case_binomial_det(n, s):
    got = zeta.zeta_1s_det(n, s)
    want = zeta._zeta_single(n, s)
    return (got == want, str(want), str(got), ["binomial-det", "product"])


def _case_orthogonality(r, s, qspec, n_max):
    res = orthogonality_check(n_max, r=r, s=s, q=_parse_qpoint(qspec))
    first = res.first_failure()
    return (res.passed, "all-delta", "ok" if res.passed else str(first), ["orthogonality"])


def _case_gtrudi(seed):
    rng = random.Random(seed)
    length = rng.randint(1, 8)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]
    problems = []
    b = []
    for m in range(1, length + 1):
        vals = {
            route: seqlib.seq_transform_forward(a, m, route=route)
            for route in ("recurrence", "determinant", "partition")
        }
        if len(set(vals.values())) != 1:
            problems.append(f"forward m={m}: {vals}")
        b.append(vals["recurrence"])
    for n in range(1, length + 1):
        det = seqlib.seq_transform_inverse(b, n, route="determinant")
        rec = seqlib.seq_transform_inverse(b, n, route="recurrence")
        if not det == rec == a[n - 1]:
            problems.append(f"inverse n={n}: det={det} rec={rec} want={a[n-1]}")
    return (not problems, "round-trip", "; ".join(problems) or "round-trip", ["gtrudi"])


def _case_s2(n, m):
    closed = zeta.zeta_m2_closed(n, m)
    prod = zeta._zeta_multi(n, m, 2)
    via_rst, via_tuples = zeta.zeta_m2_rstirling(n, m)
    ok = closed == prod == via_rst == via_tuples
    actual = f"closed={closed} product={prod} rstirling={via_rst} tuples={via_tuples}"
    return (ok, str(prod), actual, ["closed", "product", "rstirling", "tuples"])


def _case_s3(n, m):
    closed = zeta.zeta_m3_closed(n, m)
    prod = zeta._zeta_multi(n, m, 3)
    return (closed == prod, str(prod), str(closed), ["closed", "product"])


def _case_reference_poly(m, s):
    want = zeta.REFERENCE_POLYNOMIALS[(m, s)]
    got = zeta.zeta_poly_in_n(m, s)
    return (got == want, poly_str(want, "n"), poly_str(got, "n"), ["interpolated", "reference"])


def _case_constant_term(s):
    got = zeta.zeta_poly_in_n(1, s).coeff(0)
    want = Fraction((-1) ** (s - 1)) * seqlib.norlund(s) / math.factorial(s)
    ok = got == want
    if s <= len(zeta.REFERENCE_CONSTANT_TERMS):
        ok = ok and got == zeta.REFERENCE_CONSTANT_TERMS[s - 1]
    return (ok, str(want), str(got), ["constant-term", "norlund"])


def _case_dgber(n, s, budget):
    got = zeta.zeta_1s_degenerate_bernoulli(n, s)
    want = zeta.zeta_brute(n, 1, s, budget=budget).value
    return (got == want, str(want), str(got), ["degenerate-bernoulli", "brute"])


def _case_btt26(n, j):
    res = zeta.harmonic_bernoulli_identity_check(n, j)
    return (res.passed, "identity", "ok" if res.passed else str(res.first_failure()), ["harmonic-bernoulli"])


def _case_btt_decomposition(n, s):
    res = zeta.harmonic_decomposition_check(n, s)
    return (res.passed, "identity", "ok" if res.passed else str(res.first_failure()), ["harmonic-decomposition"])


def _case_logf(s, trunc):
    res = zeta.logf_identity_check(s, trunc)
    return (res.passed, "all-coefficients", "ok" if res.passed else str(res.first_failure()), ["logf", "product"])


_CASE_REGISTRY = {
    "routes": _case_routes,
    "row_from_column": _case_row_from_column,
    "binomial_det": _case_binomial_det,
    "orthogonality": _case_orthogonality,
    "gtrudi": _case_gtrudi,
    "s2": _case_s2,
    "s3": _case_s3,
    "reference_poly": _case_reference_poly,
    "constant_term": _case_constant_term,
    "dgber": _case_dgber,
    "btt26": _case_btt26,
    "btt_decomposition": _case_btt_decomposition,
    "logf": _case_logf,
}


def _execute_case(item):
    label, fn_name, kwargs = item
    ok, expected, actual, routes = _CASE_REGISTRY[fn_name](**kwargs)
    return label, kwargs, ok, expected, actual, routes


def _suite_cases(suite, args):
    budget = _budget(args)
    n_max = args.n_max
    m_max = args.m_max
    s_max = args.s_max
    cases = []
    if suite in ("routes", "all"):
        nm = n_max or 10
        for n in range(2, nm + 1):
            for s in range(1, (s_max or 3) + 1):
                for m in range(1, (m_max or 6) + 1):
                    cases.append(
                        (f"routes n={n} m={m} s={s}", "routes",
                         {"n": n, "m": m, "s": s, "budget": budget})
                    )
                    cases.append(
                        (f"row-from-column n={n} m={m} s={s}", "row_from_column",
                         {"n": n, "m": m, "s": s})
                    )
                cases.append(
                    (f"binomial-det n={n} s={s}", "binomial_det", {"n": n, "s": s})
                )
    if suite in ("orthogonality", "all"):
        nm = n_max or 8
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for qspec in ("symbolic", "root:7"):
                    cases.append(
                        (f"orthogonality r={r} s={s} q={qspec}", "orthogonality",
                         {"r": r, "s": s, "qspec": qspec, "n_max": nm})
                    )
    if suite in ("gtrudi", "all"):
        for seed in range(50):
            cases.append((f"gtrudi seed={seed:02d}", "gtrudi", {"seed": seed}))
    if suite in ("s2", "all"):
        nm = n_max or 20
        for n in range(2, nm + 1):
            for m in range(1, (m_max or 8) + 1):
                cases.append((f"s2 n={n} m={m}", "s2", {"n": n, "m": m}))
        for m in range(1, 5):
            cases.append((f"s2 poly m={m}", "reference_poly", {"m": m, "s": 2}))
    if suite in ("s3", "all"):
        nm = n_max or 14
        for n in range(2, nm + 1):
            for m in range(1, (m_max or 5) + 1):
                cases.append((f"s3 n={n} m={m}", "s3", {"n": n, "m": m}))
        for m in range(1, 5):
            cases.append((f"s3 poly m={m}", "reference_poly", {"m": m, "s": 3}))
    if suite in ("dgber", "all"):
        nm = n_max or 20
        for n in range(2, nm + 1):
            for s in range(1, (s_max or 8) + 1):
                cases.append((f"dgber n={n} s={s}", "dgber", {"n": n, "s": s, "budget": budget}))
    if suite in ("logf", "all"):
        for s in (1, 2, 3):
            cases.append((f"logf s={s}", "logf", {"s": s, "trunc": args.trunc}))
    if suite in ("polynomials", "all"):
        for (m, s) in sorted(zeta.REFERENCE_POLYNOMIALS):
            cases.append((f"polynomial m={m} s={s}", "reference_poly", {"m": m, "s": s}))
        for s in range(1, 10):
            cases.append((f"constant-term s={s}", "constant_term", {"s": s}))
    if suite in ("btt26", "all"):
        nm = n_max or 20
        for n in range(2, nm + 1):
            for j in range(1, 7):
                cases.append((f"btt26 n={n} j={j}", "btt26", {"n": n, "j": j}))
            for s in range(1, (s_max or 8) + 1):
                cases.append(
                    (f"btt26 decomposition n={n} s={s}", "btt_decomposition", {"n": n, "s": s})
                )
    return cases


def _worker_count(jobs: int) -> int:
    """Worker processes for ``verify --jobs``: the request, capped at the
    number of CPUs (more workers than cores only add start-up cost)."""
    return min(jobs, os.cpu_count() or 1)


def cmd_verify(args) -> int:
    for name in ("n_max", "m_max", "s_max", "trunc", "jobs"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise BadParams(f"--{name.replace('_', '-')} must be >= 1")
    start = time.monotonic()
    cases = _suite_cases(args.suite, args)
    jobs = _worker_count(args.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_execute_case, cases))
    else:
        outcomes = [_execute_case(c) for c in cases]
    failures = sorted(
        (
            {"case": label, "params": kwargs, "expected": expected, "actual": actual, "routes": routes}
            for label, kwargs, ok, expected, actual, routes in outcomes
            if not ok
        ),
        key=lambda f: f["case"],
    )
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "suite": args.suite,
        "cases": len(outcomes),
        "failures": failures,
        "elapsed_ms": elapsed_ms,
    }
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        rows = [[args.suite, len(outcomes), len(failures), elapsed_ms]]
        rows += [["FAIL", f["case"], f["expected"], f["actual"]] for f in failures]
        _render_rows("csv", ["suite", "cases", "failures", "elapsed_ms"], rows, args.out, report)
    else:
        lines = [
            f"suite {args.suite}: {'PASS' if not failures else 'FAIL'} "
            f"({len(outcomes)} cases, {len(failures)} failures, {elapsed_ms} ms)"
        ]
        lines += [f"  FAIL {f['case']}: expected {f['expected']}, got {f['actual']}" for f in failures]
        _emit("\n".join(lines) + "\n", args.out)
    return 4 if failures else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmzv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = dict(default=None)

    p_value = sub.add_parser("value", help="compute one exact value")
    p_value.add_argument("--n", type=int, required=True)
    p_value.add_argument("--m", type=int, required=True)
    p_value.add_argument("--s", type=int, required=True)
    p_value.add_argument("--method", choices=_METHODS, default="product")
    p_value.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_value.add_argument("--budget", type=int, **common)
    p_value.add_argument("--approx", action="store_true")
    p_value.add_argument("--out", **common)

    p_table = sub.add_parser("table", help="dump a value or coefficient table")
    p_table.add_argument("table", choices=_TABLE_KINDS, metavar="kind")
    p_table.add_argument("--n", type=int, **common)
    p_table.add_argument("--s", type=int, default=1)
    p_table.add_argument("--r", type=int, default=1)
    p_table.add_argument("--q", default="symbolic",
                         help="q-point: 'symbolic', a rational like 2/3, or root:<n>")
    p_table.add_argument("--n-max", "--nmax", dest="n_max", type=int, **common)
    p_table.add_argument("--kind", choices=("norlund", "order"), default="norlund",
                         help="bernoulli family selector")
    p_table.add_argument("--alpha", type=int, default=1)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--approx", action="store_true")
    p_table.add_argument("--out", **common)

    p_poly = sub.add_parser("poly", help="value polynomial in n for fixed (m, s)")
    p_poly.add_argument("--m", type=int, required=True)
    p_poly.add_argument("--s", type=int, required=True)
    p_poly.add_argument("--degree-cap", type=int, default=16)
    p_poly.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_poly.add_argument("--out", **common)

    p_verify = sub.add_parser("verify", help="run an identity verification suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("--n-max", "--nmax", dest="n_max", type=int, **common)
    p_verify.add_argument("--m-max", dest="m_max", type=int, **common)
    p_verify.add_argument("--s-max", dest="s_max", type=int, **common)
    p_verify.add_argument("--trunc", type=int, default=12)
    p_verify.add_argument("--budget", type=int, **common)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", **common)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "value":
            return cmd_value(args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "poly":
            return cmd_poly(args)
        return cmd_verify(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedClosedForm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (BadParams, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
