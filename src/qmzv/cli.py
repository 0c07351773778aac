"""Command-line front end: exact values, table dumps, value polynomials in n,
and the identity-verification suites.

All rationals are printed as exact ``p/q`` strings; ``--approx`` adds clearly
labeled decimal approximations.  ``verify`` runs the suites defined in
``qmzv.verify``, exits 4 when any case fails and emits a machine-readable
report.

``main`` runs each subcommand from the command table ``_COMMANDS``; every
command writes its output through the one renderer ``_render_rows``; and one
``except`` maps each refusal to its exit code through the ordered refusal
table ``_EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import seqlib, verify, zeta
from .exactnum import UniPoly, poly_str
from .qstirling import BadParams, parse_qpoint, rstirling1, stirling1, stirling2
from .util import any_size_ints
from .zeta import DEFAULT_BRUTE_BUDGET, BudgetExceeded, UnsupportedClosedForm

_TABLE_KINDS = ("zeta", "stirling1", "stirling2", "rstirling", "bernoulli")
_SUITES = (*verify.SUITES, "all")


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _format_value(v) -> str:
    if isinstance(v, UniPoly):
        return poly_str(v, "q")
    if isinstance(v, (int, Fraction)):
        return str(v)
    # cyclotomic element: print as a polynomial in z = zeta_n
    return poly_str(UniPoly(v.coords), "z")


def _emit(text: str, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadParams(f"cannot write --out {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _render_rows(args, header, rows, payload, lines=None):
    """Write one command's output in its ``--format``: the JSON payload, the
    header and rows as csv, or as text the command's own ``lines``, else the
    rows as an aligned table.  Rows are lists of already-stringified cells."""
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
        _emit(buf.getvalue(), args.out)
    else:
        if lines is None:
            cells = [[str(c) for c in r] for r in [header] + rows]
            widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
            lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
        _emit("\n".join(lines) + "\n", args.out)


def _approx(v) -> float:
    """The ``--approx`` float of v; a value beyond float range is refused."""
    try:
        return float(v)
    except OverflowError:
        raise BadParams("--approx: the value is beyond the range of a float") from None


def _budget(args) -> int:
    """The brute-force tuple budget: ``--budget``, else ``QMZV_BUDGET``, else
    the default; a negative or non-integer budget is refused."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("QMZV_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BRUTE_BUDGET
        except ValueError:
            raise BadParams(f"QMZV_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise BadParams(f"budget must be >= 0, got {budget}")
    return budget


def cmd_value(args) -> int:
    zv = zeta.zeta_value(args.n, args.m, args.s, method=args.method, budget=_budget(args))
    with any_size_ints():
        header = ["n", "m", "s", "method", "value"]
        value = str(zv.value)
        row = [args.n, args.m, args.s, zv.method, value]
        payload = dict(zip(header, row))
        text = f"Z(n={args.n}; m={args.m}, s={args.s}) = {value} [{zv.method}]"
        if args.approx:
            approx = _approx(zv.value)
            payload["approx"] = approx
            header.append("approx")
            row.append(repr(approx))
            text += f" (approx {approx!r})"
        _render_rows(args, header, [row], payload, [text])
    return 0


def _value_rows(index, values, approx):
    """Header, rows [i, value] (plus a decimal approximation) and the value
    strings of a list, each value formatted once for the rows and the JSON."""
    texts = [str(v) for v in values]
    header = [index, "value"] + (["approx"] if approx else [])
    rows = [[i, text] for i, text in enumerate(texts)]
    if approx:
        for row, v in zip(rows, values):
            row.append(repr(_approx(v)))
    return header, rows, texts


def _triangle(n_max, entry):
    """Header, rows [n, k, entry(n, k)] for 0 <= k <= n <= n_max, and the
    rows as JSON values."""
    rows = [[n, k, entry(n, k)] for n in range(n_max + 1) for k in range(n + 1)]
    return ["n", "k", "value"], rows, [{"n": n, "k": k, "value": text} for n, k, text in rows]


def cmd_table(args) -> int:
    n_max = args.n_max
    if args.table == "zeta" and args.n is None:
        raise BadParams("table zeta needs --n")
    if args.table != "zeta" and n_max is None:
        raise BadParams(f"table {args.table} needs --n-max")
    if n_max is not None and n_max < 0:
        raise BadParams("--n-max must be >= 0")
    q = parse_qpoint(args.q) if args.table in ("stirling1", "stirling2") else None
    with any_size_ints():
        if args.table == "zeta":
            values = [zv.value for zv in zeta.zeta_product(args.n, args.s, args.n - 1)]
            header, rows, texts = _value_rows("m", values, args.approx)
            payload = {"kind": "zeta", "n": args.n, "s": args.s, "values": texts}
        elif q is not None:  # stirling1, stirling2
            fn = stirling1 if args.table == "stirling1" else stirling2
            header, rows, values = _triangle(n_max, lambda n, k: _format_value(fn(n, k, r=args.r, s=args.s, q=q)))
            payload = {"kind": args.table, "r": args.r, "s": args.s, "q": args.q, "values": values}
        elif args.table == "rstirling":
            header, rows, values = _triangle(n_max, lambda n, k: str(rstirling1(n, k, args.r)))
            payload = {"kind": "rstirling", "r": args.r, "values": values}
        else:  # bernoulli
            if args.kind == "order":
                vals = seqlib._prefix(n_max, seqlib._bernoulli_orders, args.alpha)[: n_max + 1]
                label = f"order-{args.alpha}"
            else:
                vals = seqlib._prefix(n_max, seqlib._norlund_numbers)[: n_max + 1]
                label = "norlund"
            header, rows, texts = _value_rows("n", vals, args.approx)
            payload = {"kind": "bernoulli", "family": label, "values": texts}
        _render_rows(args, header, rows, payload)
    return 0


def cmd_poly(args) -> int:
    p = zeta.zeta_poly_in_n(args.m, args.s, degree_cap=args.degree_cap)
    coeffs = [str(c) for c in p.coeffs]
    payload = {"m": args.m, "s": args.s, "degree": p.degree(), "coefficients": coeffs}
    rows = [[k, c] for k, c in enumerate(coeffs)]
    text = f"Z(n; m={args.m}, s={args.s}) = {poly_str(p, 'n')}"
    _render_rows(args, ["power", "coefficient"], rows, payload, [text])
    return 0


def _worker_count(jobs: int) -> int:
    """Worker processes for ``verify --jobs``: the request, capped at the
    number of CPUs (more workers than cores only add start-up cost)."""
    return min(jobs, os.cpu_count() or 1)


def _failure_entry(case, result) -> dict:
    """Report entry of a failed case, from its first recorded failure: a
    comparison shows its two values, any other sweep its whole record."""
    label, _name, params = case
    first = result.first_failure()
    actual = first["actual"] if set(first) == {"expected", "actual"} else first
    return {"case": label, "params": params, "expected": str(first.get("expected", "identity")),
            "actual": str(actual), "routes": result.routes}


def cmd_verify(args) -> int:
    for name in ("n_max", "m_max", "s_max", "trunc", "jobs"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise BadParams(f"--{name.replace('_', '-')} must be >= 1")
    budget = _budget(args)
    if args.out:
        # as a shell redirect does: an unwritable target is refused before any case runs
        _emit("", args.out)
    start = time.monotonic()
    cases = verify.suite_cases(args.suite, n_max=args.n_max, m_max=args.m_max, s_max=args.s_max,
                               trunc=args.trunc, budget=budget)
    jobs = _worker_count(args.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(verify.run_case, cases))
    else:
        results = [verify.run_case(c) for c in cases]
    failed = [_failure_entry(case, res) for case, res in zip(cases, results) if not res.passed]
    failures = sorted(failed, key=lambda f: f["case"])
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {"suite": args.suite, "cases": len(cases), "failures": failures, "elapsed_ms": elapsed_ms}
    lines = [
        f"suite {args.suite}: {'PASS' if not failures else 'FAIL'} "
        f"({len(cases)} cases, {len(failures)} failures, {elapsed_ms} ms)"
    ]
    lines += [f"  FAIL {f['case']}: expected {f['expected']}, got {f['actual']}" for f in failures]
    rows = [[args.suite, len(cases), len(failures), elapsed_ms]]
    rows += [["FAIL", f["case"], f["expected"], f["actual"]] for f in failures]
    _render_rows(args, ["suite", "cases", "failures", "elapsed_ms"], rows, report, lines)
    return 4 if failures else 0


_COMMANDS = {"value": cmd_value, "table": cmd_table, "poly": cmd_poly, "verify": cmd_verify}

#: Each refusal and its exit code, in the order they are matched:
#: ``BadParams`` and ``UnsupportedClosedForm`` are both ``ValueError``s.
_EXIT_CODES = {BudgetExceeded: 2, UnsupportedClosedForm: 3, ValueError: 1}


def _build_parser() -> _Parser:
    # --help shows the docstring's paragraphs for users, not the last one on
    # the code; under -OO there is no docstring
    parser = _Parser(prog="qmzv", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_value = sub.add_parser("value", help="compute one exact value")
    p_value.add_argument("--n", type=int, required=True)
    p_value.add_argument("--m", type=int, required=True)
    p_value.add_argument("--s", type=int, required=True)
    p_value.add_argument("--method", choices=tuple(zeta.ROUTES), default="product")
    p_value.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_value.add_argument("--budget", type=int)
    p_value.add_argument("--approx", action="store_true")
    p_value.add_argument("--out")

    p_table = sub.add_parser("table", help="dump a value or coefficient table")
    p_table.add_argument("table", choices=_TABLE_KINDS, metavar="kind")
    p_table.add_argument("--n", type=int)
    p_table.add_argument("--s", type=int, default=1)
    p_table.add_argument("--r", type=int, default=1)
    p_table.add_argument("--q", default="symbolic",
                         help="q-point: 'symbolic', a rational like 2/3, or root:<n>")
    p_table.add_argument("--n-max", "--nmax", dest="n_max", type=int)
    p_table.add_argument("--kind", choices=("norlund", "order"), default="norlund",
                         help="bernoulli family selector")
    p_table.add_argument("--alpha", type=int, default=1)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--approx", action="store_true")
    p_table.add_argument("--out")

    p_poly = sub.add_parser("poly", help="value polynomial in n for fixed (m, s)")
    p_poly.add_argument("--m", type=int, required=True)
    p_poly.add_argument("--s", type=int, required=True)
    p_poly.add_argument("--degree-cap", type=int, default=16)
    p_poly.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_poly.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run an identity verification suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("--n-max", "--nmax", dest="n_max", type=int)
    p_verify.add_argument("--m-max", dest="m_max", type=int)
    p_verify.add_argument("--s-max", dest="s_max", type=int)
    p_verify.add_argument("--trunc", type=int)
    p_verify.add_argument("--budget", type=int)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out")

    return parser


_PARSER = None  # built by the first main() call, not at import


def _join_negative_q(argv) -> list:
    """argv with a ``--q`` token and a following value that starts with a
    single "-" joined as ``--q=-5/7``: argparse reads such a value as an
    option unless it looks like a plain negative number."""
    joined = []
    for token in argv:
        if joined and joined[-1] == "--q" and token.startswith("-") and not token.startswith("--"):
            joined[-1] = f"--q={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(_join_negative_q(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
