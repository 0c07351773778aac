"""Identity-verification suites, shared by ``qmzv verify`` and the
acceptance tests.

A case is ``(label, case_name, params)``: :data:`CASES` maps the case name to
a module-level function (picklable for ``verify --jobs``) that takes
``params`` as keywords and returns a :class:`~qmzv.util.CheckResult`.
:data:`SUITES` maps each suite name to its grid, whose keyword defaults are
the bounds ``qmzv verify`` uses when none is given.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import seqlib, zeta
from .exactnum import poly_str
from .qstirling import orthogonality_check, parse_qpoint
from .util import CheckResult
from .zeta import DEFAULT_BRUTE_BUDGET


def _result(ok, expected, actual, routes) -> CheckResult:
    """One-entry result of a case that compares two values."""
    result = CheckResult(routes)
    result.record(ok, expected=expected, actual=actual)
    return result


def _compare(got, want, routes, show=str) -> CheckResult:
    return _result(got == want, show(want), show(got), routes)


def _brute_fits(n, m, budget) -> bool:
    """Whether a case compares against the brute oracle: its C(n-1, m)
    tuples fit the budget and the cap of 20000 that keeps sweeps short."""
    return math.comb(n - 1, m) <= min(budget, 20000)


def _case_routes(n, m, s, budget):
    # the Q(zeta_n) product is the reference and the complement engine joins
    # every case; the multisection, whose cost doubles with s, and the Newton
    # engine, whose cost grows as s^2, each join when s <= 6 or when
    # ``_product_row`` picks them; the other routes come from ``zeta.ROUTES``
    engines = zeta.ROW_ENGINES
    reference = zeta._zeta_multi(n, m, s, zeta._field_row)

    def from_table(name):
        return lambda: zeta.ROUTES[name](n, m, s, budget).value

    routes = {name: from_table(name) for name in ("stirling", "bell", "det")}
    routes["complement"] = lambda: zeta._zeta_multi(n, m, s, engines["complement"])
    picked = zeta._row_engine(n, s)
    for name in ("multisection", "newton"):
        if s <= 6 or picked == name:
            routes[name] = lambda engine=engines[name]: zeta._zeta_multi(n, m, s, engine)
    if _brute_fits(n, m, budget):
        routes["brute"] = from_table("brute")
    # each route runs on its own, so one that raises is reported beside the
    # others' values instead of hiding them
    values = {}
    for name, route in routes.items():
        try:
            values[name] = route()
        except Exception as exc:
            values[name] = f"{type(exc).__name__}: {exc}"
    bad = {k: v for k, v in values.items() if v != reference}
    actual = "; ".join(f"{k}={v}" for k, v in sorted(bad.items()))
    return _result(not bad, str(reference), actual or str(reference), ["product"] + sorted(values))


def _case_row_from_column(n, m, s):
    return _compare(zeta.zeta_row_from_column(n, m, s), zeta._zeta_single(n, m * s),
                    ["row-from-column", "single-index"])


def _case_binomial_det(n, s):
    return _compare(zeta.zeta_1s_det(n, s), zeta._zeta_single(n, s), ["binomial-det", "single-index"])


def _case_orthogonality(r, s, qspec, n_max):
    return orthogonality_check(n_max, r=r, s=s, q=parse_qpoint(qspec))


def random_sequence(rng: random.Random) -> list:
    """A rational sequence of random length 1..8 drawn from ``rng``."""
    length = rng.randint(1, 8)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]


def transform_round_trip(a) -> CheckResult:
    """The four forward routes of the sequence transform agree on ``a``, and
    both inverse routes recover ``a`` from its image."""
    result = CheckResult(["gtrudi"])
    b = []
    for m in range(1, len(a) + 1):
        vals = {route: seqlib.seq_transform_forward(a, m, route=route) for route in seqlib._FORWARD_ROUTES}
        result.record(len(set(vals.values())) == 1, forward=m, values=str(vals))
        b.append(vals["recurrence"])
    for n in range(1, len(a) + 1):
        det = seqlib.seq_transform_inverse(b, n, route="determinant")
        rec = seqlib.seq_transform_inverse(b, n, route="recurrence")
        result.record(det == rec == a[n - 1], inverse=n, det=str(det), rec=str(rec), want=str(a[n - 1]))
    return result


def _case_gtrudi(seed):
    return transform_round_trip(random_sequence(random.Random(seed)))


def _case_s2(n, m):
    closed = zeta.zeta_m2_closed(n, m)
    prod = zeta._zeta_multi(n, m, 2)
    via_rst, via_tuples = zeta.zeta_m2_rstirling(n, m)
    ok = closed == prod == via_rst == via_tuples
    actual = f"closed={closed} product={prod} rstirling={via_rst} tuples={via_tuples}"
    return _result(ok, str(prod), actual, ["closed", "product", "rstirling", "tuples"])


def _case_s3(n, m):
    return _compare(zeta.zeta_m3_closed(n, m), zeta._zeta_multi(n, m, 3), ["closed", "product"])


def _case_reference_poly(m, s):
    return _compare(zeta.zeta_poly_in_n(m, s), zeta.REFERENCE_POLYNOMIALS[(m, s)],
                    ["interpolated", "reference"], show=lambda p: poly_str(p, "n"))


def _case_constant_term(s):
    got = zeta.zeta_poly_in_n(1, s).coeff(0)
    want = Fraction((-1) ** (s - 1)) * seqlib.norlund(s) / math.factorial(s)
    known = zeta.REFERENCE_CONSTANT_TERMS
    ok = got == want and (s > len(known) or got == known[s - 1])
    return _result(ok, str(want), str(got), ["constant-term", "norlund"])


def _case_dgber(n, s, budget):
    if _brute_fits(n, 1, budget):
        want, route = zeta.zeta_brute(n, 1, s, budget=budget).value, "brute"
    else:
        want, route = zeta._zeta_multi(n, 1, s), "product"
    return _compare(zeta.zeta_1s_degenerate_bernoulli(n, s), want, ["degenerate-bernoulli", route])


CASES = {
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
    "btt26": zeta.harmonic_bernoulli_identity_check,
    "btt_decomposition": zeta.harmonic_decomposition_check,
    "logf": zeta.logf_identity_check,
}


# Grids.  Each takes every bound as a keyword and ignores those it does not use.


def _suite_routes(n_max=10, m_max=6, s_max=3, budget=DEFAULT_BRUTE_BUDGET, **_):
    for n in range(2, n_max + 1):
        for s in range(1, s_max + 1):
            for m in range(1, m_max + 1):
                yield (f"routes n={n} m={m} s={s}", "routes",
                       {"n": n, "m": m, "s": s, "budget": budget})
                yield (f"row-from-column n={n} m={m} s={s}", "row_from_column", {"n": n, "m": m, "s": s})
            yield (f"binomial-det n={n} s={s}", "binomial_det", {"n": n, "s": s})


def _suite_orthogonality(n_max=8, **_):
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for qspec in ("symbolic", "root:7"):
                yield (f"orthogonality r={r} s={s} q={qspec}", "orthogonality",
                       {"r": r, "s": s, "qspec": qspec, "n_max": n_max})


def _suite_gtrudi(**_):
    for seed in range(50):
        yield (f"gtrudi seed={seed:02d}", "gtrudi", {"seed": seed})


def _suite_s2(n_max=20, m_max=8, **_):
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            yield (f"s2 n={n} m={m}", "s2", {"n": n, "m": m})
    for m in range(1, 5):
        yield (f"s2 poly m={m}", "reference_poly", {"m": m, "s": 2})


def _suite_s3(n_max=14, m_max=5, **_):
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            yield (f"s3 n={n} m={m}", "s3", {"n": n, "m": m})
    for m in range(1, 5):
        yield (f"s3 poly m={m}", "reference_poly", {"m": m, "s": 3})


def _suite_dgber(n_max=20, s_max=8, budget=DEFAULT_BRUTE_BUDGET, **_):
    for n in range(2, n_max + 1):
        for s in range(1, s_max + 1):
            yield (f"dgber n={n} s={s}", "dgber", {"n": n, "s": s, "budget": budget})


def _suite_logf(trunc=12, **_):
    for s in (1, 2, 3):
        yield (f"logf s={s}", "logf", {"s": s, "trunc": trunc})


def _suite_polynomials(**_):
    for (m, s) in sorted(zeta.REFERENCE_POLYNOMIALS):
        yield (f"polynomial m={m} s={s}", "reference_poly", {"m": m, "s": s})
    for s in range(1, 10):
        yield (f"constant-term s={s}", "constant_term", {"s": s})


def _suite_btt26(n_max=20, s_max=8, **_):
    for n in range(2, n_max + 1):
        for j in range(1, 7):
            yield (f"btt26 n={n} j={j}", "btt26", {"n": n, "j": j})
        for s in range(1, s_max + 1):
            yield (f"btt26 decomposition n={n} s={s}", "btt_decomposition", {"n": n, "s": s})


SUITES = {
    "routes": _suite_routes,
    "orthogonality": _suite_orthogonality,
    "gtrudi": _suite_gtrudi,
    "s2": _suite_s2,
    "s3": _suite_s3,
    "dgber": _suite_dgber,
    "logf": _suite_logf,
    "polynomials": _suite_polynomials,
    "btt26": _suite_btt26,
}


def suite_cases(suite: str, **bounds) -> list:
    """The cases of one suite, or of every suite in registry order for
    ``"all"``.  A bound given as None keeps each suite's default."""
    given = {k: v for k, v in bounds.items() if v is not None}
    names = SUITES if suite == "all" else (suite,)
    return [case for name in names for case in SUITES[name](**given)]


def run_case(case) -> CheckResult:
    """Run one ``(label, case_name, params)`` case.  An exception the case
    raises is recorded as its one failure, so that a sweep still reports
    every case."""
    _label, name, params = case
    try:
        return CASES[name](**params)
    except Exception as exc:
        return _result(False, "no exception", f"{type(exc).__name__}: {exc}", [name])
