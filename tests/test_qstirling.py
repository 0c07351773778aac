import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qmzv import exactnum, qstirling
from qmzv.cyclo import cyclo_ctx
from qmzv.exactnum import UniPoly, kronecker_unpack, kronecker_width
from qmzv.qstirling import (
    BadParams,
    RationalQ,
    RootOfUnityQ,
    SymbolicQ,
    falling_product,
    orthogonality_check,
    qfact,
    qnum,
    rstirling1,
    stirling1,
    stirling1_closed,
    stirling2,
    stirling2_iterated,
)

F = Fraction
SYM = SymbolicQ()
Q1 = RationalQ(F(1))


# test-local classical oracles


@lru_cache(maxsize=None)
def classic_s1(n, k):
    # unsigned first kind
    if n == 0 and k == 0:
        return 1
    if k < 0 or k > n or n < 0:
        return 0
    return classic_s1(n - 1, k - 1) + (n - 1) * classic_s1(n - 1, k)


@lru_cache(maxsize=None)
def classic_s2(n, k):
    if n == 0 and k == 0:
        return 1
    if k < 0 or k > n or n < 0:
        return 0
    return classic_s2(n - 1, k - 1) + k * classic_s2(n - 1, k)


# ------------------------------------------------------------------ q-basics


def test_qnum_examples():
    assert qnum(0, SYM) == UniPoly()
    assert qnum(3, SYM) == UniPoly((1, 1, 1))
    assert qnum(4, RootOfUnityQ(4)) == 0
    assert qnum(3, Q1) == 3


def test_qpoint_one_is_the_rings_one():
    assert SYM.one() == UniPoly((1,)) and isinstance(SYM.one(), UniPoly)
    for value in (F(2, 3), F(0)):
        one = RationalQ(value).one()
        assert one == Fraction(1) and isinstance(one, Fraction)
    assert RootOfUnityQ(7).one() == cyclo_ctx(7).one()


def test_qfact_examples():
    assert qfact(0, SYM) == UniPoly((1,))
    assert qfact(3, SYM) == UniPoly((1, 1)) * UniPoly((1, 1, 1))
    assert qfact(2, Q1) == 2


def test_falling_product_examples():
    assert falling_product(2, 2, 1, SYM) == UniPoly((0, 0, UniPoly((1,))))
    # classical falling factorial x(x-1)(x-2)
    assert falling_product(3, 1, 1, Q1) == UniPoly((F(0), F(2), F(-3), F(1)))
    # r = 2, s = 2, n = 3: x^2 (x - (1+q)^2)
    got = falling_product(3, 2, 2, SYM)
    assert got.coeff(3) == UniPoly((1,))
    assert got.coeff(2) == -UniPoly((1, 1)) ** 2
    assert got.coeff(1) == 0 and got.coeff(0) == 0


def test_falling_product_needs_n_ge_r():
    with pytest.raises(BadParams):
        falling_product(1, 2, 1, SYM)


# ---------------------------------------------------------------- triangles


def test_first_kind_diagonal_and_row_r():
    for r in (1, 2, 3):
        for n in range(0, 8):
            assert stirling1(n, n, r, 2, SYM) == UniPoly((1,))
        for k in range(0, 4):
            want = UniPoly((1,)) if k == 3 else 0
            assert stirling1(3, k, 3, 1, SYM) == want


def test_first_kind_column_r_display():
    # [n r] = ([n-1]!/[r-1]!)^s, here via the product of q-numbers
    for r in (1, 2, 3):
        for s in (1, 2):
            for n in range(r + 1, 8):
                prod = UniPoly((1,))
                for i in range(r, n):
                    prod = prod * qnum(i, SYM) ** s
                assert stirling1(n, r, r, s, SYM) == prod


def test_first_kind_subdiagonal_display():
    for r in (1, 2):
        for s in (1, 2, 3):
            for n in range(r + 1, 8):
                total = UniPoly()
                for j in range(r, n):
                    total = total + qnum(j, SYM) ** s
                assert stirling1(n, n - 1, r, s, SYM) == total


def test_second_kind_column_r_display():
    for r in (1, 2, 3):
        for s in (1, 2):
            for n in range(r, 8):
                assert stirling2(n, r, r, s, SYM) == qnum(r, SYM) ** ((n - r) * s)


def test_second_kind_examples():
    assert stirling2(4, 2, 2, 1, Q1) == 4
    total = UniPoly()
    for j in range(1, 5):
        total = total + qnum(j, SYM) ** 2
    assert stirling2(5, 4, 1, 2, SYM) == total


def test_classical_specialization():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert stirling1(n, k, 1, 1, Q1) == classic_s1(n, k)
            assert stirling2(n, k, 1, 1, Q1) == classic_s2(n, k)
    assert stirling1(3, 2, 1, 1, Q1) == 3
    assert stirling2(4, 2, 1, 1, Q1) == 7


def test_expansion_first_kind():
    # the defining expansion: product = sum_k (-1)^(n-k) [n k] x^k
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for n in range(r, 9):
                want = falling_product(n, r, s, SYM)
                coeffs = []
                for k in range(n + 1):
                    e = stirling1(n, k, r, s, SYM)
                    coeffs.append(e if (n - k) % 2 == 0 else -1 * e)
                assert UniPoly(coeffs) == want, (r, s, n)


def test_expansion_second_kind():
    # x^n = sum_k {n k} (x)_k for n >= r; the entry e scales the x-poly
    # coefficientwise (e lives in the coefficient ring)
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for n in range(r, 9):
                acc = UniPoly()
                for k in range(r, n + 1):
                    e = stirling2(n, k, r, s, SYM)
                    if e == 0:
                        continue
                    acc = acc + UniPoly(c * e for c in falling_product(k, r, s, SYM).coeffs)
                want = UniPoly([0] * n + [UniPoly((1,))])
                assert acc == want, (r, s, n)


# -------------------------------------------------------------- closed forms


def test_stirling1_closed_examples():
    assert stirling1_closed(4, 2, 1, 1, Q1) == (11, 11)
    assert stirling1_closed(4, 3, 2, 1, Q1) == (5, 5)


def test_stirling1_closed_matches_recurrence():
    for q in (SYM, Q1, RationalQ(F(7, 5)), RationalQ(F(-5, 7)), RootOfUnityQ(7)):
        for r in (1, 2):
            for s in (1, 2):
                for n in range(r + 1, 7):
                    for m in range(r, n):
                        a, b = stirling1_closed(n, m, r, s, q)
                        want = stirling1(n, m, r, s, q)
                        assert a == want and b == want, (q, r, s, n, m)


def test_stirling1_closed_enumerates_the_product_side(monkeypatch):
    depths = []
    real = qstirling.tuple_product_sum

    def counting(row, depth, *args, **kwargs):
        depths.append(depth)
        return real(row, depth, *args, **kwargs)

    monkeypatch.setattr(qstirling, "tuple_product_sum", counting)
    for q in (SYM, RationalQ(F(7, 5))):
        for n, m, r in ((6, 2, 1), (7, 4, 2), (5, 4, 1)):
            depths.clear()
            a, b = stirling1_closed(n, m, r, 2, q)
            assert a == b == stirling1(n, m, r, 2, q)
            # the product side first, then (off symbolic q) the reciprocal side
            assert depths == ([n - m] if q is SYM else [n - m, m - r]), (q, n, m, r)


def test_stirling1_closed_refuses_a_vanishing_q_number():
    with pytest.raises(BadParams, match=r"\[7\]_q vanishes"):
        stirling1_closed(8, 3, 1, 1, RootOfUnityQ(7))
    with pytest.raises(BadParams, match=r"\[2\]_q vanishes"):
        stirling1_closed(3, 1, 1, 1, RationalQ(-1))


def test_stirling1_closed_range_check():
    with pytest.raises(BadParams):
        stirling1_closed(4, 4, 1, 1, Q1)
    with pytest.raises(BadParams):
        stirling1_closed(4, 1, 2, 1, Q1)


def test_stirling2_iterated_examples():
    assert stirling2_iterated(4, 2, 1, 1, Q1) == (7, 7)
    nested, monotone = stirling2_iterated(3, 2, 1, 2, Q1)
    want = stirling2(3, 2, 1, 2, Q1)
    assert nested == want and monotone == want == 5


def test_stirling2_iterated_matches_recurrence():
    for q in (SYM, Q1, RationalQ(F(2)), RationalQ(F(-5, 7)), RootOfUnityQ(5)):
        for r in (1, 2):
            for s in (1, 2):
                for n in range(r + 1, 7):
                    for k in range(r + 1, n + 1):
                        a, b = stirling2_iterated(n, k, r, s, q)
                        want = stirling2(n, k, r, s, q)
                        assert a == want and b == want, (q, r, s, n, k)


def test_stirling2_iterated_range_check():
    with pytest.raises(BadParams):
        stirling2_iterated(4, 1, 1, 1, Q1)


# ------------------------------------------------------------- orthogonality


def test_orthogonality_symbolic():
    res = orthogonality_check(8, 1, 1, SYM)
    assert res.passed and res.cases == 2 * 9 * 9


def test_orthogonality_higher_params():
    assert orthogonality_check(6, 2, 2, RootOfUnityQ(5)).passed
    assert orthogonality_check(6, 3, 2, SYM).passed


def test_orthogonality_diagonal_case():
    # n = m term is 1 for both identities even below the offset r
    res = orthogonality_check(3, 3, 1, SYM)
    assert res.passed


def test_bad_indices_and_kinds_are_refused():
    q = RationalQ(F(2, 3))
    for call, args, message in [
        (qnum, (-1, q), "q-number index must be >= 0"),
        (qfact, (-1, q), "q-factorial index must be >= 0"),
        (falling_product, (3, 0, 1, q), "need r >= 1 and s >= 1"),
        (qstirling.StirlingTable, ("third", 1, 1, q), "unknown kind 'third'"),
        (qstirling.StirlingTable("first", 2, 1, q).weight, (1,), "weight index must be >= r"),
        (stirling1_closed, (4, 2, 1, 0, q), "need s >= 1"),
        (stirling2_iterated, (4, 2, 0, 1, q), "need r >= 1 and s >= 1"),
    ]:
        with pytest.raises(BadParams) as info:
            call(*args)
        assert str(info.value) == message, (call.__name__, args)


def test_orthogonality_refuses_a_negative_n_max():
    for q in (SYM, Q1, RootOfUnityQ(5)):
        with pytest.raises(BadParams):
            orthogonality_check(-1, 1, 1, q)
        res = orthogonality_check(0, 2, 2, q)
        assert res.passed and res.cases == 2


def test_orthogonality_symbolic_at_the_benchmark_sizes():
    # the widest packed widths: at s = 3 the entries have up to 235
    # coefficients of up to 93 bits
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            res = orthogonality_check(14, r, s, SYM)
            assert res.passed and res.cases == 2 * 15 * 15


def _reference_failures(r, s, n_max, q=SYM):
    # both identities summed literally in q's ring over the shared tables' entries
    first = [[stirling1(n, k, r, s, q) for k in range(n_max + 1)] for n in range(n_max + 1)]
    second = [[stirling2(n, k, r, s, q) for k in range(n_max + 1)] for n in range(n_max + 1)]
    zero = q.one() * 0
    failures = []
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            ks = range(max(n, m) + 1)
            sum1 = sum(((-1) ** ((n - k) % 2) * first[n][k] * second[k][m] for k in ks), zero)
            sum2 = sum(((-1) ** ((k - m) % 2) * second[n][k] * first[k][m] for k in ks), zero)
            delta = q.one() if n == m else zero
            failures += [{"identity": i, "n": n, "m": m} for i, v in ((1, sum1), (2, sum2)) if v != delta]
    return failures


def _check_width(r, s, n_max):
    # the check's width for the current tables: 1 + the largest sum over k of
    # min(len a, len b) max|a| max|b| over the terms a b of one identity at one
    # (n, m), which bounds every coefficient there
    def shape(fn, n, k):
        e = fn(n, k, r, s, SYM)
        cs = e.coeffs if isinstance(e, UniPoly) else ()
        return len(cs), max(map(abs, cs), default=0)

    size = n_max + 1
    fs = [[shape(stirling1, n, k) for k in range(size)] for n in range(size)]
    ss = [[shape(stirling2, n, k) for k in range(size)] for n in range(size)]
    bound = max(
        sum(min(a[n][k][0], b[k][m][0]) * a[n][k][1] * b[k][m][1] for k in range(size))
        for a, b in ((fs, ss), (ss, fs))
        for n in range(size)
        for m in range(size)
    )
    return kronecker_width(bound + 1)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("fault", ["+1", "-1", "alias"])
def test_orthogonality_records_a_corrupted_entry(monkeypatch, kind, fault):
    # fresh tables for this test only; monkeypatch puts the shared ones back
    monkeypatch.setattr(qstirling, "_TABLES", {})
    r, s, n_max, n0, k0 = 2, 2, 9, 8, 4
    assert orthogonality_check(n_max, r, s, SYM).passed
    col = qstirling._table(kind, r, s, SYM)._cols[k0]
    entry = UniPoly(col[n0 - k0])
    if fault == "alias":
        # q^(j+1) - 2^(8w) q^j vanishes at q = 2^(8w) for the clean width w
        w = _check_width(r, s, n_max)
        j = entry.degree() // 2
        delta = UniPoly([0] * j + [-(2 ** (8 * w)), 1])
        assert delta(2 ** (8 * w)) == 0
    else:
        delta = UniPoly((int(fault),))
    col[n0 - k0] = (entry + delta).coeffs
    res = orthogonality_check(n_max, r, s, SYM)
    want = _reference_failures(r, s, n_max)
    assert want and res.failures == want
    assert res.cases == 2 * (n_max + 1) ** 2


def _plus_one_on_top(e):
    return e[:-1] + (e[-1] + 1,)


def _plus_one_on_constant(e):
    return (e[0] + 1,) + e[1:]


@pytest.mark.parametrize(
    "q, kind, n0, k0, corrupt",
    [
        (SYM, "first", 14, 1, _plus_one_on_top),
        (SYM, "second", 9, 4, _plus_one_on_constant),
        (RationalQ(F(2, 3)), "first", 12, 5, lambda e: e + F(1, 7**20)),
        (RationalQ(F(2, 3)), "second", 9, 4, lambda e: e + F(1, 7**20)),
        (RationalQ(F(-1)), "first", 14, 1, lambda e: e + 1),
        (RationalQ(F(-1)), "second", 9, 4, lambda e: e + 1),
        # + zeta^5 and + 1 on the stored coordinates
        (RootOfUnityQ(7), "first", 14, 1, lambda e: e[:5] + (e[5] + 1,)),
        (RootOfUnityQ(7), "second", 9, 4, _plus_one_on_constant),
    ],
    ids=["symbolic-top", "symbolic-constant", "2/3-first", "2/3-second", "-1-first", "-1-second",
         "root7-top", "root7-constant"],
)
def test_orthogonality_at_the_widest_sizes_fails_on_one_corrupted_entry(
    monkeypatch, q, kind, n0, k0, corrupt
):
    # the tables of a passing check at (n_max, r, s) = (14, 1, 3), one stored
    # entry changed: the packed or graded sums, and at a root of unity their
    # reduction modulo Phi_n, must see it
    monkeypatch.setattr(qstirling, "_TABLES", {})
    n_max, r, s = 14, 1, 3
    assert orthogonality_check(n_max, r, s, q).passed
    col = qstirling._table(kind, r, s, q)._cols[k0]
    col[n0 - k0] = corrupt(col[n0 - k0])
    res = orthogonality_check(n_max, r, s, q)
    assert not res.passed
    assert res.failures == _reference_failures(r, s, n_max, q)
    assert res.cases == 2 * (n_max + 1) ** 2


def _plus_one(cell):
    # + 1 on a graded int, or on the constant coefficient or coordinate of a tuple
    return cell + 1 if isinstance(cell, int) else _plus_one_on_constant(cell)


ORTHOGONALITY_QS = pytest.mark.parametrize(
    "q", [SYM, RationalQ(F(-5, 7)), RootOfUnityQ(7)], ids=["symbolic", "-5/7", "root7"]
)


@ORTHOGONALITY_QS
def test_orthogonality_sums_the_second_identity_only_to_locate_failures(monkeypatch, q):
    # the first identity holding everywhere implies the second, so a passing
    # check forms one product of the two triangles and a failing one two
    monkeypatch.setattr(qstirling, "_TABLES", {})
    calls = []
    product = qstirling._product_is_identity

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(qstirling, "_product_is_identity", counted)
    n_max, r, s = 10, 2, 2
    res = orthogonality_check(n_max, r, s, q)
    assert res.passed and res.cases == 2 * 11 * 11
    assert len(calls) == 1
    calls.clear()
    col = qstirling._table("second", r, s, q)._cols[4]
    col[3] = _plus_one(col[3])
    res = orthogonality_check(n_max, r, s, q)
    assert not res.passed and res.cases == 2 * 11 * 11
    assert len(calls) == 2


@ORTHOGONALITY_QS
@pytest.mark.parametrize(
    "cells",
    [
        (("first", 7, 3), ("second", 9, 2)),
        (("first", 6, 2), ("first", 10, 5)),
        (("second", 5, 3), ("second", 10, 9)),
    ],
    ids=["one-in-each", "two-in-first", "two-in-second"],
)
def test_orthogonality_locates_two_corrupted_entries(monkeypatch, q, cells):
    # the failure path sums both identities: its records must be the literal
    # sums' failures, in the same order
    monkeypatch.setattr(qstirling, "_TABLES", {})
    n_max, r, s = 10, 2, 2
    assert orthogonality_check(n_max, r, s, q).passed
    for kind, n0, k0 in cells:
        col = qstirling._table(kind, r, s, q)._cols[k0]
        col[n0 - k0] = _plus_one(col[n0 - k0])
    res = orthogonality_check(n_max, r, s, q)
    want = _reference_failures(r, s, n_max, q)
    assert want and res.failures == want
    assert {f["identity"] for f in want} == {1, 2}
    assert res.cases == 2 * (n_max + 1) ** 2


def test_orthogonality_reads_the_column_stores_and_decodes_no_entry(monkeypatch):
    # the check reads the stores directly, so an ``entry`` that raises,
    # even while the fresh tables fill, leaves it passing
    monkeypatch.setattr(qstirling, "_TABLES", {})

    def entry(self, n, k):
        raise AssertionError("orthogonality_check decoded an entry")

    monkeypatch.setattr(qstirling.StirlingTable, "entry", entry)
    for q in (SYM, RationalQ(F(-5, 7)), RootOfUnityQ(7)):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                res = orthogonality_check(10, r, s, q)
                assert res.passed and res.cases == 2 * 11 * 11, (q, r, s)


def test_every_stored_cell_is_an_int_or_a_tuple_of_ints(monkeypatch):
    # graded ints at a rational q, int coefficient or coordinate tuples
    # elsewhere: no UniPoly, Fraction or CycloElem is stored
    for q in (SYM, RationalQ(F(2, 3)), RationalQ(F(-1)), RootOfUnityQ(7), RootOfUnityQ(12)):
        monkeypatch.setattr(qstirling, "_TABLES", {})
        for kind in ("first", "second"):
            for r in (1, 2):
                for s in (1, 3):
                    table = qstirling._table(kind, r, s, q)
                    table.entry(14, 7)
                    cells = [c for col in table._cols[r:] for c in col]
                    # columns r..7, each from its diagonal down eight rows
                    assert len(cells) == 8 * (8 - r)
                    for c in cells:
                        if isinstance(q, RationalQ):
                            assert type(c) is int, (q, kind, r, s, c)
                        else:
                            assert type(c) is tuple and all(type(x) is int for x in c), (q, kind, r, s, c)


def test_packed_width_covers_the_largest_signed_sum():
    # triangles with a diagonal 1 and every entry below it
    # top (1 + q + ... + q^(L-1)): with all its terms of one sign, the sum at
    # (n, m) = (n_max, 0) reaches the per-term bound in its coefficient L-1, and
    # minus 1 at L = 1 one more; each must read back exactly at the chosen width
    for n_max in (0, 1, 3, 14):
        size = n_max + 1
        for length in (1, 2, 7, 30):
            for bits in range(1, 70, 3):
                for top in (2**bits - 1, 2**bits):
                    worst = (top,) * length
                    rows = [[worst if k < n else (1,) if k == n else 0 for k in range(size)] for n in range(size)]
                    fs, ss, w = qstirling._packed(rows, rows)
                    # two terms with a diagonal 1 and n_max - 1 products of two worst
                    bound = 2 * top + (n_max - 1) * length * top * top if n_max else 1
                    assert w == kronecker_width(bound + 1)
                    literal = sum((UniPoly(rows[n_max][k]) * UniPoly(rows[k][0]) for k in range(size)), UniPoly())
                    for sign in (1, -1):
                        total = sign * sum(fs[n_max][k] * ss[k][0] for k in range(size)) - 1
                        want = [sign * c for c in literal.coeffs]
                        want[0] -= 1
                        assert kronecker_unpack(total, w, len(want)) == want
    # a bound of 2^7 - 1 needs the +1 for delta: one byte would not hold -2^7
    one = (1,)
    fs, ss, w = qstirling._packed([[one, 0], [(63,), one]], [[one, 0], [(64,), one]])
    assert w == 2 and kronecker_unpack(-(fs[1][0] * ss[0][0] + fs[1][1] * ss[1][0]) - 1, w, 1) == [-128]
    # the widest check of rational_identities packs at 13 bytes
    fs, ss = (
        [[qstirling._table(kind, 1, 3, SYM)._stored(n, k) for k in range(15)] for n in range(15)]
        for kind in ("first", "second")
    )
    assert qstirling._packed(fs, ss)[2] <= 13


# ----------------------------------------------------------------- rstirling


def test_rstirling_examples():
    assert rstirling1(4, 3, 2) == 5
    assert rstirling1(10, 10, 5) == 1
    assert rstirling1(10, 9, 5) == 35


def test_rstirling_equals_table_specialization():
    for r in (1, 2, 3):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert stirling1(n, k, r, 1, Q1) == rstirling1(n, k, r)


def test_rstirling_generating_identity():
    # x^r (x - r)(x - r - 1)...(x - n + 1) = sum_k (-1)^(n-k) [n k] x^k
    for r in (1, 2, 3):
        for n in range(r, 9):
            poly = UniPoly([0] * r + [F(1)])
            for i in range(r, n):
                poly = poly * UniPoly((F(-i), F(1)))
            coeffs = [
                F((-1) ** (n - k) * rstirling1(n, k, r)) for k in range(n + 1)
            ]
            assert poly == UniPoly(coeffs)


# ------------------------------------------------------ evaluation commutes


def test_symbolic_table_evaluates_to_field_table():
    n_root = 7
    ctx = cyclo_ctx(n_root)
    z = ctx.zeta()
    root = RootOfUnityQ(n_root)
    for r in (1, 2):
        for s in (1, 2):
            for n in range(0, 7):
                for k in range(0, n + 1):
                    sym_entry = stirling1(n, k, r, s, SYM)
                    direct = stirling1(n, k, r, s, root)
                    sym_val = sym_entry(z) if isinstance(sym_entry, UniPoly) else sym_entry
                    assert sym_val == direct, ("first", r, s, n, k)
                    sym_entry = stirling2(n, k, r, s, SYM)
                    direct = stirling2(n, k, r, s, root)
                    sym_val = sym_entry(z) if isinstance(sym_entry, UniPoly) else sym_entry
                    assert sym_val == direct, ("second", r, s, n, k)


def test_concurrent_table_growth_is_consistent():
    # memo fills are idempotent, so racing readers/growers must agree
    from concurrent.futures import ThreadPoolExecutor

    from qmzv.qstirling import StirlingTable

    table = StirlingTable("first", 2, 2, SYM)

    def fill(_):
        return [table.entry(n, k) for n in range(12) for k in range(n + 1)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(fill, range(8)))
    assert all(r == results[0] for r in results)
    assert table.entry(11, 2) == stirling1(11, 2, 2, 2, SYM)


def test_symbolic_table_evaluates_at_rational():
    # entries of degree up to a few hundred in q: the symbolic fill multiplies
    # long integer polynomials, checked here against Fraction arithmetic
    qv = F(3, 2)
    rat = RationalQ(qv)
    for kind in (stirling1, stirling2):
        for r in (1, 2):
            for s in (1, 2, 3):
                for n in range(0, 15):
                    for k in range(0, n + 1):
                        sym_entry = kind(n, k, r, s, SYM)
                        want = kind(n, k, r, s, rat)
                        got = sym_entry(qv) if isinstance(sym_entry, UniPoly) else sym_entry
                        assert got == want, (kind.__name__, r, s, n, k)


def test_stirling_deep_row_has_no_recursion_limit():
    # [n, 2] at r = s = 1, q = 1 is the unsigned Stirling number (n-1)! H_(n-1)
    from math import factorial

    from qmzv.seqlib import harmonic

    assert stirling1(1100, 2, q=Q1) == factorial(1099) * harmonic(1099)


def test_bottom_up_fill_computes_what_the_recursion_computes():
    # a test-local recursive triangle records which entries it computes;
    # the bottom-up fill must memoize exactly those, request by request
    from qmzv.qstirling import StirlingTable

    def reference(kind, r, s, q):
        memo = {}

        def entry(n, k):
            if k < 0 or n < 0 or k > n:
                return 0
            if n == k:
                return q.one()
            if k < r:
                return 0
            if (n, k) not in memo:
                w = q.qnum(n - 1 if kind == "first" else k) ** s
                memo[(n, k)] = entry(n - 1, k - 1) + w * entry(n - 1, k)
            return memo[(n, k)]

        return entry, memo

    requests = [(9, 3), (9, 3), (12, 4), (6, 5), (14, 2), (14, 13), (3, 1), (20, 7)]
    # at q = zeta_n, n = 1, 2, 7 and 12, some weights vanish and 12 is composite
    points = [RationalQ(F(2, 3))] + [RootOfUnityQ(n) for n in (1, 2, 7, 12)]
    for q, kind, (r, s) in itertools.product(points, ("first", "second"), ((1, 1), (2, 2), (3, 1))):
        table = StirlingTable(kind, r, s, q)
        ref_entry, ref_memo = reference(kind, r, s, q)
        for n, k in requests:
            assert table.entry(n, k) == ref_entry(n, k)
            # the store holds graded ints at a rational q and coordinates at
            # a root of unity: compare the memoized positions, and the
            # entries read back from them
            memo = {
                (j + t, j)
                for j, col in enumerate(table._cols) if col is not None
                for t in range(1, len(col))
            }
            assert memo == ref_memo.keys()
            assert {key: table.entry(*key) for key in memo} == ref_memo


def test_root_of_unity_weights_are_powers_of_q_numbers():
    from qmzv.qstirling import StirlingTable

    for n in (1, 2, 6, 7, 12):
        q = RootOfUnityQ(n)
        for s in range(1, 6):
            table = StirlingTable("first", 1, s, q)
            for i in range(1, 3 * n + 1):
                assert table.weight(i) == qnum(i, q) ** s, (n, s, i)


def test_root_of_unity_fill_at_level_one_makes_no_field_product(monkeypatch):
    # every weight [i]_zeta is a sum of powers of zeta, and each cell one
    # product of coordinate tuples: no CycloElem is multiplied
    from qmzv.cyclo import CycloElem

    monkeypatch.setattr(qstirling, "_TABLES", {})
    calls = []
    real = CycloElem.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(CycloElem, "__mul__", counted)
    monkeypatch.setattr(CycloElem, "__rmul__", counted)
    q = RootOfUnityQ(13)
    assert stirling1(14, 7, 1, 1, q) != 0 and stirling2(14, 7, 1, 1, q) != 0
    assert calls == []


def test_times_qnum_power_is_the_product_with_the_weight():
    from qmzv.qstirling import _times_qnum_power

    rng = random.Random(29)
    for i in range(1, 21):
        for s in range(1, 5):
            for length in (0, 1, rng.randint(2, 40)):
                coeffs = [rng.randint(-10**6, 10**6) for _ in range(length)]
                want = UniPoly(coeffs) * qnum(i, SYM) ** s
                assert UniPoly(_times_qnum_power(coeffs, i, s)) == want, (i, s, coeffs)


def test_symbolic_fill_runs_no_polynomial_product(monkeypatch):
    # fresh tables for this test only; monkeypatch puts the shared ones back
    monkeypatch.setattr(qstirling, "_TABLES", {})

    def refuse(*args):
        raise AssertionError("a polynomial product in a symbolic fill")

    monkeypatch.setattr(exactnum, "poly_mul", refuse)
    monkeypatch.setattr(UniPoly, "__mul__", refuse)
    for r, s in ((1, 1), (2, 3), (3, 2)):
        for n in range(r, 13):
            for k in range(n + 1):
                stirling1(n, k, r, s, SYM)
                stirling2(n, k, r, s, SYM)


def _weight_recurrence(kind, r, s, n_max):
    # the triangle {(n, k): entry} by the plain recurrence at a symbolic q:
    # (n-1, k-1) + ([i]_q)^s (n-1, k), i = n-1 for the first kind, k for the second
    tri = {}
    for n in range(n_max + 1):
        for k in range(n + 1):
            if n == k:
                tri[n, k] = UniPoly((1,))
            elif k < r:
                tri[n, k] = UniPoly()
            else:
                w = qnum(n - 1 if kind == "first" else k, SYM) ** s
                tri[n, k] = tri[n - 1, k - 1] + w * tri[n - 1, k]
    return tri


def test_symbolic_fill_equals_the_weight_recurrence():
    for kind, fn in (("first", stirling1), ("second", stirling2)):
        for r in (1, 2, 3):
            for s in (1, 2, 3, 4):
                for (n, k), want in _weight_recurrence(kind, r, s, 16).items():
                    assert fn(n, k, r, s, SYM) == want, (kind, r, s, n, k)


def test_rstirling_deep_entry_has_no_recursion_limit():
    # [n, 2]_1 is the unsigned Stirling number (n-1)! H_(n-1)
    from math import factorial

    from qmzv.seqlib import harmonic

    assert rstirling1(1500, 2, 1) == factorial(1499) * harmonic(1499)


def test_stirling2_iterated_deep_levels_have_no_recursion_limit():
    # {1101, 1100} at r = s = 1, q = 1 is C(1101, 2)
    assert stirling2_iterated(1101, 1100, q=Q1) == (605550, 605550)


def test_concurrent_rstirling_fills_append_each_entry_once():
    # threads switching every microsecond race to grow the same columns
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from math import factorial

    from qmzv import qstirling
    from qmzv.seqlib import harmonic

    want = factorial(299) * harmonic(299)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            qstirling._TABLES.clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda _: rstirling1(300, 2, 1), range(4)))
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)


def test_racing_table_lookups_share_one_table():
    # threads switching every microsecond ask for the same fresh key at once
    import sys
    import threading

    from qmzv import qstirling

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(100):
            q = RationalQ(F(round_ + 1, 7919))
            barrier = threading.Barrier(8)
            got = []

            def lookup():
                barrier.wait()
                got.append(qstirling._table("first", 1, 1, q))

            threads = [threading.Thread(target=lookup) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 8 and all(tab is got[0] for tab in got), round_
            del qstirling._TABLES[("first", 1, 1, q)]
    finally:
        sys.setswitchinterval(interval)
