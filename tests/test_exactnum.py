import operator
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

import pytest

from qmzv.cyclo import cyclo_ctx
from qmzv.exactnum import (
    _KRONECKER_MIN_LEN,
    BadConstantTerm,
    DivisionByZero,
    DuplicateAbscissa,
    InexactDivision,
    ShapeViolation,
    UniPoly,
    det_cofactor,
    det_fraction_free,
    det_hessenberg,
    exact_div,
    kronecker_pack,
    kronecker_unpack,
    kronecker_width,
    newton_exp,
    newton_log,
    poly_divmod,
    poly_interpolate,
    power,
    series_inv,
    subset_product_sums,
    tuple_product_sum,
)
from qmzv.zeta import harmonic_q_series

F = Fraction


def rand_frac(rng, lo=-9, hi=9):
    return F(rng.randint(lo, hi), rng.randint(1, 9))


def rand_poly(rng, max_deg=5):
    return UniPoly([rand_frac(rng) for _ in range(rng.randint(0, max_deg + 1))])


# -------------------------------------------------------------- polynomials


def test_unipoly_zero_degree_is_none():
    assert UniPoly().degree() is None
    assert UniPoly((0, 0)).degree() is None
    assert UniPoly((0, 1)).degree() == 1


def test_unipoly_normalized_leading():
    p = UniPoly((F(1), F(2), F(0), F(0)))
    assert p.coeffs == (F(1), F(2))
    assert p.coeffs[-1] == 2


def test_unipoly_eval_and_arith():
    p = UniPoly((F(1), F(-2), F(1)))  # (x-1)^2
    assert p(F(3)) == 4
    assert (UniPoly((F(-1), F(1))) * UniPoly((F(-1), F(1)))) == p
    assert p - p == UniPoly()
    assert p + 1 == UniPoly((F(2), F(-2), F(1)))


def test_unipoly_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == UniPoly()
        assert a * b == b * a


def test_unipoly_degree_multiplicative_over_domain():
    rng = random.Random(13)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree() == a.degree() + b.degree()


def _schoolbook(a, b):
    # the reference product: the plain double loop, recursing into nested
    # polynomial coefficients so that no product inside it runs UniPoly.__mul__
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            both_poly = isinstance(ai, UniPoly) and isinstance(bj, UniPoly)
            out[i + j] = out[i + j] + (_schoolbook(ai.coeffs, bj.coeffs) if both_poly else ai * bj)
    return UniPoly(out)


def _int_coeffs(rng, length, bound):
    # signed coefficients up to bound, about a fifth of them interior zeros
    cs = [rng.randint(-bound, bound) if rng.random() < 0.8 else 0 for _ in range(length)]
    cs[-1] = cs[-1] or bound
    return cs


def _assert_int_product(a, b):
    want = _schoolbook(a, b)
    for got in (UniPoly(a) * UniPoly(b), UniPoly(b) * UniPoly(a)):
        assert got.coeffs == want.coeffs
        assert all(type(c) is int for c in got.coeffs)
    # squares, which ``poly_mul`` takes on one operand
    for p in (UniPoly(a), UniPoly(b)):
        assert (p * p).coeffs == _schoolbook(p.coeffs, p.coeffs).coeffs


def test_integer_products_equal_the_schoolbook_reference():
    rng = random.Random(29)
    cut = _KRONECKER_MIN_LEN
    shapes = [(1, 300), (7, 40), (cut - 1, cut - 1), (cut - 1, 3 * cut), (cut, cut),
              (cut, cut + 1), (cut + 1, 300), (60, 60), (150, 151)]
    for la, lb in shapes:
        for bound in (1, 9, 2**63, 10**40):
            _assert_int_product(_int_coeffs(rng, la, bound), _int_coeffs(rng, lb, bound))


def test_integer_products_at_byte_width_edges():
    # equal-sign operands reach the coefficient bound min(la, lb)·max|a|·max|b|
    # exactly, opposite signs its negative; alternating signs fill every slot
    cut = _KRONECKER_MIN_LEN
    for k in (1, 2, 3, 8):
        for v in (2 ** (8 * k) - 1, 2 ** (8 * k - 1), 2 ** (8 * k)):
            for la, lb in ((cut, cut), (cut, 3 * cut + 1), (2 * cut + 3, 2 * cut)):
                for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                    _assert_int_product([sa * v] * la, [sb * v] * lb)
                _assert_int_product([(-1) ** i * v for i in range(la)], [v] * lb)
                _assert_int_product([v, 0, -v] * la, [-1, v - 1, 0, 1] * lb)


def test_kronecker_pack_at_a_bound_of_a_whole_number_of_bytes():
    # bound = 2^(8k-1): a sum of packed terms whose every coefficient is
    # +bound, or every one -bound, reads back exactly at the width the bound
    # gives.  At width k the bound is the lemma's edge, 2^(8w-1): such a sum
    # cannot be unpacked there, but its value is still nonzero.
    for k in (1, 2, 3, 8):
        bound = 2 ** (8 * k - 1)
        w = kronecker_width(bound)
        for sign in (1, -1):
            for n in (1, 5, 40):
                total = kronecker_pack([sign * (bound - 1)] * n, w) + kronecker_pack([sign] * n, w)
                assert total == kronecker_pack([sign * bound] * n, w)
                assert total == sign * bound * sum(2 ** (8 * w * i) for i in range(n))
                assert kronecker_unpack(total, w, n) == [sign * bound] * n
                edge = 2 * kronecker_pack([sign * bound // 2] * n, k)
                assert edge == sign * bound * sum(2 ** (8 * k * i) for i in range(n)) != 0


def test_products_over_other_rings_equal_the_schoolbook_reference():
    rng = random.Random(31)
    cut = _KRONECKER_MIN_LEN
    ctx = cyclo_ctx(7)
    # (random coefficient, zero) of each ring: Fractions with Fraction(0),
    # Fractions with int 0, nested integer polynomials with the zero
    # polynomial, Q(zeta_7) with its zero
    rings = (
        (lambda: F(rng.randint(-99, 99), rng.randint(1, 99)), F(0)),
        (lambda: F(rng.randint(-99, 99), rng.randint(1, 99)), 0),
        (lambda: UniPoly(_int_coeffs(rng, cut + 1, 10**12)), UniPoly()),
        (lambda: ctx.element([F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(6)]),
         ctx.zero()),
    )
    for la, lb in ((cut - 1, cut), (cut, cut), (cut + 2, 40)):
        # one Fraction among ints: the schoolbook loop, exact Fraction results
        a = _int_coeffs(rng, la, 10**20)
        b = _int_coeffs(rng, lb, 10**20)
        a[la // 2] = F(3, 7)
        assert (UniPoly(a) * UniPoly(b)).coeffs == _schoolbook(a, b).coeffs
        # nested integer polynomials, each long enough for the big-int path
        a = [UniPoly(_int_coeffs(rng, cut + 3, 10**12)) for _ in range(la)]
        b = [UniPoly(_int_coeffs(rng, cut, 10**12)) for _ in range(lb)]
        got = UniPoly(a) * UniPoly(b)
        assert got.coeffs == _schoolbook(a, b).coeffs
        assert all(type(c) is int for inner in got.coeffs for c in inner.coeffs)
        # every third interior coefficient set to the ring's zero
        for draw, zero in rings:
            a, b = [draw() for _ in range(la)], [draw() for _ in range(lb)]
            for cs in (a, b):
                cs[1:-1:3] = [zero] * len(cs[1:-1:3])
            assert (UniPoly(a) * UniPoly(b)).coeffs == _schoolbook(a, b).coeffs
            square = UniPoly(a)
            assert (square * square).coeffs == _schoolbook(a, a).coeffs


def test_poly_divmod_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()


def test_unipoly_true_division_is_exact_or_raises():
    a = UniPoly([-1, 0, 0, 1])  # x^3 - 1
    b = UniPoly([-1, 1])
    assert a / b == UniPoly([1, 1, 1])
    assert UniPoly([F(1, 2), F(1, 2)]) / UniPoly([F(1, 3), F(1, 3)]) == F(3, 2)
    assert UniPoly() / b == 0
    with pytest.raises(InexactDivision):
        a / UniPoly([1, 1])
    with pytest.raises(InexactDivision):
        UniPoly([1]) / b
    with pytest.raises(DivisionByZero):
        a / UniPoly()
    # scalar divisors divide every coefficient
    assert a / 2 == UniPoly([F(-1, 2), 0, 0, F(1, 2)])


def test_unipoly_equality_against_polynomials_and_scalars():
    p = UniPoly([1, F(2, 3)])
    assert p == UniPoly([F(1), F(2, 3), 0]) and not p != UniPoly([1, F(2, 3)])
    assert p != UniPoly([1, F(2, 5)]) and not p == UniPoly([1, F(2, 5)])
    assert p != 1 and not p == 1 and 1 != p
    assert UniPoly([7]) == 7 and not UniPoly([7]) != 7 and 7 == UniPoly([7])
    assert UniPoly([F(1, 2)]) == F(1, 2) and UniPoly([F(1, 2)]) != F(1, 3)
    # the zero polynomial equals the scalar zero, and only it
    assert UniPoly() == 0 and not UniPoly() != 0 and 0 == UniPoly()
    assert UniPoly([0, 0]) == UniPoly() and UniPoly() == F(0)
    assert UniPoly() != 1 and UniPoly([0, 1]) != 0


# ------------------------------------------------------------- determinants


def _det_naive(rows):
    # plain first-row cofactor expansion, no memoization: the oracle
    d = len(rows)
    if d == 0:
        return 1
    if d == 1:
        return rows[0][0]
    total = 0
    for j in range(d):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * _det_naive(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_det_identity_and_2x2():
    eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert det_fraction_free(eye) == 1
    assert det_fraction_free([[F(1), F(2)], [F(3), F(4)]]) == -2


def test_det_fraction_free_vs_cofactor_oracle():
    rng = random.Random(19)
    for _ in range(10):
        m = [[rand_frac(rng) for _ in range(5)] for _ in range(5)]
        assert det_fraction_free(m) == _det_naive(m)
        assert det_cofactor(m) == _det_naive(m)


def test_det_fraction_free_singular_and_pivoting():
    m = [[F(0), F(1), F(2)], [F(0), F(0), F(3)], [F(4), F(5), F(6)]]
    assert det_fraction_free(m) == _det_naive(m)
    sing = [[F(1), F(2)], [F(2), F(4)]]
    assert det_fraction_free(sing) == 0


def test_det_hessenberg_trivial_and_shape():
    assert det_hessenberg([[F(5)]]) == 5
    assert det_hessenberg([]) == 1
    with pytest.raises(ShapeViolation):
        det_hessenberg([[F(1), F(0), F(1)], [F(1), F(1), F(1)], [F(1), F(1), F(1)]])
    with pytest.raises(ShapeViolation):
        det_fraction_free([[F(1), F(2)]])


def _rand_hessenberg(rng, d):
    return [
        [rand_frac(rng) if j <= i + 1 else F(0) for j in range(d)]
        for i in range(d)
    ]


def test_det_hessenberg_matches_fraction_free():
    rng = random.Random(23)
    for d in range(1, 9):
        for _ in range(6):
            m = _rand_hessenberg(rng, d)
            assert det_hessenberg(m) == det_fraction_free(m)


def test_det_over_polynomial_entries():
    # Bareiss and cofactor agree over Q[x] too
    rng = random.Random(29)
    for _ in range(6):
        m = [[rand_poly(rng, 2) for _ in range(3)] for _ in range(3)]
        assert det_fraction_free(m) == _det_naive(m)


# ------------------------------------------------------------------- series


def _bernoulli_classic(k):
    # B_0..B_k from sum_{j<=m} C(m+1, j) B_j = 0, the textbook recurrence
    import math

    bs = [F(1)]
    for m in range(1, k + 1):
        acc = F(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


def _trunc_mul(a, b):
    # the product of two series of equal order, cut at that order
    return [sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k]) for k in range(len(a))]


def _log(f):
    # [t^k] log f for k < len(f), from the weighted coefficients newton_log gives
    q = newton_log(f[1:])
    return [q[0]] + [q[k] / k for k in range(1, len(q))]


def test_series_inv_geometric():
    got = series_inv([1, -1, 0, 0, 0, 0])
    assert got == [1] * 6
    assert series_inv([F(1), F(-1)]) == [1, 1]
    assert series_inv([1, 0, 0, 0]) == [1, 0, 0, 0]
    assert series_inv([F(1)]) == [1]


def test_series_inv_bernoulli_numbers():
    import math

    n = 9
    # (e^t - 1)/t
    f = [F(1, math.factorial(j + 1)) for j in range(n)]
    g = series_inv(f)
    assert len(g) == n
    bs = _bernoulli_classic(n - 1)
    for k in range(n):
        assert g[k] == bs[k] / math.factorial(k)
    assert _trunc_mul(f, g) == [1] + [0] * (n - 1)


def test_series_inv_requires_unit():
    # the constant term must be exactly 1, not merely invertible
    for f in ([0, 1], [2, 1], [F(2)], [UniPoly((2,)), 1], []):
        with pytest.raises(BadConstantTerm):
            series_inv(f)


def test_series_log_exp_textbook():
    # log(1 - t) = -sum t^k / k, so k [t^k] log(1 - t) = -1; exp(0) = 1
    n = 8
    assert newton_log([F(-1)] + [F(0)] * (n - 2)) == [0] + [-1] * (n - 1)
    assert _log([F(1), F(-1)] + [F(0)] * (n - 2)) == [0] + [F(-1, k) for k in range(1, n)]
    assert newton_exp([0] * 4) == [1, 0, 0, 0, 0]


def test_series_log_exp_mutually_inverse():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 8)
        f = [F(1)] + [rand_frac(rng) for _ in range(n - 1)]
        assert newton_exp(newton_log(f[1:])[1:]) == f
        g = [F(0)] + [rand_frac(rng) for _ in range(n - 1)]
        e = newton_exp([j * c for j, c in enumerate(g[1:], 1)])
        assert len(e) == n and _log(e) == g


def test_integral_newton_exp_keeps_ints_and_checks_each_division():
    # the power sums 2^k + 3^k of the roots 2, 3 give e = (1, 5, 6, 0, 0) as ints
    p = [2**k + 3**k for k in range(1, 5)]
    e = newton_exp([pk if k % 2 else -pk for k, pk in enumerate(p, 1)], integral=True)
    assert e == [1, 5, 6, 0, 0] and all(type(c) is int for c in e)
    assert e == newton_exp([pk if k % 2 else -pk for k, pk in enumerate(p, 1)])
    # p_1 = 1 and p_2 = 2 give 2 e_2 = p_1^2 - p_2 = -1, which 2 does not divide
    with pytest.raises(InexactDivision):
        newton_exp([1, -2], integral=True)


def test_series_log_of_product():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(2, 7)
        f = [F(1)] + [rand_frac(rng) for _ in range(n - 1)]
        g = [F(1)] + [rand_frac(rng) for _ in range(n - 1)]
        assert _log(_trunc_mul(f, g)) == [a + b for a, b in zip(_log(f), _log(g))]


def test_series_log_exp_constant_term_checks():
    # the Newton loops take no constant term: log's is 0 and exp's is 1
    # whatever the other coefficients are; only series_inv reads one
    rng = random.Random(41)
    for n in range(6):
        coeffs = [rand_frac(rng) for _ in range(n)]
        assert newton_log(coeffs)[0] == 0 and newton_exp(coeffs)[0] == 1
    with pytest.raises(BadConstantTerm):
        series_inv([2, 1, 1])


def test_series_log_bivariate_against_taylor_oracle():
    # log((1-Y)^2 + X Y^2) as a series in Y over Q[X]; the oracle expands
    # -log(1 - u) = sum u^k / k with u = 2Y - (1+X) Y^2 by direct powers.
    n = 5
    one = UniPoly((F(1),))
    x = UniPoly((F(0), F(1)))
    got = _log([one, -2 * one, one + x, UniPoly(), UniPoly()])
    u = [UniPoly(), 2 * one, -(one + x), UniPoly(), UniPoly()]
    expect = [UniPoly()] * n
    upow = [one] + [UniPoly()] * (n - 1)
    for k in range(1, n):
        upow = _trunc_mul(upow, u)
        expect = [e + p * F(-1, k) for e, p in zip(expect, upow)]
    assert got == expect


# ------------------------------------------------------------ Newton loops


def _newton_values():
    """Explicit values in three rings: Fraction, UniPoly in X, Q(zeta_7)."""
    x = UniPoly((F(0), F(1)))
    one = UniPoly((F(1),))
    ctx = cyclo_ctx(7)
    z = ctx.zeta()
    return [
        [F(2), F(-1, 3), F(5, 7), F(1), F(-4), F(3, 2)],
        [x + 1, 2 * x - 3, x * x + F(1, 2), -x, one * 3],
        [ctx.one() - z, z ** 2 + 3, z ** 3 / 2, ctx.one() * F(-5, 4), z + z ** 4, -z ** 6],
    ]


def test_newton_loops_give_elementary_and_power_sums_in_every_ring():
    top = 8
    for vals in _newton_values():
        p = [sum((v ** j for v in vals), 0) for j in range(1, top + 1)]
        e = [sum((prod(c) for c in combinations(vals, k)), 0) for k in range(top + 1)]
        assert all(e[k] == 0 for k in range(len(vals) + 1, top + 1))
        got = newton_exp([pj if j % 2 else -pj for j, pj in enumerate(p, 1)])
        assert len(got) == top + 1
        for k in range(top + 1):
            assert got[k] == e[k], (vals, k)
        got = newton_log([ej if j % 2 == 0 else -ej for j, ej in enumerate(e[1:], 1)])
        assert got[0] == 0
        for k in range(1, top + 1):
            assert got[k] == -p[k - 1], (vals, k)


def test_newton_loops_on_a_sparse_input_and_at_order_one():
    # exp(c t^3 / 3) = sum_i (c/3)^i t^(3i) / i!;
    # 3i [t^(3i)] log(1 + c t^3) = 3 (-1)^(i-1) c^i
    for vals in _newton_values():
        c = vals[1]
        sparse = [0, 0, c] + [0] * 7
        got = newton_exp(sparse)
        for k in range(len(sparse) + 1):
            want = (c / 3) ** (k // 3) / factorial(k // 3) if k % 3 == 0 else 0
            assert got[k] == want, (c, k)
        got = newton_log(sparse)
        for k in range(len(sparse) + 1):
            want = 3 * (-1) ** (k // 3 - 1) * c ** (k // 3) if k and k % 3 == 0 else 0
            assert got[k] == want, (c, k)
    assert newton_exp([]) == [1]
    assert newton_log([]) == [0]


# ------------------------------------------------------------ repeated squaring


def test_power_is_repeated_multiplication_in_every_ring():
    ctx = cyclo_ctx(7)
    rings = [
        (UniPoly((F(1, 2), F(-1), F(3))), UniPoly((1,))),
        (ctx.one() - 2 * ctx.zeta() + ctx.zeta_power(3) / 5, ctx.one()),
    ]
    for base, one in rings:
        assert power(base, 0, one) is one
        assert base ** 0 == one
        want = one
        for k in range(7):
            assert power(base, k, one) == want, (base, k)
            assert base ** k == want, (base, k)
            want = want * base


def test_negative_powers_raise_for_polynomials_and_invert_in_the_field():
    with pytest.raises(ValueError):
        UniPoly((1, 1)) ** -1
    ctx = cyclo_ctx(7)
    a = ctx.one() - 2 * ctx.zeta()
    assert a ** -2 == (a * a).inverse()
    assert a ** -1 * a == 1


# ------------------------------------------------------------ interpolation


def test_interpolate_constant_and_square():
    assert poly_interpolate([(0, 1), (1, 1)]) == UniPoly((F(1),))
    assert poly_interpolate([(1, 1), (2, 4), (3, 9)]) == UniPoly((0, 0, F(1)))


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DuplicateAbscissa):
        poly_interpolate([(1, 1), (1, 2)])


def test_interpolate_reproduces_points():
    rng = random.Random(41)
    for _ in range(20):
        xs = rng.sample(range(-20, 20), rng.randint(1, 8))
        pts = [(F(x), rand_frac(rng)) for x in xs]
        p = poly_interpolate(pts)
        for x, y in pts:
            assert p(x) == y


def test_interpolate_zeta_single_row_samples():
    # ten samples of n -> Z_n(zeta_n; 1, 2) lie on -(n-1)(n-5)/12
    from qmzv.zeta import zeta_product

    pts = []
    for n in range(2, 12):
        val = zeta_product(n, 2, 1)[1].value
        pts.append((F(n), val))
    p = poly_interpolate(pts)
    assert p == UniPoly((F(-5, 12), F(1, 2), F(-1, 12)))


# ------------------------------------------------------------ tuple sums


def test_tuple_product_sum_matches_literal_combinations():
    rng = random.Random(11)
    for _ in range(40):
        size = rng.randint(1, 7)
        depth = rng.randint(1, 4)
        row = [rand_frac(rng) for _ in range(size)]
        strict = sum(prod(c) for c in combinations(row, depth))
        weak = sum(prod(c) for c in combinations_with_replacement(row, depth))
        assert tuple_product_sum(row, depth) == strict
        assert tuple_product_sum(row, depth, strict=False) == weak


def test_tuple_product_sum_edge_cases():
    row = [F(2), F(-3), F(5, 7), F(11)]

    def literal(values, depth, strict=True):
        tuples = combinations if strict else combinations_with_replacement
        return sum(prod(c) for c in tuples(values, depth))

    def never(a, b):
        raise AssertionError("depth 1 takes no product")

    for strict in (True, False):
        assert tuple_product_sum(row, 0, strict=strict) == 1
        # depth 1: the sum of the row, and mul is never called
        assert tuple_product_sum(row, 1, strict=strict, mul=never) == sum(row)
        # depth = len(row): the one strict tuple, or every weak one
        assert tuple_product_sum(row, 4, strict=strict) == literal(row, 4, strict)
        # depth > len(row): no strict tuple, but weak tuples repeat entries
        for depth in (5, 6):
            assert tuple_product_sum(row, depth, strict=strict) == literal(row, depth, strict)
        # an empty row has only the empty tuple
        assert tuple_product_sum([], 0, strict=strict) == literal([], 0, strict) == 1
        for depth in (1, 2, 3):
            assert tuple_product_sum([], depth, strict=strict, mul=never) == 0
    assert tuple_product_sum(row, 4) == prod(row)
    assert tuple_product_sum(row, 5) == 0


def test_tuple_product_sum_reduces_each_product_through_mul():
    rng = random.Random(5)
    prime = 10007
    row = [rng.randint(-10**6, 10**6) for _ in range(6)]

    def mul_mod(a, b):
        return a * b % prime

    for strict in (True, False):
        plain = tuple_product_sum(row, 3, strict=strict)
        reduced = tuple_product_sum(row, 3, strict=strict, mul=mul_mod)
        assert reduced != plain  # the products went through mul
        assert reduced % prime == plain % prime


def test_tuple_product_sum_stays_congruent_when_suffix_sums_pass_the_modulus():
    modulus = 97
    row = [90, 95, 96, 93, 88, 91, 94]  # each below 97, every suffix of two or more above it
    seen = []

    def mul_mod(a, b):
        seen.append(b)
        return a * b % modulus

    for strict in (True, False):
        tuples = combinations if strict else combinations_with_replacement
        for depth in (2, 3, 4):
            seen.clear()
            want = sum(prod(c) for c in tuples(row, depth))
            got = tuple_product_sum(row, depth, strict=strict, mul=mul_mod)
            assert got % modulus == want % modulus, (strict, depth)
            assert max(seen) > modulus  # a suffix sum reached mul unreduced


class _Counted:
    """Fraction wrapper that counts ring multiplications."""

    muls = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        _Counted.muls += 1
        return _Counted(self.v * other.v)

    def __add__(self, other):
        return _Counted(self.v + other.v)

    def __radd__(self, other):
        return _Counted(other + self.v)


def test_tuple_sums_share_prefixes_and_sum_the_last_factor_once_per_prefix():
    values = [_Counted(F(k)) for k in (2, 3, 5, 7)]
    _Counted.muls = 0
    assert tuple_product_sum(values, 3).v == 2 * 3 * 5 + 2 * 3 * 7 + 2 * 5 * 7 + 3 * 5 * 7
    # 3 shared pair prefixes, then one multiplication per pair prefix by the
    # suffix sum of the values after it, not one per 3-tuple
    assert _Counted.muls == 3 + 3
    eight = [_Counted(F(k)) for k in range(1, 9)]
    _Counted.muls = 0
    want = sum(prod(c) for c in combinations(range(1, 9), 4))
    assert tuple_product_sum(eight, 4).v == want
    # C(6, 2) pair and C(7, 3) triple prefixes, then one multiplication per
    # triple prefix: 85 products, against 15 + 35 + C(8, 4) = 120 with one
    # per 4-tuple
    assert _Counted.muls == 15 + 35 + 35
    _Counted.muls = 0
    sums = subset_product_sums(values, _Counted(F(1)))
    assert [c.v for c in sums] == [1, 17, 101, 247, 210]
    # prod (1 + vX) multiplied out one factor at a time: N(N+1)/2 products
    assert _Counted.muls == 4 * 5 // 2


def test_subset_product_sums_match_literal_combinations():
    rng = random.Random(12)
    for size in range(0, 9):
        values = [rand_frac(rng) for _ in range(size)]
        want = [sum(prod(c) for c in combinations(values, k)) for k in range(size + 1)]
        assert subset_product_sums(values) == want


def test_subset_product_sums_in_a_field_match_literal_combinations():
    rng = random.Random(13)
    for n in (3, 5, 12):
        ctx = cyclo_ctx(n)
        for size in range(0, 7):
            values = [ctx.element([rand_frac(rng) for _ in range(ctx.degree)]) for _ in range(size)]
            want = [
                sum((prod(c, start=ctx.one()) for c in combinations(values, k)), ctx.zero())
                for k in range(size + 1)
            ]
            assert subset_product_sums(values, ctx.one()) == want, (n, size)


def test_subset_product_sums_edge_cases():
    assert subset_product_sums([]) == [1]
    assert subset_product_sums([F(7)]) == [1, 7]
    assert subset_product_sums([F(2), F(3)]) == [1, 5, 6]


def test_harmonic_q_series_deep_tuple_has_no_recursion_limit():
    # the only decreasing 1099-tuple below 1100 is 1099 > ... > 1; at q = 1
    # every factor is 1/i
    assert harmonic_q_series(1100, (1,) * 1099, q=1) == Fraction(1, factorial(1099))


def test_bad_divisions_and_writes_are_refused():
    for exc, call, args, message in [
        (AttributeError, setattr, (UniPoly((1,)), "coeffs", ()), "UniPoly is immutable"),
        (DivisionByZero, operator.truediv, (UniPoly((1,)), 0), "division by zero"),
        (DivisionByZero, exact_div, (1, 0), "division by zero"),
        (InexactDivision, exact_div, (3, 2), "3 not divisible by 2"),
    ]:
        with pytest.raises(exc) as info:
            call(*args)
        assert str(info.value) == message, (call.__name__, args)
    # the empty matrix has determinant 1
    assert det_fraction_free([]) == 1
