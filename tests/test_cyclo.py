import operator
import random
from fractions import Fraction

import pytest

from qmzv.cyclo import (
    ContextMismatch,
    CycloCtx,
    NotRational,
    ZeroInverse,
    as_rational,
    cyclo_ctx,
    cyclotomic_poly,
    product_one_minus_powers,
    totient,
)
from qmzv.exactnum import UniPoly, poly_divmod, subset_product_sums

F = Fraction


def x_power_minus_one(n):
    return UniPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1) == UniPoly((-1, 1))
    assert cyclotomic_poly(2) == UniPoly((1, 1))
    assert cyclotomic_poly(4) == UniPoly((1, 0, 1))
    assert cyclotomic_poly(12) == UniPoly((1, 0, -1, 0, 1))


def test_cyclotomic_matches_recursive_division():
    # the old construction: x^n - 1 divided by Phi_d for every proper d | n
    oracle = {}

    def by_division(n):
        if n not in oracle:
            num = x_power_minus_one(n)
            for d in range(1, n):
                if n % d == 0:
                    num, r = poly_divmod(num, by_division(d))
                    assert r.is_zero()
            oracle[n] = num
        return oracle[n]

    for n in [*range(1, 401), 1155, 2310]:
        assert cyclotomic_poly(n) == by_division(n), n


def test_cyclotomic_product_identity():
    for n in range(1, 41):
        prod = UniPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == x_power_minus_one(n)


def test_cyclotomic_degree_is_totient():
    import math

    for n in range(1, 41):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert cyclotomic_poly(n).degree() == phi == totient(n)


def test_inverse_known_values():
    ctx = cyclo_ctx(4)
    a = ctx.one() - ctx.zeta()  # 1 - i
    inv = a.inverse()
    assert inv == ctx.element([F(1, 2), F(1, 2)])  # (1 + i)/2
    assert a * inv == 1

    ctx3 = cyclo_ctx(3)
    z = ctx3.zeta()
    assert z.inverse() == ctx3.element([-1, -1])  # zeta^2 = -1 - zeta
    assert ctx3.one().inverse() == 1


def test_inverse_roundtrip_random():
    rng = random.Random(5)
    for n in range(2, 31):
        ctx = cyclo_ctx(n)
        for _ in range(5):
            coords = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(ctx.degree)]
            a = ctx.element(coords)
            if a.is_zero():
                continue
            assert a * a.inverse() == 1


def test_inverse_of_zero():
    with pytest.raises(ZeroInverse):
        cyclo_ctx(5).zero().inverse()


def test_as_rational():
    ctx = cyclo_ctx(5)
    assert as_rational(ctx.element([F(7, 3)])) == F(7, 3)
    # sum of 1/(1 - zeta^i) over i = 1..4 is (n-1)/2 = 2
    total = ctx.zero()
    one = ctx.one()
    for i in range(1, 5):
        total = total + (one - ctx.zeta_power(i)).inverse()
    assert as_rational(total) == 2


def test_as_rational_error_carries_element():
    z = cyclo_ctx(4).zeta()
    with pytest.raises(NotRational) as err:
        as_rational(z)
    assert err.value.element == z


def test_product_one_minus_powers():
    assert product_one_minus_powers(cyclo_ctx(2)) == 2
    assert product_one_minus_powers(cyclo_ctx(6)) == 6
    assert product_one_minus_powers(cyclo_ctx(7)) == 7
    for n in range(2, 41):
        assert product_one_minus_powers(cyclo_ctx(n)) == n


def test_galois_substitution():
    import math

    ctx = cyclo_ctx(7)
    z = ctx.zeta()
    assert z.galois(2) == ctx.zeta_power(2)
    # a rational combination fixed by every substitution
    val = ctx.zero()
    for i in range(1, 7):
        val = val + (ctx.one() - ctx.zeta_power(i)).inverse()
    for a in range(1, 7):
        if math.gcd(a, 7) == 1:
            assert val.galois(a) == val
    with pytest.raises(ValueError):
        z.galois(7)


def test_galois_stability_of_zeta_values():
    # in-field generating-product coefficients are Galois-fixed, which is
    # why every rationalization must succeed
    import math

    from qmzv.zeta import _inv_pows

    for n in (5, 8, 9):
        for s in (1, 2):
            for coeff in subset_product_sums(_inv_pows(n, s), cyclo_ctx(n).one()):
                for a in range(2, n):
                    if math.gcd(a, n) == 1:
                        assert coeff.galois(a) == coeff


def test_context_mixing_is_checked():
    a = cyclo_ctx(5).zeta()
    b = cyclo_ctx(7).zeta()
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b


def test_scalar_arithmetic():
    ctx = cyclo_ctx(5)
    z = ctx.zeta()
    assert (z + 1) - 1 == z
    assert 2 * z == z + z
    assert (3 * z) / 3 == z
    assert 1 / (ctx.one() - z) == (ctx.one() - z).inverse()
    assert z ** 5 == 1
    assert z ** -1 == z.inverse()


def test_qnum_vanishes_at_full_power():
    # [4]_q at q = zeta_4 is 1 + i + i^2 + i^3 = 0
    from qmzv.qstirling import RootOfUnityQ

    assert RootOfUnityQ(4).qnum(4) == 0


# ------------------------------------------- integer coordinates, one denominator


def _is_canonical(x):
    import math

    return (
        all(isinstance(c, int) for c in x.num)
        and isinstance(x.den, int)
        and x.den > 0
        and math.gcd(x.den, *x.num) == 1
        and len(x.num) == x.ctx.degree
    )


def test_closed_form_inverse_table_matches_the_norm_inverse():
    for n in range(2, 41):
        ctx = cyclo_ctx(n)
        one = ctx.one()
        for i in range(1, n):
            closed = ctx.inv_one_minus_power(i)
            assert _is_canonical(closed)
            assert closed == (one - ctx.zeta_power(i)).inverse()


def test_closed_form_inverse_rejects_unit_power():
    ctx = cyclo_ctx(6)
    for i in (0, 6, -12):
        with pytest.raises(ZeroInverse):
            ctx.inv_one_minus_power(i)


def test_every_operation_result_is_canonical():
    import math

    rng = random.Random(11)
    for n in (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 23):
        ctx = cyclo_ctx(n)
        units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
        for _ in range(6):
            a = ctx.element(
                [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(ctx.degree)]
            )
            b = ctx.element(
                [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(ctx.degree)]
            )
            scalar = F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
            results = [
                a + b, a - b, a * b, -a, a + scalar, scalar - a, a * scalar,
                scalar * a, a / scalar, a * 0, a - a, a ** 3, a ** 0,
                a.galois(rng.choice(units)),
            ]
            if not b.is_zero():
                results += [a / b, b.inverse(), b ** -2, 1 / b]
            for r in results:
                assert _is_canonical(r)
            assert _is_canonical(ctx.zero()) and _is_canonical(ctx.one())
            assert (a - a).den == 1


def test_fraction_and_integer_built_elements_compare_by_value():
    ctx = cyclo_ctx(7)
    z = ctx.zeta()
    # (1 + 2 zeta)/6 built three ways
    from_fractions = ctx.element([F(1, 6), F(1, 3)])
    from_ints = (ctx.one() + 2 * z) / 6
    from_scaled = ctx.element([F(2, 12), F(4, 12), 0, 0, 0, 0])
    assert from_fractions == from_ints == from_scaled
    assert from_fractions.num == (1, 2, 0, 0, 0, 0) and from_fractions.den == 6
    # integer coordinates with a common factor against the denominator
    assert ctx.element([2, 4]) / 2 == ctx.one() + 2 * z
    # unequal values stay unequal, including ones sharing num or den
    assert from_fractions != ctx.element([F(1, 6), F(1, 6)])
    assert from_fractions != ctx.element([F(1, 5), F(2, 5)])
    assert ctx.element([F(1, 6), 0]) != ctx.element([F(1, 6), F(1, 6)])
    # rational comparisons
    assert ctx.element([F(3, 4)]) == F(3, 4)
    assert ctx.element([F(3, 4)]) != F(3, 5)
    assert ctx.element([F(6, 3)]) == 2
    assert ctx.element([F(3, 4), 1]) != F(3, 4)
    rng = random.Random(3)
    for _ in range(200):
        xs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        ys = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        assert (ctx.element(xs) == ctx.element(ys)) == (xs == ys)


def test_coords_returns_rational_values():
    ctx = cyclo_ctx(5)
    z = ctx.zeta()
    assert ctx.one().coords == (1, 0, 0, 0)
    assert z.coords == (0, 1, 0, 0)
    assert all(isinstance(c, int) for c in (z * z + 3).coords)
    half = ctx.element([F(1, 2), 0, F(3, 4)])
    assert half.coords == (F(1, 2), 0, F(3, 4), 0)
    assert ctx.element([F(7, 3)]).coords == (F(7, 3), 0, 0, 0)
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3 in Q(zeta_5)
    assert ctx.zeta_power(4).coords == (-1, -1, -1, -1)
    inv = (ctx.one() - z).inverse()
    assert inv.coords == (F(4, 5), F(3, 5), F(2, 5), F(1, 5))
    assert ctx.element(inv.coords) == inv
    assert repr(half) == "CycloElem(n=5, [Fraction(1, 2), 0, Fraction(3, 4), 0])"
    assert repr(z) == "CycloElem(n=5, [0, 1, 0, 0])"


def _poly_pow_by_products(g, e, zero):
    out = [g[0] ** 0]
    for _ in range(e):
        prod = [zero] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] = prod[i + j] + a * b
        out = prod
    return out


def test_poly_power_matches_repeated_products():
    rng = random.Random(5)
    for n in (1, 3, 4, 5, 12):
        ctx = cyclo_ctx(n)
        zero = ctx.zero()
        shapes = [[1, None, None], [1, 0, None], [1, 0, 0, None], [1, 2, 0, -3]]
        for shape in shapes:
            g = [
                ctx.element([rng.randint(-3, 3) for _ in range(ctx.degree)])
                if c is None else ctx.element([c])
                for c in shape
            ]
            for e in (0, 1, 2, 5):
                want = _poly_pow_by_products(g, e, zero)
                top = len(want) + 1
                got = ctx.poly_power(g, e, top)
                assert got == want + [zero] * (top + 1 - len(want)), (n, shape, e)
    assert cyclo_ctx(5).poly_power([cyclo_ctx(5).one()], 7, 3) == [1, 0, 0, 0]


def test_powers_of_zeta_wrap_around_as_repeated_products():
    # zeta_power and from_zeta_powers reduce exponents modulo n before Phi_n;
    # the oracle walks zeta^k = zeta * ... * zeta up from x mod Phi_n
    rng = random.Random(22)
    for n in range(1, 41):
        ctx = cyclo_ctx(n)
        _, x = poly_divmod(UniPoly((0, 1)), cyclotomic_poly(n))
        assert ctx.zeta() == ctx.element(x.coeffs), n
        pows = [ctx.one()]
        for _ in range(3 * n):
            pows.append(pows[-1] * ctx.zeta())
        for m in range(-2 * n, 3 * n):
            if m >= 0:
                assert ctx.zeta_power(m) == pows[m], (n, m)
            else:
                assert ctx.zeta_power(m) * pows[-m] == ctx.one(), (n, m)
        for _ in range(3):
            coeffs = [rng.randint(-50, 50) for _ in range(3 * n)]
            den = rng.randint(1, 12)
            want = sum((c * p for c, p in zip(coeffs, pows)), ctx.zero()) / den
            assert ctx.from_zeta_powers(coeffs, den) == want, (n, coeffs, den)


def test_poly_power_refuses_non_monic_or_non_integral_input():
    ctx = cyclo_ctx(5)
    with pytest.raises(ValueError):
        ctx.poly_power([ctx.element([2]), ctx.one()], 3, 3)
    with pytest.raises(ValueError):
        ctx.poly_power([ctx.one(), ctx.element([F(1, 2)])], 3, 3)


def _reference_product(ctx, x, y):
    """x * y from the plain double-loop product of the coordinates, reduced
    by poly_divmod modulo Phi_n: no step runs ``exactnum.poly_mul``."""
    prod = [0] * (2 * ctx.degree - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            prod[i + j] += a * b
    _, r = poly_divmod(UniPoly(Fraction(c) for c in prod), cyclotomic_poly(ctx.n))
    den = x.den * y.den
    return [c / den for c in r.coeffs] + [0] * (ctx.degree - len(r.coeffs))


@pytest.mark.parametrize("n", [13, 17, 23, 41, 48, 60, 101])
def test_products_equal_the_reduced_polynomial_product(n):
    # phi(n) = 12, 16, 22, 40, 16, 16, 100: both sides of the cut-over at
    # which integer convolutions switch to Kronecker substitution
    rng = random.Random(1000 + n)
    ctx = cyclo_ctx(n)
    d = ctx.degree
    big = 10**40

    def rand_elem():
        return ctx.element(
            [F(rng.randint(-big, big), rng.randint(1, 10**6)) if rng.random() < 0.8 else 0
             for _ in range(d)]
        )

    zero, top = ctx.zero(), ctx.element([big] * d)
    rand = [rand_elem() for _ in range(4)]
    # equal signs reach the coefficient bound of the convolution, opposite
    # signs its negative; the zero element has no largest coefficient
    pairs = [(top, top), (top, -top), (ctx.element([(-1) ** i * big for i in range(d)]), top),
             (zero, rand[0]), (rand[1], zero), (zero, zero), (top, rand[2])]
    pairs += list(zip(rand, rand[1:] + rand[:1]))
    for x, y in pairs:
        got = x * y
        assert list(got.coords) == _reference_product(ctx, x, y), (n, x, y)
        assert got == y * x


def test_equality_against_scalars_and_other_types():
    ctx = cyclo_ctx(7)
    three_halves = ctx.element([F(3, 2)])
    z = ctx.zeta()
    assert three_halves == F(3, 2) and not three_halves != F(3, 2)
    assert three_halves != F(3, 4) and not three_halves == F(3, 4)
    assert ctx.element([4]) == 4 and not ctx.element([4]) != 4
    assert ctx.element([4]) != 5 and z != 0 and not z == 0
    assert 4 == ctx.element([4]) and F(3, 2) == three_halves and 5 != ctx.element([4])
    assert ctx.zero() == 0 and not ctx.zero() != 0
    # fields never mix, not even in a comparison
    other = cyclo_ctx(5).zeta()
    with pytest.raises(ContextMismatch):
        z == other
    with pytest.raises(ContextMismatch):
        z != other
    # a foreign type is unequal, both ways round
    for foreign in ("zeta", 1.5, None, (1, 0)):
        assert z != foreign and not z == foreign
        assert foreign != z and not foreign == z


def test_element_builds_lowest_terms_from_fraction_coordinates():
    ctx = cyclo_ctx(5)
    e = ctx.element([F(2, 4), F(-6, 9)])
    assert e.num == (3, -4, 0, 0) and e.den == 6
    assert e.coords == (F(1, 2), F(-2, 3), 0, 0)
    # zero padding up to phi(n) coordinates, integral values as ints
    assert ctx.element([F(8, 4)]).coords == (2, 0, 0, 0)
    assert ctx.element([]).num == (0, 0, 0, 0) and ctx.element([]).den == 1
    assert ctx.element([F(0, 7), F(5, 10), 0, F(-3, 12)]).den == 4
    assert ctx.element([0, 0, 0, F(1, 3)]) == ctx.zeta_power(3) / 3
    with pytest.raises(ValueError):
        ctx.element([F(1, 2)] * 5)



def test_bad_orders_and_operations_are_refused():
    one = cyclo_ctx(5).one()
    for exc, call, args, message in [
        (ValueError, cyclotomic_poly, (0,), "n must be >= 1"),
        (ValueError, CycloCtx, (0,), "n must be >= 1"),
        (ValueError, product_one_minus_powers, (cyclo_ctx(1),), "needs n >= 2"),
        (ZeroDivisionError, operator.truediv, (one, 0), "division by zero"),
        (AttributeError, setattr, (one, "num", (0,) * 4), "CycloElem is immutable"),
    ]:
        with pytest.raises(exc) as info:
            call(*args)
        assert str(info.value) == message, (call.__name__, args)
