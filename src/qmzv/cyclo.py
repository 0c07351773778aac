"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(n)-1) and
reduced modulo the n-th cyclotomic polynomial Phi_n.  Working modulo Phi_n
(not x^n - 1) keeps the quotient a field, which the inverse powers
1/(1 - zeta^i) require.

An element is a vector of integer coordinates in Z[zeta] over one shared
positive denominator, the layout of FLINT's ``fmpq_poly``: the value is
(num[0] + num[1] zeta + ...) / den.  The form is kept in lowest terms,
gcd(den, num[0], num[1], ...) == 1, so it is canonical and equality is a
tuple comparison.  Products and sums therefore run on Python ints only; a
common denominator is reduced once per operation instead of once per
coordinate.  Products convolve coordinates with ``exactnum.poly_mul``, the
package's one polynomial product (Kronecker substitution from phi(n) >= 16).
``CycloCtx.element`` builds an element from rational coordinates, and
``coords`` gives them back (integral ones as ints, the others as Fractions).
``CycloCtx.from_zeta_powers`` maps an integer polynomial in zeta of any
length, such as an element of Z[x]/(x^n - 1), into the power basis; the
brute oracle rationalizes its packed tuple sum through it.

The inverses 1/(1 - zeta^i) have a closed form (``inv_one_minus_power``)
that needs no field multiplication.  ``CycloElem.inverse`` takes any other
inverse through the Galois norm, so every operation stays on integer
coordinates and no route runs the extended Euclidean algorithm.

``totient`` gives phi(n), the degree of a context.  ``cyclotomic_poly``
builds Phi_n as its Möbius product prod_(d | n) (1 - x^(n/d))^mu(d) on one
int list cut at degree phi(n), with no recursion and no polynomial division.

``CycloCtx.poly_power`` raises a polynomial over Z[zeta_n] to a power by
Miller's recurrence on integer coordinates; the multisection engine of the
product route runs on it in Q(zeta_s).

A context holds Phi_n and its nonzero terms, and nothing of size
n * phi(n): every power of zeta, every sum of powers and every
product is brought into the power basis by one ``CycloCtx.reduce``.
Contexts are cached per n and immutable; elements from different contexts
never mix (checked, raises ContextMismatch).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# poly_xgcd has no caller here; it stays importable because the benchmark's
# self-test (bench/test_harness.py) patches and restores cyclo.poly_xgcd.
from .exactnum import UniPoly, poly_mul, poly_xgcd, power  # noqa: F401


class ZeroInverse(ZeroDivisionError):
    pass


class ContextMismatch(ValueError):
    pass


class NotRational(ValueError):
    """A coordinate vector expected to be rational has nonzero tail.

    Carries the offending element; raising it signals a computation bug
    because every value this library rationalizes is fixed by the Galois
    action and therefore genuinely rational.
    """

    def __init__(self, element):
        super().__init__(f"element is not rational: {element!r}")
        self.element = element


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def totient(n: int) -> int:
    """Euler's phi(n), the degree of Q(zeta_n)."""
    for p in _prime_factors(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> UniPoly:
    """n-th cyclotomic polynomial with integer coefficients.

    Phi_1 = x - 1.  For n > 1, Phi_n = prod_(d | n) (1 - x^(n/d))^mu(d)
    over the squarefree d, built from the primes of n.  Each factor is a
    unit of Z[[x]], so the product is exact on one list of phi(n) + 1 ints
    cut at degree phi(n): multiply by 1 - x^D where mu(d) = +1, divide by
    it (a running sum with stride D) where mu(d) = -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return UniPoly((-1, 1))
    phi = totient(n)
    c = [1] + [0] * phi
    squarefree = [(1, 1)]  # (d, mu(d))
    for p in _prime_factors(n):
        squarefree += [(d * p, -mu) for d, mu in squarefree]
    for d, mu in squarefree:
        step = n // d
        if mu == 1:
            for k in range(phi, step - 1, -1):
                c[k] -= c[k - step]
        else:
            for k in range(step, phi + 1):
                c[k] += c[k - step]
    return UniPoly(c)


class CycloCtx:
    """Field context for Q(zeta_n): the modulus Phi_n and its nonzero terms."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.phi_poly = cyclotomic_poly(n)
        self.degree = self.phi_poly.degree()
        # x^d = sum_j base_j x^j mod Phi_n, d = phi(n): the nonzero terms
        # (j, base_j), for the top-down reduction of ``reduce``
        self._base_terms = tuple((j, -c) for j, c in enumerate(self.phi_poly.coeffs[:-1]) if c)
        self._one = self.zeta_power(0)
        self._zeta = self.zeta_power(1)

    def __repr__(self):
        return f"CycloCtx(n={self.n})"

    def element(self, coords) -> "CycloElem":
        """Element with the given rational (int or Fraction) coordinates,
        zero-padded to the degree and stored in lowest terms."""
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("coordinate vector too long")
        cs.extend(Fraction(0) for _ in range(self.degree - len(cs)))
        den = math.lcm(*(c.denominator for c in cs))
        return _make(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def zero(self) -> "CycloElem":
        return _make(self, (0,) * self.degree, 1)

    def one(self) -> "CycloElem":
        return self._one

    def zeta(self) -> "CycloElem":
        return self._zeta

    def zeta_power(self, m: int) -> "CycloElem":
        return self._sum_zeta_powers(((1, m),), 1)

    def inv_one_minus_power(self, i: int) -> "CycloElem":
        """1/(1 - zeta^i) in closed form, for every i with zeta^i != 1.

        With w = zeta^i, w != 1 and w^n = 1, (1 - w) sum_k k w^k = -n, so
        1/(1 - w) = -(1/n) sum_{k=1}^{n-1} k w^k.  This is exact and costs
        O(n) integer additions and one ``reduce``: no xgcd, no field
        multiplication.
        """
        n = self.n
        if i % n == 0:
            raise ZeroInverse("1 - zeta^i vanishes when n divides i")
        return self._sum_zeta_powers(((-k, i * k) for k in range(1, n)), n)

    def from_zeta_powers(self, coeffs, den: int) -> "CycloElem":
        """(sum_k coeffs[k] zeta^k) / den for integers coeffs[k] and den > 0,
        with k running over every exponent, not only those below phi(n): the
        image in Q(zeta_n) of an integer polynomial, such as an element of
        Z[x]/(x^n - 1) in its n coefficients.  Integer additions only."""
        return self._sum_zeta_powers(zip(coeffs, range(len(coeffs))), den)

    def _sum_zeta_powers(self, terms, den: int) -> "CycloElem":
        """(sum of c * zeta^e over the pairs (c, e) in ``terms``) / den, for
        integers c and den > 0: the sum in Z[x]/(x^n - 1), then one ``reduce``."""
        n = self.n
        out = [0] * n
        for c, e in terms:
            out[e % n] += c
        return _canonical(self, self.reduce(out), den)

    def poly_power(self, coeffs, e: int, top: int) -> list:
        """Coefficients of xi^0 .. xi^top of g(xi)^e, for e >= 0 and a
        polynomial g = sum_i coeffs[i] xi^i over Z[zeta_n] with g(0) = 1.

        J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7):
        a_0 = 1 and k a_k = sum_{i >= 1} ((e + 1) i - k) g_i a_{k-i}.  Every
        a_k lies in Z[zeta_n], so the division by k is exact and the
        recurrence runs on integer coordinates.  Zero g_i are skipped,
        rational ones act as integers, and only the k divisible by the gcd of
        the support of g are computed, since the other a_k vanish.
        """
        if coeffs[0] != 1 or any(c.den != 1 for c in coeffs):
            raise ValueError("poly_power needs g(0) = 1 and coefficients in Z[zeta_n]")
        terms = []  # (i, integer factor or None, coordinate vector)
        for i, c in enumerate(coeffs[1:], 1):
            if any(c.num[1:]):
                terms.append((i, None, c.num))
            elif c.num[0]:
                terms.append((i, c.num[0], None))
        # g = 1 has no terms: a step beyond top leaves only a_0 = 1
        step = math.gcd(*(t[0] for t in terms)) or top + 1
        mul = self._mul_coords
        a = [self.one().num]  # a[j] = coordinates of a_(j * step)
        for k in range(step, top + 1, step):
            acc = [0] * self.degree
            for i, r, vec in terms:
                if i > k:
                    break
                c = (e + 1) * i - k
                if c:
                    prev = a[(k - i) // step]
                    if vec is None:
                        c *= r
                    else:
                        prev = mul(vec, prev)
                    acc = [x + c * y for x, y in zip(acc, prev)]
            a.append(tuple(x // k for x in acc))
        zero = self.zero()
        out = [zero] * (top + 1)
        for j, vec in enumerate(a):
            out[j * step] = _make(self, vec, 1)
        return out

    def _mul_coords(self, a, b):
        """Product of two integer coordinate vectors, reduced mod Phi_n: the
        convolution is ``exactnum.poly_mul``, the product ``UniPoly`` uses."""
        return self.reduce(poly_mul(a, b))

    def reduce(self, conv: list) -> tuple:
        """Coordinates of the integer polynomial ``conv`` (lowest degree
        first, at least phi(n) coefficients) modulo Phi_n: the image in
        Z[zeta_n] of a convolution of coordinates, or of a sum of them.
        ``conv`` is reduced in place."""
        d = self.degree
        # x^n = 1 mod Phi_n: fold the top first (for prime n this leaves a
        # single power x^d to reduce), then clear x^t, t >= d, top-down.
        n = self.n
        for t in range(len(conv) - 1, n - 1, -1):
            c = conv.pop()
            if c:
                conv[t - n] += c
        for t in range(len(conv) - 1, d - 1, -1):
            c = conv.pop()
            if c:
                shift = t - d
                for j, bj in self._base_terms:
                    conv[shift + j] += c * bj
        return tuple(conv)


@lru_cache(maxsize=None)
def cyclo_ctx(n: int) -> CycloCtx:
    return CycloCtx(n)


class CycloElem:
    """Immutable element of Q(zeta_n): integer power-basis coordinates
    ``num`` over one positive denominator ``den``, in lowest terms."""

    __slots__ = ("ctx", "num", "den")

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem is immutable")

    @property
    def coords(self) -> tuple:
        """Rational power-basis coordinates; integral ones as ints."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(Fraction(c, den) if c % den else c // den for c in self.num)

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.ctx.n != self.ctx.n:
                raise ContextMismatch(
                    f"mixing Q(zeta_{self.ctx.n}) with Q(zeta_{other.ctx.n})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            ctx = self.ctx
            return _make(ctx, (other.numerator,) + (0,) * (ctx.degree - 1), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.ctx, [a + b for a, b in zip(self.num, o.num)], da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _canonical(
            self.ctx, [a * fa + b * fb for a, b in zip(self.num, o.num)], da * fa
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ctx, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _canonical(self.ctx, [a * p for a in self.num], self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _canonical(
            self.ctx, self.ctx._mul_coords(self.num, o.num), self.den * o.den
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return _canonical(self.ctx, [a * q for a in self.num], self.den * p)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.ctx.one())

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            if other.ctx.n != self.ctx.n:
                raise ContextMismatch("comparing elements of different fields")
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (
                self.num[0] * other.denominator == other.numerator * self.den
                and not any(self.num[1:])
            )
        return NotImplemented

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.num)

    def inverse(self) -> "CycloElem":
        """Multiplicative inverse through the Galois norm.

        c = prod sigma_k(self) over the units k != 1 of Z/n, where sigma_k
        maps zeta to zeta^k, makes self * c the norm of self: a nonzero
        rational.  So 1/self = c / (self * c).
        """
        if self.is_zero():
            raise ZeroInverse("inverse of zero")
        n = self.ctx.n
        c = self.ctx.one()
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                c = c * self.galois(k)
        return c / as_rational(self * c)

    def galois(self, a: int) -> "CycloElem":
        """Image under zeta -> zeta^a; requires gcd(a, n) = 1."""
        if math.gcd(a, self.ctx.n) != 1:
            raise ValueError("galois substitution needs gcd(a, n) = 1")
        return self.ctx._sum_zeta_powers(((c, i * a) for i, c in enumerate(self.num)), self.den)

    def __repr__(self):
        return f"CycloElem(n={self.ctx.n}, {list(self.coords)!r})"


def _make(ctx, num: tuple, den: int) -> CycloElem:
    """Element from a coordinate tuple and denominator already in lowest
    terms with den > 0."""
    elem = object.__new__(CycloElem)
    object.__setattr__(elem, "ctx", ctx)
    object.__setattr__(elem, "num", num)
    object.__setattr__(elem, "den", den)
    return elem


def _canonical(ctx, num, den: int) -> CycloElem:
    """Element from integer coordinates over den > 0, reduced to lowest
    terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _make(ctx, tuple(num), den)


def as_rational(a: CycloElem) -> Fraction:
    """Extract the rational value of an element; NotRational if any higher
    power-basis coordinate is nonzero."""
    if any(a.num[1:]):
        raise NotRational(a)
    return Fraction(a.num[0], a.den)


def product_one_minus_powers(ctx: CycloCtx) -> Fraction:
    """prod_{j=1..n-1} (1 - zeta^j), rationalized; equals n."""
    if ctx.n < 2:
        raise ValueError("needs n >= 2")
    acc = ctx.one()
    one = ctx.one()
    for j in range(1, ctx.n):
        acc = acc * (one - ctx.zeta_power(j))
    return as_rational(acc)
