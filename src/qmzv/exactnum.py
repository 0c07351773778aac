"""Exact arithmetic kernel: dense polynomials, determinant routines, the
power-series loops, the one-row tuple-sum enumerator ``tuple_product_sum``
and the expansion ``subset_product_sums`` of prod (1 + vX), over generic
commutative coefficient rings.

A truncated power series is a plain coefficient sequence, lowest degree
first, whose length is its order.  Three loops are the whole series layer:
``series_inv`` inverts a series with constant term 1, and the two Newton
loops ``newton_exp`` and ``newton_log`` give exp and log, and through them
powers; the log side of both loops is weighted, k [t^k] log.

``poly_mul`` is the one polynomial product over every coefficient ring,
behind every ``UniPoly`` product and the field products of ``cyclo``:
Kronecker substitution when every coefficient is exactly ``int`` and the
shorter operand has ``_KRONECKER_MIN_LEN`` coefficients, the schoolbook loop
otherwise.  The symbolic-q Stirling fill of ``qstirling`` runs no product:
it multiplies by ([i]_q)^s with window sums on the int coefficients.  The
substitution is three shared helpers: ``kronecker_width`` gives the bytes
per coefficient for a coefficient bound, ``kronecker_pack``
evaluates an integer polynomial at q = 2^(8w), and ``kronecker_unpack`` reads
the coefficients back; ``qstirling.orthogonality_check`` packs each stored
symbolic or root-of-unity triangle entry once with them and sums plain ints,
and ``zeta.zeta_brute``
packs its rows with them and hands ``tuple_product_sum`` a ``mul`` that
reduces every product modulo 2^N - 1.

Scalars are plain ints and ``fractions.Fraction``.  A "ring element" below is
any immutable value supporting ``+``, ``-``, ``*`` and ``== 0`` against the
other coefficient types in play: Fraction, UniPoly itself (nesting a UniPoly
inside another gives bivariate polynomials), or field elements such as
``cyclo.CycloElem``.  Nothing mutates a value after construction, so all
values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence


class DivisionByZero(ZeroDivisionError):
    pass


class InexactDivision(ArithmeticError):
    """Raised when an exact ring division leaves a remainder (a bug signal)."""


class BadConstantTerm(ValueError):
    pass


class DuplicateAbscissa(ValueError):
    pass


class ShapeViolation(ValueError):
    pass


def _is_zero(c) -> bool:
    return c == 0


def power(base, k: int, one):
    """base ** k for k >= 0 by repeated squaring from the lowest set bit of
    k (``one`` for k = 0); every ``__pow__`` in the package runs this loop."""
    if not k:
        return one
    while not k & 1:
        base = base * base
        k >>= 1
    result = base
    k >>= 1
    while k:
        base = base * base
        if k & 1:
            result = result * base
        k >>= 1
    return result


# Shortest operand at which ``poly_mul`` leaves the schoolbook loop for
# Kronecker substitution.  On a 2-core Xeon VM (Python 3.11.7) the big-int
# path wins dense d x d products from d = 12-14 at 8-40 bits and d = 16-20 at
# 200 bits (16 x 16 at 40 bits: 30 against 46 us).  A cut-over of 12 read the
# ``oracle_sweep`` tail item time, whose field products have phi(n) <= 12
# coordinates, about 5 % slower than 16; the other workloads did not move.
_KRONECKER_MIN_LEN = 16


def kronecker_width(bound: int) -> int:
    """Bytes per coefficient w for Kronecker substitution at q = 2^(8w):
    the least w with bound < 2^(8w-1), so that every integer of absolute
    value at most ``bound`` packs and unpacks with one bit to spare."""
    return bound.bit_length() // 8 + 1


def kronecker_pack(coeffs: Sequence[int], w: int) -> int:
    """The value at q = 2^(8w) of the integer polynomial ``coeffs`` (lowest
    degree first), each coefficient of absolute value below 2^(8w-1).

    Every slot is offset by half = 2^(8w-1) so that it lies in [0, 2^(8w))
    and packing is one ``bytes.join``; the offsets are then taken off again
    as one int.
    """
    half = 1 << (8 * w - 1)
    fb = int.from_bytes
    packed = fb(b"".join((c + half).to_bytes(w, "little") for c in coeffs), "little")
    return packed - fb((bytes(w - 1) + b"\x80") * len(coeffs), "little")


def kronecker_unpack(value: int, w: int, n: int) -> list:
    """The n coefficients of the integer polynomial whose value at q = 2^(8w)
    is ``value``, given that each has absolute value below 2^(8w-1).

    Adding half = 2^(8w-1) to every slot keeps each one in [0, 2^(8w)), so
    each reads back from its own w bytes with no borrow from a neighbour.
    """
    half = 1 << (8 * w - 1)
    fb = int.from_bytes
    raw = (value + fb((bytes(w - 1) + b"\x80") * n, "little")).to_bytes(w * n, "little")
    return [fb(raw[k : k + w], "little") - half for k in range(0, w * n, w)]


def poly_mul(a: Sequence, b: Sequence) -> list:
    """Coefficients of the product of two nonempty polynomials over one
    commutative ring (lowest degree first): one big-int product by Kronecker
    substitution when both have at least ``_KRONECKER_MIN_LEN`` coefficients,
    all exactly ``int``, else the schoolbook loop, which skips zero
    coefficients.  A square, ``poly_mul(a, a)``, packs once or takes each
    cross product once: 2 a_i a_j for i < j, a_i^2 on the diagonal."""
    la, lb = len(a), len(b)
    if min(la, lb) >= _KRONECKER_MIN_LEN and all(type(c) is int for c in (*a, *b)):
        # |c_k| <= min(la, lb)·max|a|·max|b|; a zero maximum counts as 1, so
        # that the bound covers every operand coefficient too.
        w = kronecker_width(min(la, lb) * (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1))
        pa = kronecker_pack(a, w)
        return kronecker_unpack(pa * (pa if a is b else kronecker_pack(b, w)), w, la + lb - 1)
    out = [0] * (la + lb - 1)
    if a is b:
        for i, ai in enumerate(a):
            if ai != 0:
                out[2 * i] += ai * ai
                twice = ai + ai
                for t, aj in enumerate(a[i + 1 :], 2 * i + 1):
                    if aj != 0:
                        out[t] += twice * aj
        return out
    for i, ai in enumerate(a):
        if ai != 0:
            for t, bj in enumerate(b, i):
                if bj != 0:
                    out[t] += ai * bj
    return out


class UniPoly:
    """Dense univariate polynomial over a generic coefficient ring.

    The zero polynomial is the empty coefficient tuple; its degree is None
    (never -1).  Coefficient index equals the degree of the attached power.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a scalar, or with another UniPoly through
        ``poly_mul``."""
        if not isinstance(other, UniPoly):
            if _is_zero(other):
                return UniPoly()
            return UniPoly(c * other for c in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        return UniPoly(poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return power(self, k, UniPoly((1,)))

    def __truediv__(self, other):
        if isinstance(other, UniPoly):
            return exact_div(self, other)
        if isinstance(other, int):
            if other == 0:
                raise DivisionByZero("division by zero")
            other = Fraction(other)
        return UniPoly(c / other for c in self.coeffs)

    def __call__(self, x):
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if not self.coeffs:
            return _is_zero(other)
        if len(self.coeffs) == 1:
            return self.coeffs[0] == other
        return False

    __hash__ = None

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def poly_str(p: UniPoly, var: str = "x") -> str:
    """Readable form like ``1 - 2*x + x^3`` (coefficients via str())."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if _is_zero(c):
            continue
        cs = str(c)
        if k == 0:
            parts.append(cs)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            parts.append(mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


def exact_div(a, b):
    """Division that must be exact in the ambient ring; raises otherwise."""
    if isinstance(a, UniPoly) or isinstance(b, UniPoly):
        pa = a if isinstance(a, UniPoly) else UniPoly((a,))
        pb = b if isinstance(b, UniPoly) else UniPoly((b,))
        q, r = poly_divmod(pa, pb)
        if not r.is_zero():
            raise InexactDivision("inexact polynomial division")
        return q
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise DivisionByZero("division by zero")
        q, r = divmod(a, b)
        if r:
            raise InexactDivision(f"{a} not divisible by {b}")
        return q
    return a / b


def poly_divmod(a: UniPoly, b: UniPoly):
    """Quotient and remainder of dense polynomials.

    Leading-coefficient divisions go through :func:`exact_div`, so the routine
    works over fields and, when divisibility holds, over nested polynomial
    rings as well.
    """
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.degree() is None or (b.degree() is not None and a.degree() < b.degree()):
        return UniPoly(), a
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    q = [0] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db]
        if _is_zero(c):
            continue
        f = exact_div(c, lead)
        q[i] = f
        for j, bc in enumerate(b.coeffs):
            rem[i + j] = rem[i + j] - f * bc
    return UniPoly(q), UniPoly(rem[:db])


def poly_xgcd(a: UniPoly, b: UniPoly):
    """Extended Euclid over a field: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = a, b
    s0, s1 = UniPoly((1,)), UniPoly()
    t0, t1 = UniPoly(), UniPoly((1,))
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def poly_interpolate(points: Sequence) -> UniPoly:
    """Lagrange interpolation through exact rational points.

    Returns the unique polynomial of degree < len(points) passing through all
    (x, y) pairs; raises DuplicateAbscissa on repeated x values.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("repeated x coordinate")
    total = UniPoly()
    for i, (xi, yi) in enumerate(pts):
        basis = UniPoly((Fraction(1),))
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            basis = basis * UniPoly((-xj, Fraction(1)))
            denom *= xi - xj
        total = total + basis * (yi / denom)
    return total


def series_inv(f: Sequence) -> list:
    """Multiplicative inverse of the power series f (lowest degree first,
    its length the order) with constant term exactly 1: the list g of the
    same length with f * g = 1 + O(t^N), from g_k = -sum_{0 < i <= k} f_i
    g_(k-i).  Zero f_i are dropped once."""
    if not (f and f[0] == 1):
        raise BadConstantTerm("series_inv needs constant term 1")
    terms = [(i, c) for i, c in enumerate(f[1:], 1) if not _is_zero(c)]
    out = [f[0]]
    for k in range(1, len(f)):
        acc = 0
        for i, c in terms:
            if i > k:
                break
            acc = acc + c * out[k - i]
        out.append(-acc)
    return out


def newton_exp(g: Sequence, integral: bool = False) -> list:
    """e_0 = 1, e_1, ..., e_K from g = [g_1, ..., g_K] by the exp-type Newton
    loop k e_k = sum_{j <= k} g_j e_(k-j): e_k = [t^k] exp(f) when g_j =
    j [t^j] f, and e_k is the k-th elementary symmetric value when g_j =
    (-1)^(j-1) p_j are signed power sums.  Zero g_j are dropped once.

    With ``integral`` the g_j are ints and every e_k is known to be an int,
    as for the power sums of algebraic integers whose elementary symmetric
    values are integers: each division by k is checked exact
    (InexactDivision otherwise) and the e_k stay ints."""
    terms = [(j, c) for j, c in enumerate(g, 1) if not _is_zero(c)]
    e = [1]
    for k in range(1, len(g) + 1):
        acc = 0
        for j, c in terms:
            if j > k:
                break
            acc = acc + c * e[k - j]
        if integral:
            quo, rem = divmod(acc, k)
            if rem:
                raise InexactDivision(f"e_{k} = {acc}/{k} is not an integer")
            e.append(quo)
        else:
            e.append(Fraction(acc, k) if isinstance(acc, int) else acc / k)
    return e


def newton_log(f: Sequence) -> list:
    """q_0 = 0, q_1, ..., q_K from f = [f_1, ..., f_K] by the log-type Newton
    loop q_k = k f_k - sum_{0 < j < k} f_j q_(k-j), so q_k = k [t^k]
    log(1 + f_1 t + f_2 t^2 + ...), and q_k = -p_k when f_j = (-1)^j e_j are
    signed elementary symmetric values.  No division; zero f_j are dropped once."""
    terms = [(j, c) for j, c in enumerate(f, 1) if not _is_zero(c)]
    q = [0]
    for k in range(1, len(f) + 1):
        acc = k * f[k - 1]
        for j, c in terms:
            if j >= k:
                break
            acc = acc - c * q[k - j]
        q.append(acc)
    return q


def tuple_product_sum(row: Sequence, depth: int, strict: bool = True, mul=operator.mul):
    """Sum of row[i_1] * ... * row[i_depth] over the index tuples
    i_1 < ... < i_depth (i_1 <= ... <= i_depth when ``strict`` is false).

    A literal enumeration on an explicit stack, so the depth has no
    recursion limit: each prefix product is computed once and shared by
    every tuple that extends it, and each product starts from its first
    factor.  Depth 0 gives 1 (the empty product); no tuple gives 0.

    Every product is ``mul(prefix, factor)``, plain ``*`` by default.  With
    a ``mul`` that reduces its product by a modulus (``zeta.zeta_brute``
    folds packed integers modulo 2^N - 1), the result is congruent to the
    sum modulo it; the additions are left unreduced.
    """
    if depth == 0:
        return 1
    step = 1 if strict else 0
    ends = [len(row) - step * (depth - 1 - d) for d in range(depth)]
    total = None
    stack = [(0, 0, None)]  # (level, first index, product of the factors above)
    while stack:
        d, start, prefix = stack.pop()
        if d == depth - 1:
            for i in range(start, ends[d]):
                p = row[i] if prefix is None else mul(prefix, row[i])
                total = p if total is None else total + p
        else:
            # pushed last to first, so tuples are summed in lexicographic order
            for i in range(ends[d] - 1, start - 1, -1):
                p = row[i] if prefix is None else mul(prefix, row[i])
                stack.append((d + 1, i + step, p))
    return 0 if total is None else total


def subset_product_sums(values: Sequence, one=1) -> list:
    """``sums[k]`` = sum over the k-subsets of ``values`` of their products,
    for k = 0..len(values), with sums[0] = ``one``, the ring's unit.

    These are the coefficients of prod_v (1 + vX), multiplied out one factor
    at a time: N(N+1)/2 ring products for N values.
    """
    sums = [one]
    for v in values:
        sums.append(v * sums[-1])
        for k in range(len(sums) - 2, 0, -1):
            sums[k] = sums[k] + v * sums[k - 1]
    return sums


def _check_square(rows):
    m = [list(r) for r in rows]
    d = len(m)
    for r in m:
        if len(r) != d:
            raise ShapeViolation("matrix is not square")
    return m, d


def det_fraction_free(rows) -> object:
    """Determinant by fraction-free (Bareiss) elimination.

    Exact over any integral domain whose elements divide exactly through
    :func:`exact_div` (Fraction, int, field elements, polynomials over a
    field).
    """
    m, d = _check_square(rows)
    if d == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(d - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, d):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[0][0] * 0
        pivot = m[k][k]
        for i in range(k + 1, d):
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, d):
                row_i[j] = exact_div(row_i[j] * pivot - row_i[k] * row_k[j], prev)
        prev = pivot
    return sign * m[d - 1][d - 1]


def det_cofactor(rows) -> object:
    """Division-free determinant by minor expansion (memoized on columns).

    Works over any commutative ring; cost grows as d * 2^d, so keep d small.
    """
    m, d = _check_square(rows)
    if d == 0:
        return 1
    memo = {}

    def rec(cols):
        if not cols:
            return 1
        key = cols
        if key in memo:
            return memo[key]
        r = d - len(cols)
        acc = None
        sign = 1
        for idx, c in enumerate(cols):
            a = m[r][c]
            if not _is_zero(a):
                sub = rec(cols[:idx] + cols[idx + 1:])
                term = a * sub if sign > 0 else -(a * sub)
                acc = term if acc is None else acc + term
            sign = -sign
        if acc is None:
            acc = m[0][0] * 0
        memo[key] = acc
        return acc

    return rec(tuple(range(d)))


def det_hessenberg(rows) -> object:
    """Determinant of a lower-Hessenberg matrix by last-row expansion.

    Requires M[i][j] == 0 whenever j > i + 1; runs in O(d^2) ring
    multiplications and uses no division, so any commutative ring works.
    """
    m, d = _check_square(rows)
    for i in range(d):
        for j in range(i + 2, d):
            if not _is_zero(m[i][j]):
                raise ShapeViolation(f"nonzero entry at ({i}, {j}) above the superdiagonal")
    dets = [1]
    for k in range(1, d + 1):
        i = k - 1
        acc = m[i][i] * dets[k - 1]
        prod = 1
        sign = -1
        for j in range(k - 1, 0, -1):
            prod = prod * m[j - 1][j]
            entry = m[i][j - 1]
            if not _is_zero(entry):
                term = entry * prod * dets[j - 1]
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        dets.append(acc)
    return dets[d]
