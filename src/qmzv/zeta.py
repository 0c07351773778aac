"""Evaluation routes and closed forms for the finite q-multiple zeta value

    Z_n(q; m, s) = sum over 1 <= i_1 < ... < i_m <= n-1 of
                   1 / ((1 - q^{i_1})^s ... (1 - q^{i_m})^s)

at q = zeta_n.  Every value is an exact rational (the summand multiset is
stable under the Galois action zeta -> zeta^a), and every route here must
return the same rational:

* ``zeta_brute``        -- literal tuple enumeration, the oracle: one product
                           per tuple (prefixes shared), on integers packed
                           modulo 2^N - 1, the image of Z[x]/(x^n - 1).
                           When 2m > n - 1 it enumerates the shorter
                           complementary tuples of (1 - zeta^i)^s instead,
                           by prod_(i=1..n-1) (1 - zeta^i) = n, and the one
                           total is rationalized in Q(zeta_n).  The rows are
                           built once per (n, s);
* ``zeta_product``      -- coefficients of prod_j (1 + X/(1-zeta^j)^s), the
                           production route.  Each row (n, s) is a growing
                           prefix m = 0..top in one memo (``seqlib._prefix``)
                           that is extended only when a larger m is read.
                           It comes from one of three engines, whichever has
                           the least cost estimate (``_row_costs``: Newton's
                           for the prefix, the others' for the full row):
                           multisection of E(t) = ((1+t)^n - 1)/(nt) over
                           the s-th roots of unity, in Q(zeta_s), about
                           n (s+1) 2^s / 4 steps of degree phi(s) for a full
                           row; Newton's identities on the integers
                           e_i(v) = n^(i-1) C(n, i+1) of v_j = n/(1 - zeta^j),
                           about n s (n-1) integer steps; or the complement
                           Z(m, s) = e_(n-1-m)(y) / n^s with
                           y_i = (1 - zeta^i)^s, whose power sums are
                           constant terms of powers of (1 - x)^s modulo
                           x^n - 1, about n/2 integer polynomial products,
                           always the whole row.  Small s at large n takes
                           the first (``table zeta --n 1001 --s 2`` in a
                           fraction of a second), the rows between the
                           second, and larger s the third (from s = 3 to 5
                           when 16 <= n <= 101), where Newton's cost grows
                           as s^2.  None builds Q(zeta_n): the product in
                           Q(zeta_n), ``_field_row``, is only the reference
                           of ``verify routes`` and of the tests;
* ``zeta_via_stirling`` -- first-kind generalized q-Stirling identity, its
                           triangle filled on integer coordinates in
                           Z[zeta_n], its denominator's power of (1 - zeta)
                           the cyclic binomial power that brute and the
                           complement engine share;
* ``zeta_bell``         -- complete Bell polynomial in single-index values;
* ``zeta_det``          -- Toeplitz-Hessenberg determinant in single-index
                           values (and ``zeta_row_from_column`` inverts it),
                           each value Z_n(zeta_n; 1, k) = p_k(v)/n^k read
                           from the integer power sums of the v_j that the
                           Newton engine reads too (``_newton_power_sums``),
                           no field; the two differ from Newton only in
                           their last step;
* closed forms for s = 1, 2, 3 and the degenerate-Bernoulli form for m = 1.

``ROUTES`` is the one list of these routes: it maps each ``--method`` name
to its function, ``zeta_value`` dispatches through it, and the CLI, ``verify
routes`` and the tests read their route names from it.

The module also builds the subset-product polynomials F(s, l)(X, Y) from
power sums (Newton's identities, by ``exactnum``'s exp and log loops) and
checks the bivariate log-identity that generates all of these values at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice

from .cyclo import as_rational, cyclo_ctx, totient
from .exactnum import (
    UniPoly,
    kronecker_pack,
    kronecker_unpack,
    kronecker_width,
    newton_exp,
    newton_log,
    poly_interpolate,
    poly_mul,
    subset_product_sums,
    tuple_product_sum,
)
from .qstirling import (
    BadParams,
    RationalQ,
    RootOfUnityQ,
    qnums_from,
    rstirling1,
    stirling1,
)
from .seqlib import (
    _prefix,
    degen_bernoulli_series,
    seq_transform_forward,
    seq_transform_inverse,
)
from .util import CheckResult

DEFAULT_BRUTE_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    pass


class DegreeMismatch(ArithmeticError):
    """An interpolated value polynomial failed its extra-sample check."""


class UnsupportedClosedForm(ValueError):
    pass


@dataclass(frozen=True)
class ZetaValue:
    """An exact value together with the route that produced it."""

    value: Fraction
    method: str
    params: tuple  # (n, m, s)


def _validate(n: int, m: int, s: int) -> None:
    if n < 2:
        raise BadParams("need n >= 2")
    if m < 0:
        raise BadParams("need m >= 0")
    if s < 1:
        raise BadParams("need s >= 1")


@lru_cache(maxsize=None)
def _inv_pows(n: int, s: int):
    """(1 - zeta^i)^(-s) for i = 1..n-1: the closed forms at s = 1, their
    s-th powers otherwise."""
    if s == 1:
        return tuple(cyclo_ctx(n).inv_one_minus_power(i) for i in range(1, n))
    return tuple(c ** s for c in _inv_pows(n, 1))


def _newton_power_sums(top: int, n: int):
    """q_k = -p_k(v) for k = 0..top, where v_j = n/(1 - zeta_n^j), j = 1..n-1:
    algebraic integers, on plain ints.

    prod_j (1 + t v_j) = E(nt) = ((1 + nt)^n - 1)/(n^2 t), so their
    elementary symmetric values are e_i(v) = n^(i-1) C(n, i+1), and one
    ``newton_log`` pass over f_i = (-1)^i e_i(v), i <= min(n-1, top), gives
    every q_k.  One prefix per n serves every row (n, s) of ``_newton_row``
    and every single-index value ``_zeta_single(n, k)``.
    """
    f = [(-1) ** i * n ** (i - 1) * math.comb(n, i + 1) for i in range(1, min(n - 1, top) + 1)]
    return newton_log(f + [0] * (top - len(f)))


@lru_cache(maxsize=None)
def _zeta_single(n: int, k: int) -> Fraction:
    """Z_n(zeta_n; 1, k) = sum_i (1 - zeta^i)^(-k) = p_k(v)/n^k, with p_k(v)
    read from the growing prefix of ``_newton_power_sums`` at n."""
    return Fraction(-_prefix(k, _newton_power_sums, n)[k], n ** k)


def _field_row(top: int, n: int, s: int):
    """Z_n(zeta_n; m, s) for m = 0..n-1, whatever ``top``: all X-coefficients
    of prod_j (1 + X/(1-zeta^j)^s) in Q(zeta_n), rationalized."""
    return tuple(as_rational(c) for c in subset_product_sums(_inv_pows(n, s), cyclo_ctx(n).one()))


def _rotation_orbits(s: int):
    """One representative per rotation orbit of the nonempty subsets of Z/s,
    as (sorted members, orbit size)."""
    full = (1 << s) - 1
    reps = []
    for mask in range(1, full + 1):
        orbit = {mask}
        r = mask
        for _ in range(s - 1):
            r = ((r << 1) | (r >> (s - 1))) & full
            orbit.add(r)
        if mask == min(orbit):
            reps.append((tuple(i for i in range(s) if mask >> i & 1), len(orbit)))
    return tuple(reps)


def _multisection_row(top: int, n: int, s: int):
    """Z_n(zeta_n; m, s) for m = 0..min(top, n-1) by multisection over Q(zeta_s).

    With w_j = 1/(1 - zeta_n^j), prod_j (1 + t w_j) = E(t) = ((1+t)^n - 1)/(nt),
    and with omega = zeta_s, prod_r E(omega^r xi) = prod_j (1 - (-xi w_j)^s).
    Expanding the numerators gives

        Z(m, s) = (-1)^((s+1)m + s - 1) n^(-s) [xi^(s(m+1))]
                  sum over nonempty S in Z/s of (-1)^(s-|S|) g_S(xi)^n,

    g_S = prod_{r in S} (1 + omega^r xi).  Rotating S multiplies the
    coefficient of xi^k by omega^k, which is 1 at k = s(m+1), so one S per
    rotation orbit stands for the whole orbit.  Entry m reads g_S^n up to
    xi^(s(m+1)), and g_S^n has degree n |S|.
    """
    ctx = cyclo_ctx(s)
    top = min(top, n - 1)
    total = [ctx.zero()] * (top + 1)
    for subset, size in _rotation_orbits(s):
        g = subset_product_sums([ctx.zeta_power(r) for r in subset], ctx.one())
        powers = ctx.poly_power(g, n, min(n * len(subset), s * (top + 1)))
        weight = (-1) ** (s - len(subset)) * size
        for m in range((len(powers) - 1) // s):
            total[m] = total[m] + weight * powers[s * (m + 1)]
    den = n ** s
    return tuple(
        as_rational(t) / ((-1) ** ((s + 1) * m + s - 1) * den) for m, t in enumerate(total)
    )


def _newton_row(top: int, n: int, s: int):
    """Z_n(zeta_n; m, s) for m = 0..min(top, n-1) by Newton's identities on
    integers.

    The power sums p_k(v) of v_j = n/(1 - zeta_n^j) for k <= K = s top are
    read from the prefix of ``_newton_power_sums`` at n; then E_m = e_m(v^s)
    comes from the power sums p_i(v^s) = p_(is)(v) by the exp-side loop,
    whose divisions are exact, and Z(m, s) = E_m / n^(sm).  No field is
    built.
    """
    top = min(top, n - 1)
    q = _prefix(s * top, _newton_power_sums, n)
    # g_i = (-1)^(i-1) p_(is)(v) = (-1)^i q_(is)
    e = newton_exp([q[i * s] if i % 2 == 0 else -q[i * s] for i in range(1, top + 1)], integral=True)
    return tuple(Fraction(c, n ** (s * m)) for m, c in enumerate(e))


def _cyclic_mul(a: list, b: list) -> list:
    """The product of two elements of Z[x]/(x^n - 1), each given by its n
    coefficients: ``poly_mul``, with x^(n+r) folded onto x^r."""
    p = poly_mul(a, b)
    return [x + y for x, y in zip(p, p[len(a) :] + [0])]


def _one_minus_power_cyclic(n: int, i: int, s: int) -> list:
    """(1 - x^i)^s in Z[x]/(x^n - 1), as its n coefficients, for the
    complement engine's step, the brute oracle's complementary rows and the
    power of (1 - zeta) in the Stirling route's denominator.

    (1 - x)^s comes from the running product C(s, k+1) = C(s, k) (s-k)/(k+1),
    s steps on ints of up to s bits, or, when s > 4 n^2, by squaring from
    the top bit of s, about log2(s) products whose coefficients grow to s
    bits, each set bit then multiplying by 1 - x, one subtraction per
    coefficient: the s^2 bit operations of the one overtake the n^2 log2(s)
    products of the other near s = 4 n^2.  x -> x^i then moves the
    coefficient of x^r to x^(ir mod n), which holds for any i, prime to n
    or not."""
    out = [0] * n
    if s <= 4 * n * n:
        c = 1
        for k in range(s + 1):
            out[i * k % n] += c
            c = -c * (s - k) // (k + 1)
        return out
    power = [1] + [0] * (n - 1)
    for bit in bin(s)[2:]:
        power = _cyclic_mul(power, power)
        if bit == "1":
            # power[-1] is the coefficient of x^(n-1), which x carries to x^n = 1
            power = [c - power[r - 1] for r, c in enumerate(power)]
    for r, c in enumerate(power):
        out[i * r % n] += c
    return out


def _complement_row(top: int, n: int, s: int):
    """Z_n(zeta_n; m, s) for m = 0..n-1, whatever ``top``, from the
    complementary side on integers.

    The y_i = (1 - zeta_n^i)^s, i = 1..n-1, are algebraic integers with
    prod_i y_i = n^s, so Z(m, s) = e_m(1/y) = e_(n-1-m)(y) / n^s.  The sum of
    x^t over the n-th roots of unity x is n [n | t], and (1 - 1)^s = 0, so
    p_j(y) = n [x^0] r_j with r_j = (1 - x)^(sj) in Z[x]/(x^n - 1) (Newton's
    identities then give e_k(y); Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.2).  The r_a for a <= h = floor((n - 1)/2) come from
    h - 1 products by r_1 = ``_one_minus_power_cyclic(n, 1, s)``, and every
    p_j, j <= n - 2, is the constant term of r_a r_(j-a) with a = min(j, h):
    a sum of n products, where r_j itself would cost n^2.  One integral
    ``newton_exp`` pass gives e_k(y) for k <= n - 2, and e_(n-1)(y) = n^s.
    No field is built.
    """
    if n == 1:
        return (Fraction(1),)
    den = n ** s
    half = (n - 1) // 2
    step = _one_minus_power_cyclic(n, 1, s)
    powers = [[1] + [0] * (n - 1), step]
    for _ in range(half - 1):
        powers.append(_cyclic_mul(powers[-1], step))
    g = []
    for j in range(1, n - 1):
        a, b = powers[min(j, half)], powers[j - min(j, half)]
        # [x^0] a b, with b[-k] the coefficient of x^(n-k)
        g.append((-1) ** (j - 1) * n * sum(a[k] * b[-k] for k in range(n)))
    e = newton_exp(g, integral=True) + [den]
    return tuple(Fraction(e[n - 1 - m], den) for m in range(n))


def _row_costs(n: int, s: int, top: int | None = None) -> dict:
    """Estimated microseconds of each row engine on the cold row (n, s), the
    whole row, or only the entries m <= top where Newton builds less.

    The estimates were fitted to cold whole rows timed on a 2-core Xeon VM
    with Python 3.11.7; with K = s(n - 1), or s min(top, n - 1) for Newton's
    prefix, they are

    * ``complement``, ``_complement_row``: 24 + 0.56 n^2 s^0.24 +
      n^3.94 s^1.57 / 175000, about n/2 products in Z[x]/(x^n - 1) whose
      coefficients grow to s n / 2 bits, and n^2 products of smaller ints in
      the dot products and the exp pass.  The last term was fitted to rows
      with 4 <= n <= 101 and s up to 57564, the others to rows with
      17 <= n <= 80 and s <= 4, timed beside ``_newton_row`` and scaled to
      its estimate;
    * ``newton``, ``_newton_row``: 12 + w K (0.17 + K log2(n) (w + 2.5)/256000)
      with w = min(n, K + 1), about w K integer steps on power sums of up to
      K log2(n^2) bits, since the log pass reads f_i only for i <= min(n-1, K)
      (w = n on a whole row);
    * ``multisection``, ``_multisection_row``:
      n (2^s (s+1) (17 + phi(s)^2) + 198) / 27.2, about n (s+1) 2^s / 4
      recurrence steps of degree phi(s) plus a fixed cost per entry.

    All need only n, s and phi(s): no subset is enumerated, and 2^s is
    formed only when s is below the bit length of the other two.  Past the
    float range only the complement engine is estimated, at infinity.  The
    multisection and complement estimates stay whole-row whatever top: the
    complement engine builds the whole row, and the multisection's 2^s
    subset orbits cost the same for a short prefix.
    """
    big_k = s * (n - 1 if top is None else min(top, n - 1))
    width = min(n, big_k + 1)
    try:
        costs = {
            "complement": 24 + 0.56 * n * n * s ** 0.24 + n ** 3.94 * s ** 1.57 / 175000,
            "newton": 12 + width * big_k * (0.17 + big_k * math.log2(n) * (width + 2.5) / 256000),
        }
    except OverflowError:
        # s past the float range, where only the complement engine's slower
        # growth in s can compete
        return {"complement": math.inf}
    if s < int(min(costs.values())).bit_length():
        costs["multisection"] = n * (2 ** s * (s + 1) * (17 + totient(s) ** 2) + 198) / 27.2
    return costs


def _row_engine(n: int, s: int, top: int | None = None) -> str:
    """The row engine with the least estimate in ``_row_costs`` for the
    entries up to top, the whole row by default."""
    costs = _row_costs(n, s, top)
    return min(costs, key=costs.get)


#: Row engine name -> builder ``(top, n, s)`` of Z_n(zeta_n; m, s) for
#: m = 0..min(top, n-1); the complement engine builds the whole row whatever
#: top.  None builds Q(zeta_n): ``_field_row`` is only the tests' reference.
ROW_ENGINES = {"multisection": _multisection_row, "newton": _newton_row, "complement": _complement_row}


def _product_row(top: int, n: int, s: int):
    """The row (n, s) up to entry top from the engine ``_row_engine`` picks
    for that prefix."""
    return ROW_ENGINES[_row_engine(n, s, top)](top, n, s)


def _zeta_multi(n: int, m: int, s: int, build=_product_row) -> Fraction:
    """Z_n(zeta_n; m, s) from the growing prefix (``seqlib._prefix``) of the
    row (n, s) that ``build`` gives, the production row by default; zero
    above the top row."""
    return _prefix(m, build, n, s)[m] if m < n else Fraction(0)


def zeta_product(n: int, s: int, m_max: int):
    """Values Z_n(zeta_n; m, s) for m = 0..m_max via the generating product,
    from one prefix of the row built to m_max."""
    _validate(n, 0, s)
    if m_max < 0:
        raise BadParams("need m_max >= 0")
    _prefix(min(m_max, n - 1), _product_row, n, s)
    return [
        ZetaValue(_zeta_multi(n, m, s), "product", (n, m, s))
        for m in range(m_max + 1)
    ]


def _cyclic_tuple_sum(n: int, rows, depth: int, count: int) -> list:
    """The n coefficients of the sum over the ``count`` index tuples
    i_1 < ... < i_depth of rows[i_1] ... rows[i_depth] in Z[x]/(x^n - 1),
    each row given by at most n integer coefficients.

    Every row is packed at x = 2^(8w), and every product of the literal
    enumeration is reduced modulo M = 2^(8wn) - 1, the integer image of
    x^n = 1: one big-int product, a mask, a shift and an add.  The L1 norm
    is submultiplicative under cyclic convolution, so with L the largest row
    norm every coefficient of the exact sum is below count * L^depth in
    absolute value, and w = ``kronecker_width`` of that bound keeps the
    packed exact sum inside (-M/2, M/2]: its balanced residue is that sum.
    """
    w = kronecker_width(count * max(sum(map(abs, r)) for r in rows) ** depth)
    bits = 8 * w * n
    mod = (1 << bits) - 1

    def fold(a, b):
        p = a * b
        return (p & mod) + (p >> bits)

    packed = [kronecker_pack(r, w) for r in rows]
    total = tuple_product_sum(packed, depth, mul=fold) % mod
    if total > mod >> 1:
        total -= mod
    return kronecker_unpack(total, w, n)


def zeta_brute(n: int, m: int, s: int, budget: int = DEFAULT_BRUTE_BUDGET) -> ZetaValue:
    """Literal sum over all strictly increasing index tuples (the oracle),
    or over their complements when those are shorter.

    With v_i = n^s (1 - zeta^i)^(-s), which lies in Z[zeta_n],
    Z = sum over the m-tuples of prod v / n^(sm).  Since
    prod_(i=1..n-1) (1 - zeta^i) = n, each m-tuple's product is also the
    product of u_i = (1 - zeta^i)^s over the complementary (n-1-m)-tuple,
    divided by n^s; so when 2m > n - 1 the sum runs over those shorter
    tuples, and m = n - 1 needs none.  Either way every tuple's product is
    taken on packed integers modulo 2^N - 1 (``_cyclic_tuple_sum``) and the
    one total is rationalized in Q(zeta_n).  The rows of each side depend on
    (n, s) only and are memoized (``_brute_rows``), so a sweep over m builds
    them once.

    Refuses to enumerate more than ``budget`` tuples, counted as C(n-1, m)
    before any row is built.
    """
    _validate(n, m, s)
    if m == 0:
        return ZetaValue(Fraction(1), "brute", (n, m, s))
    count = math.comb(n - 1, m)
    if count > budget:
        raise BudgetExceeded(f"{count} tuples exceed budget {budget}")
    if count == 0:
        return ZetaValue(Fraction(0), "brute", (n, m, s))
    complementary = 2 * m > n - 1
    if complementary:
        depth, den = n - 1 - m, n ** s
        if depth == 0:
            return ZetaValue(Fraction(1, den), "brute", (n, m, s))
    else:
        depth, den = m, n ** (s * m)
    rows = _brute_rows(n, s, complementary)
    total = cyclo_ctx(n).from_zeta_powers(_cyclic_tuple_sum(n, rows, depth, count), den)
    return ZetaValue(as_rational(total), "brute", (n, m, s))


@lru_cache(maxsize=None)
def _brute_rows(n: int, s: int, complementary: bool) -> tuple:
    """The n - 1 integer rows of the brute oracle at (n, s), built once for
    every m: the coordinates of v_i = n^s (1 - zeta^i)^(-s) in Z[zeta_n], or,
    for the complementary tuples, the n coefficients of (1 - x^i)^s in
    Z[x]/(x^n - 1)."""
    if complementary:
        return tuple(tuple(_one_minus_power_cyclic(n, i, s)) for i in range(1, n))
    return tuple((c * n ** s).num for c in _inv_pows(n, s))


def zeta_via_stirling(n: int, m: int, s: int) -> ZetaValue:
    """Evaluate through the first-kind q-Stirling entry (n, m+1) at r = 1:
    the entry divided by (1-q)^(sm) ([n-1]_q!)^s at q = zeta_n."""
    _validate(n, m, s)
    qpt = RootOfUnityQ(n)
    entry = stirling1(n, m + 1, r=1, s=s, q=qpt)
    # prod_{j<n} (1 - zeta^j) = n gives [n-1]_q! = n / (1-zeta)^(n-1), so the
    # divisor is n^s (1-zeta)^(s(m-n+1)); (1-zeta)^k is its binomial
    # expansion, and for m >= n the entry vanishes, so any factor will do
    k = max(s * (n - 1 - m), 0)
    scale = qpt.ctx.from_zeta_powers(_one_minus_power_cyclic(n, 1, k), 1)
    val = as_rational(entry * scale) / n ** s
    return ZetaValue(val, "stirling", (n, m, s))


def _single_index_transform(n: int, m: int, s: int, route: str, method: str) -> ZetaValue:
    """Z_n(zeta_n; m, s) as the forward sequence transform, by ``route``, of
    the single-index values a_j = Z_n(zeta_n; 1, js), j = 1..m."""
    _validate(n, m, s)
    a = [_zeta_single(n, j * s) for j in range(1, m + 1)]
    return ZetaValue(seq_transform_forward(a, m, route=route), method, (n, m, s))


def zeta_bell(n: int, m: int, s: int) -> ZetaValue:
    """(1/m!) Y_m(a_1, -1! a_2, 2! a_3, ...) with a_j = Z_n(zeta_n; 1, js)."""
    return _single_index_transform(n, m, s, "bell", "bell")


def zeta_det(n: int, m: int, s: int) -> ZetaValue:
    """(1/m!) times the Toeplitz-Hessenberg determinant with first column
    Z_n(zeta_n; 1, js) and superdiagonal 1, 2, ..., m-1."""
    return _single_index_transform(n, m, s, "determinant", "det")


def zeta_row_from_column(n: int, m: int, s: int) -> Fraction:
    """Z_n(zeta_n; 1, ms) recovered from the column Z_n(zeta_n; j, s), j <= m,
    by the inverse determinant (first column j * values, unit superdiagonal)."""
    _validate(n, m, s)
    if m < 1:
        raise BadParams("need m >= 1")
    b = [_zeta_multi(n, j, s) for j in range(1, m + 1)]
    return seq_transform_inverse(b, m, route="determinant")


def zeta_1s_det(n: int, s: int) -> Fraction:
    """Z_n(zeta_n; 1, s) as a determinant whose entries are the scaled
    binomials C(n-1, j)/(j+1) coming from the s = 1 closed form."""
    _validate(n, 0, s)
    b = [zeta_m1_closed(n, j) for j in range(1, s + 1)]
    return seq_transform_inverse(b, s, route="determinant")


def zeta_m1_closed(n: int, m: int) -> Fraction:
    """Z_n(zeta_n; m, 1) = C(n-1, m) / (m+1)."""
    _validate(n, m, 1)
    return Fraction(math.comb(n - 1, m), m + 1)


def zeta_m2_closed(n: int, m: int) -> Fraction:
    """Z_n(zeta_n; m, 2) = (C(n-1, m) + (-1)^m C(n-1, 2m+1)) / (n (m+1))."""
    _validate(n, m, 2)
    if m < 1:
        raise BadParams("need m >= 1")
    return Fraction(
        math.comb(n - 1, m) + (-1) ** m * math.comb(n - 1, 2 * m + 1),
        n * (m + 1),
    )


@lru_cache(maxsize=None)
def rstirling_inner_poly(m: int) -> UniPoly:
    """sum_k [2m+2, m+k+2]_(m+1) (-1)^k x^k, the polynomial factor of the
    r-Stirling form of the s = 2 closed formula."""
    return UniPoly(
        [rstirling1(2 * m + 2, m + k + 2, m + 1) * (-1) ** k for k in range(m + 1)]
    )


@lru_cache(maxsize=None)
def _reciprocal_tuple_sums(m: int):
    """T_k = sum over m+1 <= i_1 < ... < i_{k+1} <= 2m+1 of 1/(i_1...i_{k+1})."""
    return tuple(subset_product_sums([Fraction(1, i) for i in range(m + 1, 2 * m + 2)])[1:])


def zeta_m2_rstirling(n: int, m: int):
    """Both r-Stirling-flavoured forms of Z_n(zeta_n; m, 2).

    Returns ``(via_rstirling, via_reciprocal_tuples)``:
    (2 m!/(2m+2)!) C(n-1, m) sum_k [2m+2, m+k+2]_(m+1) (-n)^k   and
    (1/n) C(n, m+1) sum_k (-n)^k sum 1/(i_1...i_{k+1}).
    """
    _validate(n, m, 2)
    if m < 1:
        raise BadParams("need m >= 1")
    inner = rstirling_inner_poly(m)
    val1 = (
        Fraction(2 * math.factorial(m), math.factorial(2 * m + 2))
        * math.comb(n - 1, m)
        * inner(Fraction(n))
    )
    sums = _reciprocal_tuple_sums(m)
    inner2 = sum(sums[k] * Fraction(-n) ** k for k in range(m + 1))
    val2 = Fraction(math.comb(n, m + 1), n) * inner2
    return val1, val2


def zeta_m3_closed(n: int, m: int) -> Fraction:
    """Closed form for Z_n(zeta_n; m, 3): binomial head plus the double sum
    with weights 2^i (-3)^(m-2k-i+1)."""
    _validate(n, m, 3)
    if m < 1:
        raise BadParams("need m >= 1")
    head = Fraction(
        math.comb(n - 1, m) + math.comb(n - 1, 3 * m + 2),
        n * n * (m + 1),
    )
    acc = Fraction(0)
    for k in range((m + 1) // 2 + 1):
        inner = sum(
            math.comb(m - 2 * k + 1, i)
            * math.comb(n + m - 2 * k - i, 3 * m - 3 * k + 2)
            * 2 ** i * (-3) ** (m - 2 * k - i + 1)
            for i in range(m - 2 * k + 2)
        )
        acc += Fraction(math.comb(m - k + 1, k) * inner, m - k + 1)
    return head - acc / n ** 2


def harmonic_q_series(n: int, parts, q=None):
    """Finite multiple harmonic q-series over decreasing index tuples:

    sum over n-1 >= i_1 > ... > i_m >= 1 of
    prod_j q^((s_j - 1) i_j) / ([i_j]_q)^(s_j).

    With q omitted the evaluation point is zeta_n and the result is a field
    element (it is generally irrational), and 1/[i]^(s_j) is (1 - zeta)^(s_j)
    times the memoized (1 - zeta^i)^(-s_j) of ``_inv_pows``, with one power
    of (1 - zeta) per distinct part.  A rational q gives a Fraction.

    Nested prefix sums, innermost part first: i_d runs over m-d+1 .. n-d,
    and the running sums of depth d accumulate the row of s_d times those of
    depth d+1 one index lower, so past the rows m parts cost m (n - m) products.
    """
    parts = tuple(parts)
    if not parts:
        raise BadParams("parts must be nonempty")
    if any(p < 1 for p in parts):
        raise BadParams("parts must be >= 1")
    if n < 2:
        raise BadParams("need n >= 2")
    m = len(parts)
    if q is None:
        ctx = cyclo_ctx(n)
        one_minus_zeta = ctx.one() - ctx.zeta()
        scales = {sj: one_minus_zeta ** sj for sj in set(parts)}

        def factor(sj, i):
            return ctx.zeta_power((sj - 1) * i) * scales[sj] * _inv_pows(n, sj)[i - 1]

        zero = ctx.zero()
    else:
        q = Fraction(q)
        qnums = list(islice(qnums_from(RationalQ(q), 1), n - 1))

        def factor(sj, i):
            return q ** ((sj - 1) * i) / qnums[i - 1] ** sj

        zero = Fraction(0)

    if m > n - 1:
        return zero
    rows = {sj: [factor(sj, i) for i in range(1, n)] for sj in set(parts)}
    sums = list(accumulate(rows[parts[-1]][: n - m]))
    for d in range(m - 1, 0, -1):
        sums = list(accumulate(a * b for a, b in zip(rows[parts[d - 1]][m - d : n - d], sums)))
    return sums[-1]


def zeta_1s_degenerate_bernoulli(n: int, s: int) -> Fraction:
    """Z_n(zeta_n; 1, s) = -sum_j C(s-1, j-1) beta_j(1/n) n^j / j! with the
    degenerate Bernoulli numbers beta_j, every beta_j / j! read from one
    :func:`seqlib.degen_bernoulli_series` to order s + 1."""
    _validate(n, 1, s)
    beta = degen_bernoulli_series(n, s + 1)
    return -sum(math.comb(s - 1, j - 1) * beta[j] * n ** j for j in range(1, s + 1))


def harmonic_bernoulli_identity_check(n: int, j: int) -> CheckResult:
    """In-field identity linking the single-index harmonic q-series to the
    degenerate Bernoulli numbers:
    z_n(zeta_n; j) = -(beta_j(1/n)/j!) (n (1 - zeta_n))^j."""
    result = CheckResult(["harmonic-bernoulli"])
    ctx = cyclo_ctx(n)
    lhs = harmonic_q_series(n, (j,))
    scale = (ctx.one() - ctx.zeta()) * n
    rhs = -degen_bernoulli_series(n, j + 1)[j] * scale ** j
    result.record(lhs == rhs, n=n, j=j)
    return result


def harmonic_decomposition_check(n: int, s: int) -> CheckResult:
    """Binomial decomposition of the single-row zeta value into harmonic
    q-series with (1-q)^j denominators, verified exactly in Q(zeta_n):
    Z_n(q; 1, s) = sum_j C(s-1, j-1) z_n(q; j) / (1-q)^j at q = zeta_n."""
    result = CheckResult(["harmonic-decomposition"])
    ctx = cyclo_ctx(n)
    inv = ctx.inv_one_minus_power(1)
    rhs = ctx.zero()
    for j in range(1, s + 1):
        rhs = rhs + math.comb(s - 1, j - 1) * (harmonic_q_series(n, (j,)) * inv ** j)
    result.record(rhs == _zeta_single(n, s), n=n, s=s)
    return result


def f_poly(s: int, l: int) -> UniPoly:
    """Subset-product polynomial F(s, l)(X, Y) = prod over l-subsets of
    (1 - alpha_{i_1}...alpha_{i_l} Y), returned as a polynomial in Y whose
    coefficients are polynomials in X.

    The alpha are the roots of (1 - Y)^s + X, so prod_i (1 - alpha_i Y) =
    sum_j (-1)^j e_j Y^j with e_j = C(s, j) + [j = s] X, and its log is
    -sum_k p_k(alpha) Y^k / k, so ``newton_log`` returns -p_k(alpha).  The
    subset products beta have power sums p_k(beta) = e_l(alpha^k), Newton's
    transform of p_k, p_2k, ..., p_lk, and F is the exp of -sum_k p_k(beta)
    Y^k / k cut at its degree C(s, l): ``newton_exp`` on g_k = -p_k(beta).
    No root extension is ever constructed; F(s, 0) is 1 - Y by convention.
    """
    if s < 1 or l < 0 or l > s:
        raise BadParams("need s >= 1 and 0 <= l <= s")
    one_x = UniPoly((Fraction(1),))
    if l == 0:
        return UniPoly((one_x, -one_x))
    deg = math.comb(s, l)
    e = [one_x * ((-1) ** j * math.comb(s, j)) for j in range(s + 1)]
    e[s] = e[s] + UniPoly((0, Fraction((-1) ** s)))
    p = [-q for q in newton_log(e[1:] + [UniPoly()] * (l * deg - s))]
    f = newton_exp([-seq_transform_forward(p[k::k][:l], l) for k in range(1, deg + 1)])
    # newton_exp's e_0 is the integer 1, not the polynomial one
    return UniPoly([one_x] + f[1:])


def logf_identity_check(s: int, trunc: int = 12) -> CheckResult:
    """Check the bivariate generating identity

    sum_{n>=1} n^(s-1) Y^n sum_{m<n} Z_n(zeta_n; m, s) X^m
        = ((-1)^(s-1)/X) log( prod_l F(s, l)(X, Y)^((-1)^l) )

    coefficientwise up to Y^trunc, where the left side uses zeta_product.
    The division by X asserts first that every X^0 coefficient vanishes.
    """
    if s not in (1, 2, 3):
        raise BadParams("left side is evaluated for s in {1, 2, 3} only")
    if not 1 <= trunc <= 20:
        raise BadParams("need 1 <= trunc <= 20")
    # k [Y^k] of the signed sum of log F(s, l), each F cut or zero-padded to
    # Y^trunc; every F(s, l) has constant term 1, so the logs start at Y^1
    weighted = [0] * (trunc + 1)
    for l in range(s + 1):
        coeffs = list(f_poly(s, l).coeffs[1 : trunc + 1])
        q = newton_log(coeffs + [UniPoly()] * (trunc - len(coeffs)))
        sign = (-1) ** (s - 1 + l)
        weighted = [w + sign * c for w, c in zip(weighted, q)]
    rhs = [UniPoly()] + [weighted[k] / k for k in range(1, trunc + 1)]

    result = CheckResult(["logf", "product"])
    shifted = []
    for n_idx, u in enumerate(rhs):
        result.record(
            u.coeff(0) == 0,
            kind="x0-vanishes",
            n=n_idx,
            actual=str(u.coeff(0)),
        )
        shifted.append(UniPoly(u.coeffs[1:]))
    result.record(shifted[0].is_zero(), kind="y0-vanishes", actual=repr(shifted[0]))
    for n in range(1, trunc + 1):
        row = _prefix(n - 1, _product_row, n, s)
        u = shifted[n]
        scale = Fraction(n ** (s - 1))
        deg = u.degree()
        result.record(
            deg is None or deg <= n - 1,
            kind="x-degree",
            n=n,
            actual=deg,
        )
        for m in range(n):
            expected = scale * row[m]
            actual = u.coeff(m)
            result.record(
                actual == expected,
                kind="coefficient",
                n=n,
                m=m,
                expected=str(expected),
                actual=str(actual),
            )
    return result


def zeta_poly_in_n(m: int, s: int, degree_cap: int = 16) -> UniPoly:
    """Interpolate n -> Z_n(zeta_n; m, s) as a polynomial in n of degree m*s.

    Samples n = m+1, m+2, ... (m*s + 3 points), then demands that two extra
    samples lie on the curve; DegreeMismatch means the polynomiality
    assumption failed, which would be a discovery, not a fallback.
    """
    if m < 0 or s < 1:
        raise BadParams("need m >= 0 and s >= 1")
    deg = m * s
    if deg > degree_cap:
        raise BadParams(f"degree {deg} exceeds cap {degree_cap}")
    xs = list(range(m + 1, m + 1 + deg + 3))
    pts = [(Fraction(x), _zeta_multi(x, m, s)) for x in xs]
    p = poly_interpolate(pts)
    if p.degree() is not None and p.degree() > deg:
        raise DegreeMismatch(f"interpolant degree {p.degree()} exceeds {deg}")
    for x in (xs[-1] + 1, xs[-1] + 2):
        if p(Fraction(x)) != _zeta_multi(x, m, s):
            raise DegreeMismatch(f"extra sample n={x} is off the curve")
    return p


def _poly(*coeffs) -> UniPoly:
    return UniPoly(tuple(Fraction(c) for c in coeffs))


def _root(a: int) -> UniPoly:
    return UniPoly((Fraction(-a), Fraction(1)))


def _build_reference_polynomials():
    f = math.factorial
    table = {
        (1, 1): _poly(-1, 1) / 2,
        (1, 2): -(_root(1) * _root(5)) / 12,
        (1, 3): -(_root(1) * _root(3)) / 8,
        (1, 4): _root(1) * _poly(251, -109, 1, 1) / f(6),
        (1, 5): _root(1) * _root(5) * _poly(-19, 6, 1) / 288,
        (1, 6): -(_root(1) * _poly(-19087, 11153, -355, -355, 2, 2)) / (12 * f(7)),
        (1, 7): -(_root(1) * _root(7) * _poly(751, -376, -33, 16, 2)) / (24 * f(6)),
        (1, 8): _root(1)
        * _poly(1070017, -744383, 39697, 39697, -917, -917, 3, 3)
        / f(10),
        (1, 9): 27
        * (_root(1) * _root(3) * _root(9) * _poly(2857, -851, -350, 10, 13, 1))
        / (2 * f(10)),
        (2, 2): 2 * (_root(1) * _root(2) * _poly(47, -12, 1)) / f(6),
        (3, 2): -2
        * (_root(1) * _root(2) * _root(3) * _poly(-638, 179, -22, 1))
        / f(8),
        (4, 2): 2
        * (_root(1) * _root(2) * _root(3) * _root(4) * _poly(11274, -3325, 485, -35, 1))
        / f(10),
        (2, 3): 6 * (_root(1) * _root(2) * _poly(6898, -2883, 301, 3, 1)) / f(9),
        (3, 3): -3
        * (_root(1) * _root(2) * _root(3) * _poly(-32986, 15019, -2290, 100, -4, 1))
        / f(10),
        (4, 3): 2
        * (
            _root(1)
            * _root(2)
            * _root(3)
            * _root(4)
            * _poly(
                1157817876,
                -551374960,
                99197195,
                -7406910,
                360423,
                -53340,
                3705,
                10,
                1,
            )
        )
        / (5 * f(14)),
        (2, 4): 2
        * (_root(1) * _root(2) * _poly(188878, -101613, 12869, 810, -148, 3, 1))
        / f(10),
    }
    return table


#: Known value polynomials in n (keyed by (m, s)); the polynomial
#: verification suite reproduces each of these through zeta_poly_in_n.
REFERENCE_POLYNOMIALS = _build_reference_polynomials()

#: Constant terms of the value polynomials for m = 1, s = 1, 2, ...; they
#: equal (-1)^(s-1) B_s^(s) / s! with the Norlund numbers B_s^(s).
REFERENCE_CONSTANT_TERMS = (
    Fraction(-1, 2),
    Fraction(-5, 12),
    Fraction(-3, 8),
    Fraction(-251, 720),
    Fraction(-95, 288),
    Fraction(-19087, 60480),
    Fraction(-5257, 17280),
)


def _zeta_closed(n: int, m: int, s: int) -> ZetaValue:
    """The closed form that covers (m, s): m = 0, then s = 1, 2 or 3, then
    the degenerate-Bernoulli form at m = 1."""
    if m == 0:
        value = Fraction(1)
    elif s == 1:
        value = zeta_m1_closed(n, m)
    elif s == 2:
        value = zeta_m2_closed(n, m)
    elif s == 3:
        value = zeta_m3_closed(n, m)
    elif m == 1:
        value = zeta_1s_degenerate_bernoulli(n, s)
    else:
        raise UnsupportedClosedForm(f"no closed form for m={m}, s={s}")
    return ZetaValue(value, "closed", (n, m, s))


#: The one list of routes: each ``--method`` name, in the order ``qmzv value
#: --help`` shows, mapped to a callable (n, m, s, budget) -> ZetaValue; only
#: brute reads the budget.  An entry looks its function up by name when it
#: is called, so a function rebound on this module (a tracer's wrapper, a
#: test's planted fault) is the one that runs.
ROUTES = {
    "brute": lambda n, m, s, budget: zeta_brute(n, m, s, budget=budget),
    "product": lambda n, m, s, budget: ZetaValue(_zeta_multi(n, m, s), "product", (n, m, s)),
    "stirling": lambda n, m, s, budget: zeta_via_stirling(n, m, s),
    "bell": lambda n, m, s, budget: zeta_bell(n, m, s),
    "det": lambda n, m, s, budget: zeta_det(n, m, s),
    "closed": lambda n, m, s, budget: _zeta_closed(n, m, s),
}


def zeta_value(
    n: int,
    m: int,
    s: int,
    method: str = "product",
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> ZetaValue:
    """Z_n(zeta_n; m, s) by the route of :data:`ROUTES` named ``method``;
    the dispatcher of the command-line front end."""
    _validate(n, m, s)
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    return ROUTES[method](n, m, s, budget)
