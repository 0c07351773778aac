"""Special sequences: complete Bell polynomials, the sequence transform pair
(four forward routes: convolution recurrence / Toeplitz-Hessenberg
determinant / Bell polynomial / multinomial sum; two inverse: recurrence /
determinant), harmonic and hyperharmonic numbers, degenerate Bernoulli
numbers, and higher-order Bernoulli / Norlund numbers.

The Bell, partition and determinant transforms run on plain ints over one
graded common denominator.  Give x_j the weight j.  Then Y_n is homogeneous
of weight n: Y_n(c x_1, c^2 x_2, ...) = c^n Y_n(x), since every monomial
x_(j_1) ... x_(j_k) of Y_n has j_1 + ... + j_k = n.  So for any D with
den(x_j) | D^j for every j, X_j = x_j D^j is an exact int and
Y_n(x) = Y_n(X) / D^n.  ``_graded`` takes D as the lcm of d_1, ..., d_n,
d_j = den(x_j) / gcd(den(x_j), d_1 ... d_(j-1)): den(x_j) divides
d_1 ... d_j and so D^j.  D divides the lcm of the denominators, and is far
smaller for inputs whose denominators grow with the index: 1/(j+1)! gives
lcm(2, ..., n+1), not (n+1)!, and Z_30(zeta_30; 1, 2j), j <= 12, gives
D = 60 where the lcm has 57 bits.  The Hessenberg matrices of the
determinant routes are graded the same way: entry (i, j) has weight
i - j + 1 and the superdiagonal weight 0, so scaling row i by D^(i+1) and
column j by D^(-j) gives an int matrix whose determinant is D^d times the
original.  ``_graded`` computes the X_j and D once per input, and each
transform makes one Fraction, at the end.  So ``bell_complete``, the Bell
and partition routes of ``seq_transform_forward`` and the determinant
routes of ``seq_transform_forward`` and ``seq_transform_inverse`` take ints
and Fractions only.  The recurrence routes stay generic over any
coefficient ring and run on Fractions: they are the one route of each
transform that shares no arithmetic with the graded ones.

Harmonic, degenerate Bernoulli (per m, and in lambda), higher-order Bernoulli
(per alpha) and Norlund numbers each read one growing list through ``_prefix``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .exactnum import BadConstantTerm, UniPoly, det_hessenberg, newton_exp, newton_log, poly_mul, series_inv
from .util import fractionize


class InsufficientInput(ValueError):
    pass


class UnsupportedLambda(ValueError):
    pass


def _partition_multiplicities(n: int):
    """Yield the partitions of n as lists of (part, multiplicity) pairs."""

    def rec(remaining, max_part):
        if remaining == 0:
            yield []
            return
        for j in range(min(remaining, max_part), 0, -1):
            for mult in range(remaining // j, 0, -1):
                for rest in rec(remaining - j * mult, j - 1):
                    yield [(j, mult)] + rest

    yield from rec(n, n)


def _check_order(order: int, given: Sequence, name: str, noun: str) -> None:
    """Refuse a negative order, and fewer than ``order`` inputs."""
    if order < 0:
        raise ValueError(f"need {name} >= 0")
    if len(given) < order:
        raise InsufficientInput(f"need {order} {noun}, got {len(given)}")


def _graded(xs: Sequence):
    """``(X, D)`` for the weight-graded rationals x_1, ..., x_d in ``xs``,
    with X_j = x_j D^j an exact int.  D is the lcm of d_1, ..., d_d, where
    d_j = den(x_j) / gcd(den(x_j), d_1 ... d_(j-1)): den(x_j) divides
    d_1 ... d_j, which divides D^j.  Each d_j divides den(x_j), so D divides
    the lcm of the denominators, and denominators that grow like c^j give
    D = c, not c^d.  Anything but an int or a Fraction is refused with a
    TypeError."""
    for x in xs:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"Bell, partition and determinant transforms take int or Fraction, not {type(x).__name__}"
            )
    steps = []
    covered = 1  # d_1 ... d_(j-1)
    for x in xs:
        den = x.denominator
        steps.append(den // math.gcd(den, covered))
        covered *= steps[-1]
    d = math.lcm(*steps)
    graded = []
    scale = 1
    for x in xs:
        scale *= d
        graded.append(x.numerator * (scale // x.denominator))
    return graded, d


def bell_complete(n: int, xs: Sequence):
    """Complete exponential Bell polynomial Y_n(x_1, ..., x_n), Y_0 = 1, for
    int or Fraction x_j.

    Production path: the binomial convolution
    Y_{t+1} = sum_k C(t, k) Y_{t-k} x_{k+1}, run on the graded ints
    X_j = x_j D^j of :func:`_graded`; Y_n(x) = Y_n(X) / D^n by weight.
    """
    _check_order(n, xs, "n", "inputs")
    xs, d = _graded(xs[:n])
    ys = [1]
    for t in range(n):
        ys.append(sum(math.comb(t, k) * ys[t - k] * xs[k] for k in range(t + 1)))
    return Fraction(ys[n], d**n)


def bell_partition_sum(n: int, xs: Sequence):
    """Y_n evaluated literally as the sum over partitions of n.

    Oracle path (factorial cost); each partition with multiplicities
    (i_1, i_2, ...) contributes the int n!/prod (i_j! (j!)^(i_j)) times
    prod x_j^(i_j).  Int and Fraction inputs give a Fraction.
    """
    _check_order(n, xs, "n", "inputs")
    if n == 0:
        return Fraction(1)
    total = 0
    for partition in _partition_multiplicities(n):
        den = 1
        term = 1
        for part, mult in partition:
            den *= math.factorial(mult) * math.factorial(part) ** mult
            term = term * xs[part - 1] ** mult
        total = total + math.factorial(n) // den * term
    return fractionize(total)


def _newton_bell_args(a: Sequence, m: int):
    """x_j = (-1)^(j-1) (j-1)! a_j for j = 1..m, so that Y_m(x)/m! is the
    m-th elementary symmetric value of the power sums a_1, a_2, ..."""
    return [(-1) ** j * math.factorial(j) * a[j] for j in range(m)]


_FORWARD_ROUTES = ("recurrence", "determinant", "bell", "partition")
_INVERSE_ROUTES = ("recurrence", "determinant")


def _hessenberg(first, band, superdiagonal):
    """Lower-Hessenberg matrix with first column ``first``, entry (i, j) =
    band[i - j] for 1 <= j <= i, entry (i, i + 1) = superdiagonal[i], and
    zeros above that."""
    d = len(first)
    rows = []
    for i in range(d):
        row = [first[i]] + [band[i - j] for j in range(1, i + 1)]
        if i + 1 < d:
            row.append(superdiagonal[i])
        rows.append(row + [0] * (d - len(row)))
    return rows


def seq_transform_forward(a: Sequence, m: int, route: str = "recurrence"):
    """b_m from a_1..a_m (both sequences implicitly start with index 0 = 1).

    The pair (a, b) is linked Newton-style: m b_m = sum_i (-1)^(i-1) a_i
    b_{m-i}, so b_m is the m-th elementary symmetric value of the power
    sums a_1, a_2, ...  Four routes: "recurrence" (that convolution, run by
    :func:`exactnum.newton_exp` on g_i = (-1)^(i-1) a_i), "determinant" (the
    (1/m!)-scaled Toeplitz-Hessenberg determinant with superdiagonal
    1..m-1), and Y_m(x)/m! with x_j = (-1)^(j-1) (j-1)! a_j, either by the
    binomial convolution of :func:`bell_complete` ("bell") or summed over
    the partitions of m by :func:`bell_partition_sum` ("partition").

    The determinant, Bell and partition routes take int or Fraction a_i
    only, and run on the graded ints A_i = a_i D^i of :func:`_graded`.  The
    determinant's entry (i, j) of weight i - j + 1 becomes A_(i-j+1) and the
    superdiagonal stays, which scales the determinant by D^m; the Bell
    arguments (-1)^(j-1) (j-1)! A_j are ints of weight j, which scales Y_m
    by D^m.  Either way b_m = value / (D^m m!).
    """
    _check_order(m, a, "m", "terms")
    if route not in _FORWARD_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if m == 0:
        return Fraction(1)
    if route == "determinant":
        graded, d = _graded(a[:m])
        det = det_hessenberg(_hessenberg(graded, graded, range(1, m)))
        return Fraction(det, d**m * math.factorial(m))
    if route in ("bell", "partition"):
        graded, d = _graded(a[:m])
        bell = bell_complete if route == "bell" else bell_partition_sum
        return bell(m, _newton_bell_args(graded, m)) / (d**m * math.factorial(m))
    a = [fractionize(x) for x in a[:m]]
    return newton_exp([x if i % 2 else -x for i, x in enumerate(a, 1)])[m]


def seq_transform_inverse(b: Sequence, n: int, route: str = "recurrence"):
    """a_n recovered from b_1..b_n; inverse of :func:`seq_transform_forward`.

    Routes: "determinant" (first column j*b_j, unit superdiagonal) and
    "recurrence" (a_n = sum_{j<n} (-1)^(j-1) b_j a_{n-j} + (-1)^(n+1) n b_n,
    which is -q_n of :func:`exactnum.newton_log` on f_j = (-1)^j b_j).

    The determinant route takes int or Fraction b_j only and runs on the
    graded ints B_j = b_j D^j of :func:`_graded`, graded as in
    :func:`seq_transform_forward`: a_n = det / D^n.
    """
    _check_order(n, b, "n", "terms")
    if route not in _INVERSE_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    if n == 0:
        return Fraction(1)
    if route == "determinant":
        graded, d = _graded(b[:n])
        first = [j * x for j, x in enumerate(graded, 1)]
        return Fraction(det_hessenberg(_hessenberg(first, graded, [1] * (n - 1))), d**n)
    b = [fractionize(x) for x in b[:n]]
    return -newton_log([-x if j % 2 else x for j, x in enumerate(b, 1)])[n]


def _harmonic_numbers(top: int) -> list:
    """H_0, ..., H_top, one addition each."""
    return list(accumulate((Fraction(1, k) for k in range(1, top + 1)), initial=Fraction(0)))


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, read from the :func:`_harmonic_numbers` prefix."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _prefix(n, _harmonic_numbers)[n]


@lru_cache(maxsize=None)
def hyperharmonic(n: int, k: int) -> Fraction:
    """h_n^(k): iterated partial sums of harmonic numbers, h_n^(1) = H_n; for
    k >= 2 C(n+k-1, k-1) (H_(n+k-1) - H_(k-1)) in n additions (Benjamin-Gaebler)."""
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    if k == 1:
        return harmonic(n)
    return math.comb(n + k - 1, k - 1) * sum(Fraction(1, i) for i in range(k, n + k))


def _degen_bernoulli_numbers(top: int, m: int) -> list:
    """beta_j(1/m) / j! for j = 0..top: the coefficients of t / ((1 + t/m)^m - 1),
    inverted from the exact binomial expansion."""
    return series_inv([Fraction(math.comb(m, j + 1), m ** (j + 1)) for j in range(top + 1)])


def degen_bernoulli_series(m: int, order: int) -> list:
    """The coefficients of t / ((1 + t/m)^m - 1) to the given order: entry j
    is beta_j(1/m) / j! for every j < order, read from the
    :func:`_degen_bernoulli_numbers` prefix of that m."""
    if order < 1:
        raise BadConstantTerm("a series of order below 1 has no constant term 1")
    return list(_prefix(order - 1, _degen_bernoulli_numbers, m)[:order])


def degen_bernoulli(k: int, lam) -> Fraction:
    """Degenerate Bernoulli number beta_k at lambda = 1/m for integer m >= 1,
    from :func:`degen_bernoulli_series`; other lambdas raise UnsupportedLambda
    (use :func:`degen_bernoulli_poly` and evaluate instead)."""
    lam = Fraction(lam)
    if lam.numerator != 1 or lam.denominator < 1:
        raise UnsupportedLambda(f"lambda must be 1/m with integer m >= 1, got {lam}")
    if k < 0:
        raise ValueError("need k >= 0")
    return degen_bernoulli_series(lam.denominator, k + 1)[k] * math.factorial(k)


def _degen_bernoulli_polys(top: int) -> list:
    """beta_0, ..., beta_top as polynomials in lambda.  With P_k = prod_(i=1..k)
    (1 - i lambda), ((1 + lambda t)^(1/lambda) - 1)/t = sum_k P_k t^k/(k+1)!, so
    b_N = (N+1)! beta_N lies in Z[lambda]: b_0 = 1 and b_N = -sum_(k=1..N)
    C(N+1, k+1) N!/(N-k+1)! P_k b_(N-k), each product an int :func:`exactnum.poly_mul`."""
    ps, bs = [[1]], [[1]]
    for n in range(1, top + 1):
        ps.append(poly_mul(ps[-1], [1, -n]))
        cs = [math.comb(n + 1, k + 1) * math.perm(n, k - 1) for k in range(1, n + 1)]
        terms = (poly_mul([c * x for x in ps[k]], bs[n - k]) for k, c in enumerate(cs, 1))
        bs.append([-sum(col) for col in zip(*terms)])
    return [UniPoly(b) / math.factorial(n + 1) for n, b in enumerate(bs)]


def degen_bernoulli_poly(k: int) -> UniPoly:
    """beta_k as a polynomial in lambda, read from one growing list."""
    if k < 0:
        raise ValueError("need k >= 0")
    return _prefix(k, _degen_bernoulli_polys)[k]


@lru_cache(maxsize=None)
def _slot(build, *args) -> list:
    """One slot holding the longest tuple ``build(top, *args)`` has given so
    far.  An lru cache holds it, so emptying the package's caches empties it."""
    return [()]


def _prefix(n: int, build, *args) -> tuple:
    """Entries 0..n, and perhaps more, of the family that ``build(top, *args)``
    gives up to entry top.  They are read from the longest tuple built so
    far; one too short is rebuilt to at least twice its length, so a sweep
    over n builds O(log n) series.  Each reader indexes the tuple it is
    handed, so a concurrent rebuild costs time only."""
    slot = _slot(build, *args)
    values = slot[0]
    if len(values) <= n:
        values = slot[0] = tuple(build(max(n, 2 * len(values) - 1), *args))
    return values


def _bernoulli_orders(n_max: int, alpha: int) -> list:
    """B_0^(alpha), ..., B_{n_max}^(alpha): n! [t^n] of (t/(e^t - 1))^alpha
    = exp(-alpha log h) with h = (e^t - 1)/t, from one
    :func:`exactnum.newton_log` pass and one :func:`exactnum.newton_exp`
    pass to order n_max + 1."""
    if n_max < 0 or alpha < 0:
        raise ValueError("need n, alpha >= 0")
    q = newton_log([Fraction(1, math.factorial(j + 1)) for j in range(1, n_max + 1)])
    e = newton_exp([-alpha * c for c in q[1:]])
    return [Fraction(1)] + [c * math.factorial(n) for n, c in enumerate(e[1:], 1)]


def bernoulli_order(n: int, alpha: int) -> Fraction:
    """Higher-order Bernoulli number: n! times the t^n coefficient of
    (t/(e^t - 1))^alpha, read from the :func:`_bernoulli_orders` prefix of
    that alpha."""
    if n < 0 or alpha < 0:
        raise ValueError("need n, alpha >= 0")
    return _prefix(n, _bernoulli_orders, alpha)[n]


def _norlund_numbers(n_max: int) -> list:
    """N_0, ..., N_{n_max}: n! [t^n] of t/((1+t) log(1+t)), from one
    :func:`exactnum.series_inv` of (1+t) log(1+t) / t = 1 + sum_{j >= 1}
    (-1)^(j-1) t^j / (j (j+1)) to order n_max + 1."""
    if n_max < 0:
        raise ValueError("need n >= 0")
    g = [Fraction(1)] + [Fraction((-1) ** (j - 1), j * (j + 1)) for j in range(1, n_max + 1)]
    return [c * math.factorial(n) for n, c in enumerate(series_inv(g))]


def norlund(n: int) -> Fraction:
    """Norlund number: n! times the t^n coefficient of t/((1+t) log(1+t)),
    read from the :func:`_norlund_numbers` prefix."""
    if n < 0:
        raise ValueError("need n >= 0")
    return _prefix(n, _norlund_numbers)[n]
