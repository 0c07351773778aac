"""q-numbers, q-factorials, and the two-kind generalized Stirling triangles.

Both triangles carry a level ``s >= 1`` and an offset ``r >= 1`` and are
generic over the evaluation point q, which can be

* symbolic (entries are integer polynomials in q; the triangles store and
  fill their coefficients as tuples of ints, see :class:`StirlingTable`),
* an exact rational (entries are Fractions; q = 1 is fine because the
  q-number [i]_q is computed as the sum 1 + q + ... + q^(i-1), never as a
  quotient; the triangles store and fill ints graded by powers of q's
  denominator, see :class:`StirlingTable`), or
* a primitive n-th root of unity (entries are cyclotomic field elements;
  every entry is an algebraic integer, so the triangles store and fill
  tuples of integer coordinates in Z[zeta_n], see :class:`StirlingTable`).

Boundary conventions used throughout: entries vanish for k > n and for
k < r off the diagonal, and every diagonal entry is 1.  With these the
signed first-kind matrix and the second-kind matrix are mutually inverse on
the full index range, row r of the first kind is the unit vector (matching
the base product x^r), and the recurrences reproduce the expansion
coefficients of the generalized factorials for every n >= r.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from threading import Lock, RLock

from .cyclo import CycloCtx, _make, cyclo_ctx
from .exactnum import (
    UniPoly,
    kronecker_pack,
    kronecker_unpack,
    kronecker_width,
    tuple_product_sum,
)
from .util import CheckResult


class BadParams(ValueError):
    pass


class QPoint:
    """Tagged evaluation point; factory for ring elements at that point."""

    def gen(self):
        """q itself as an element of the target ring."""
        raise NotImplementedError

    def one(self):
        return self.gen() ** 0

    def qnum(self, i: int):
        """The q-number [i]_q = 1 + q + ... + q^(i-1) in the target ring."""
        q = self.gen()
        acc = q - q  # the ring's zero, built with no multiplication
        for _ in range(i):
            acc = acc * q + 1
        return acc


@dataclass(frozen=True)
class SymbolicQ(QPoint):
    """Work over the polynomial ring Z[q]."""

    def gen(self):
        return UniPoly((0, 1))


@dataclass(frozen=True)
class RationalQ(QPoint):
    """Evaluate at an exact rational q."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def gen(self):
        return self.value


@dataclass(frozen=True)
class RootOfUnityQ(QPoint):
    """Evaluate at q = zeta_n, a primitive n-th root of unity."""

    n: int

    @property
    def ctx(self) -> CycloCtx:
        return cyclo_ctx(self.n)

    def gen(self):
        return self.ctx.zeta()


def parse_qpoint(text: str) -> QPoint:
    """The q-point named by ``text``: ``symbolic``, ``root:<n>`` or a
    rational such as ``2/3``."""
    if text == "symbolic":
        return SymbolicQ()
    if text.startswith("root:"):
        try:
            order = int(text[len("root:"):])
        except ValueError:
            order = 0
        if order < 1:
            raise BadParams(f"bad q point {text!r}: the order must be an integer >= 1")
        return RootOfUnityQ(order)
    try:
        return RationalQ(Fraction(text))
    except ZeroDivisionError:
        raise BadParams(f"bad q point {text!r}: the denominator is zero") from None
    except ValueError:
        raise BadParams(
            f"bad q point {text!r}: not symbolic, root:<n> or a rational such as 2/3"
        ) from None


def qnum(i: int, q: QPoint):
    if i < 0:
        raise BadParams("q-number index must be >= 0")
    return q.qnum(i)


def qnums_from(q: QPoint, start: int):
    """Yield [start]_q, [start+1]_q, ..., each from the one before by
    [i]_q = q [i-1]_q + 1."""
    x = q.gen()
    v = q.qnum(start)
    while True:
        yield v
        v = v * x + 1


def qfact(i: int, q: QPoint):
    """q-factorial [i]_q! with [0]_q! = 1."""
    if i < 0:
        raise BadParams("q-factorial index must be >= 0")
    acc = q.one()
    for qn in islice(qnums_from(q, 1), i):
        acc = acc * qn
    return acc


def falling_product(n: int, r: int, s: int, q: QPoint) -> UniPoly:
    """The generalized factorial x^r * prod_{i=r..n-1} (x - ([i]_q)^s).

    Returns a polynomial in x whose coefficients live in the ring selected
    by q; the base case n = r gives x^r.
    """
    if r < 1 or s < 1:
        raise BadParams("need r >= 1 and s >= 1")
    if n < r:
        raise BadParams("need n >= r")
    one = q.one()
    poly = UniPoly([0] * r + [one])
    for qn in islice(qnums_from(q, r), n - r):
        poly = poly * UniPoly((-(qn ** s), one))
    return poly


class StirlingTable:
    """Memoized triangle of one kind of generalized q-Stirling numbers.

    Column k >= r is a list in which ``col[t]`` is entry (k + t, k), with the
    diagonal 1 at t = 0.  Columns only grow, under one reentrant lock per
    table, so a read that finds its entry never sees a half-written value and
    racing fills append each entry once.

    Every column store holds ints: graded ints at a rational q, and tuples
    of ints elsewhere, the coefficients of an integer polynomial at a
    symbolic q and the integer coordinates in Z[zeta_n] at q = zeta_n.
    ``_stored`` reads a cell as stored, and ``entry`` is the one decoder
    into q's ring: a ``UniPoly``, a ``Fraction`` or a ``CycloElem``.

    At a rational q = a/b (b >= 1, a prime to b) the column store holds ints:
    ``col[t]`` is F(k + t, k) = E(k + t, k) b^g(k + t, k), with g(i, j) =
    s (C(i-1, 2) - C(j-1, 2)) for the first kind and s (j-1) (i-j) for the
    second.  The weight ([t]_q)^s is N_t / b^(s(t-1)), N_t = ([t]_q b^(t-1))^s
    an int.  g(i, j) - g(i-1, j) is the power of b under the weight that
    multiplies (i-1, j) in the recurrence, and g(i, j) - g(i-1, j-1) = s(i-j).
    So E(i, j) = E(i-1, j-1) + w E(i-1, j) becomes
    F(i, j) = F(i-1, j-1) b^(s(i-j)) + N F(i-1, j), on ints.  [t]_q b^(t-1)
    is congruent to a^(t-1) modulo b, so N_t is prime to b, and by induction
    down the column so is every F: it is the reduced numerator, and
    ``entry`` returns the Fraction F / b^g, g from ``_grade``.  At q = 1 the
    fill is on ints alone, and b^g = 1.

    At q = zeta_n every weight ([t]_q)^s lies in Z[zeta_n], and so, down each
    column, does every entry.  The store holds each entry's power-basis
    coordinates as a tuple of ints, with no denominator: a cell is the
    weight's coordinates times the entry above, reduced modulo Phi_n, plus
    the left entry added coordinatewise.  ``entry`` wraps only the value it
    returns as a ``CycloElem``.
    """

    def __init__(self, kind: str, r: int, s: int, q: QPoint):
        if kind not in ("first", "second"):
            raise BadParams(f"unknown kind {kind!r}")
        if r < 1 or s < 1:
            raise BadParams("need r >= 1 and s >= 1")
        self.kind = kind
        self.r = r
        self.s = s
        self.q = q
        self._lock = RLock()
        self._cols = [None] * r  # columns below r vanish off the diagonal
        # _weights[i - r] is ([i]_q)^s: no recurrence multiplies by an index
        # below r, so none of those is ever computed.  At a symbolic q
        # ``_fill`` reads no weight, and at a rational q only its numerator;
        # the closed-form oracles read the weights themselves.
        self._weights = []
        # Q(zeta_n) at a root of unity, whose column store holds coordinates
        ctx = self._ctx = q.ctx if isinstance(q, RootOfUnityQ) else None
        if ctx is None:
            self._qnums = qnums_from(q, r)  # yields [r + len(_weights)]_q next
        else:
            # [i]_zeta from its i unit coefficients: additions only, with no
            # product by zeta per step (and no reference back to the table)
            self._qnums = (ctx.from_zeta_powers([1] * i, 1) for i in count(r))
        # b of q = a/b, by which the column store is graded; None off Q
        self._den = q.value.denominator if isinstance(q, RationalQ) else None
        # the diagonal 1 in the store's own form
        self._one = 1 if self._den is not None else (1,) if ctx is None else ctx.one().num

    def weight(self, i: int):
        """([i]_q)^s for i >= r: the recurrence multiplier at a rational or
        root-of-unity q, and the closed-form oracles' factor at every q.  At
        q = zeta_n, [i]_q is summed from i powers of zeta and raised to the
        s-th power by squaring, about log2(s) field products."""
        if i < self.r:
            raise BadParams("weight index must be >= r")
        weights = self._weights
        if i - self.r >= len(weights):
            with self._lock:
                while len(weights) <= i - self.r:
                    weights.append(next(self._qnums) ** self.s)
        return weights[i - self.r]

    def _stored(self, n: int, k: int):
        """Entry (n, k) as the column store holds it, filled on a miss: 0 off
        the triangle and the store's own 1 on the diagonal."""
        if n == k >= 0:
            return self._one
        if not self.r <= k < n:
            return 0
        cols = self._cols
        if k >= len(cols) or n - k >= len(cols[k]):
            self._fill(n, k)
        return cols[k][n - k]

    def _grade(self, n: int, k: int) -> int:
        """g(n, k), the power of b that grades a stored entry at q = a/b."""
        if self.kind == "first":
            return self.s * (math.comb(n - 1, 2) - math.comb(k - 1, 2))
        return self.s * (k - 1) * (n - k)

    def entry(self, n: int, k: int):
        """Entry (n, k) in q's ring: ``_stored`` decoded, with 0 off the
        triangle and q's one on the diagonal."""
        if n == k >= 0:
            return self.q.one()
        if not self.r <= k < n:
            return 0
        value = self._stored(n, k)
        if self._den is not None:
            return Fraction(value, self._den ** self._grade(n, k))
        return UniPoly(value) if self._ctx is None else _make(self._ctx, value, 1)

    def _fill(self, n: int, k: int):
        """Extend columns r..k, in order, so that column j reaches row
        n - (k - j), without recursion.

        Entry (i, j) depends on (i-1, j-1) and (i-1, j), so these rows are
        exactly the dependency cone of (n, k): the fill memoizes what the
        plain recursion would.  At a symbolic q the product with the weight
        is ``_times_qnum_power`` on the int coefficients, and the left entry
        is added on the same list.  At a rational q the fill runs on the
        graded ints of the class docstring, and at a root of unity on the
        integer coordinates.
        """
        with self._lock:
            cols = self._cols
            rational = self._den is not None
            ctx = self._ctx
            while len(cols) <= k:
                cols.append([self._one])
            first = self.kind == "first"
            symbolic = isinstance(self.q, SymbolicQ)
            step = self._den**self.s if rational else None  # b^s
            left = None  # column r - 1 vanishes below its diagonal
            for j in range(self.r, k + 1):
                col = cols[j]
                for i in range(j + len(col), n - (k - j) + 1):
                    index = i - 1 if first else j
                    if symbolic:
                        coeffs = _times_qnum_power(col[-1], index, self.s)
                        if left is not None:
                            # never longer than coeffs: each product in
                            # (i-1, j-1) less its top factor is one in
                            # (i-1, j), and no factor tops the weight's degree
                            addend = left[i - j]
                            coeffs[: len(addend)] = map(operator.add, coeffs, addend)
                        col.append(tuple(coeffs))
                    elif rational:
                        below = 0 if left is None else left[i - j] * step ** (i - j)
                        col.append(below + self.weight(index).numerator * col[-1])
                    else:
                        coords = ctx._mul_coords(self.weight(index).num, col[-1])
                        if left is not None:
                            coords = tuple(map(operator.add, coords, left[i - j]))
                        col.append(coords)
                left = col


def _times_qnum_power(coeffs, i: int, s: int) -> list:
    """The coefficients of a(q) ([i]_q)^s, i >= 1, from those of a(q), as s
    window sums of width i: coefficient t of a(q) [i]_q is a_(t-i+1) + ... +
    a_t, the prefix sum to t less the prefix sum to t - i."""
    pad = [0] * (i - 1)
    for _ in range(s):
        sums = list(accumulate(chain(coeffs, pad)))
        coeffs = list(map(operator.sub, sums, chain(repeat(0, i), sums)))
    return coeffs


_TABLES: dict = {}
_TABLES_LOCK = Lock()


def _table(kind: str, r: int, s: int, q: QPoint) -> StirlingTable:
    """The one shared table for (kind, r, s, q); the lock makes racing
    callers get the same table."""
    key = (kind, r, s, q)
    with _TABLES_LOCK:
        tab = _TABLES.get(key)
        if tab is None:
            tab = _TABLES[key] = StirlingTable(kind, r, s, q)
    return tab


def stirling1(n: int, k: int, r: int = 1, s: int = 1, q: QPoint = SymbolicQ()):
    """First-kind generalized q-Stirling number via the recurrence."""
    return _table("first", r, s, q).entry(n, k)


def stirling2(n: int, k: int, r: int = 1, s: int = 1, q: QPoint = SymbolicQ()):
    """Second-kind generalized q-Stirling number via the recurrence."""
    return _table("second", r, s, q).entry(n, k)


def stirling1_closed(n: int, m: int, r: int = 1, s: int = 1, q: QPoint = SymbolicQ()):
    """Both combinatorial closed forms of the first-kind entry (n, m).

    Returns ``(via_reciprocal_sum, via_product_sum)``:

    * the ([n-1]_q!/[r-1]_q!)^s-weighted sum of 1/([i_1]...[i_{m-r}])^s over
      strictly increasing tuples from [r, n-1], and
    * the plain elementary-symmetric sum of ([i_1]...[i_{n-m}])^s.

    The product side is one literal enumeration of the (n-m)-tuples per
    call, the oracle for the first-kind recurrence.  The reciprocal form is
    evaluated literally, with field divisions, at a rational or
    root-of-unity q; a q at which some [i]_q, r <= i <= n-1, vanishes is
    refused.  At a symbolic q the cancelled weight turns each (m-r)-subset
    into its complementary (n-m)-subset, so both values are the product sum
    and only the comparison with :func:`stirling1` is a real check.  These
    are exponential-cost oracle paths.
    """
    if not 1 <= r <= m <= n - 1:
        raise BadParams("need r <= m <= n-1")
    if s < 1:
        raise BadParams("need s >= 1")
    tab = _table("first", r, s, q)
    weights = [tab.weight(i) for i in range(r, n)]
    for i, v in enumerate(weights, r):
        if v == 0:
            raise BadParams(f"[{i}]_q vanishes at this q; the reciprocal form divides by it")
    prod = tuple_product_sum(weights, n - m)
    if isinstance(q, SymbolicQ):
        return prod, prod
    w = math.prod(weights, start=q.one())  # ([n-1]_q! / [r-1]_q!)^s
    inv_values = [1 / v for v in weights]
    return w * tuple_product_sum(inv_values, m - r), prod


def stirling2_iterated(n: int, k: int, r: int = 1, s: int = 1, q: QPoint = SymbolicQ()):
    """Both closed forms of the second-kind entry (n, k).

    Returns ``(via_nested_sums, via_monotone_tuples)``: the iterated
    geometric-style summation over levels r..k, and the sum over
    nondecreasing (n-k)-tuples from [r, k] of ([i_1]...[i_{n-k}])^s.  Both
    must agree with :func:`stirling2`.
    """
    if not (r + 1 <= k <= n):
        raise BadParams("need r+1 <= k <= n")
    if r < 1 or s < 1:
        raise BadParams("need r >= 1 and s >= 1")
    tab = _table("second", r, s, q)
    depth = n - k
    # level t holds term(t, u) for u = 0..depth, where term(0, u) = w_r^u and
    # term(t, u) = sum_i w_(r+t)^(u-i) term(t-1, i)
    level = [tab.weight(r) ** u for u in range(depth + 1)]
    for t in range(1, k - r + 1):
        pows = [tab.weight(r + t) ** e for e in range(depth + 1)]
        level = [sum(pows[u - i] * level[i] for i in range(u + 1)) for u in range(depth + 1)]
    nested = level[depth]
    weights = [tab.weight(i) for i in range(r, k + 1)]
    monotone = tuple_product_sum(weights, n - k, strict=False)
    return nested, monotone


def _packed(fs, ss):
    """``(fs, ss, w)``: the two triangles of int tuples (symbolic
    coefficients or root-of-unity coordinates) with every tuple replaced by
    its value at q = 2^(8w), for the one byte width w that covers every
    signed sum of ``orthogonality_check`` (see there); the int zeros stay."""
    size = len(fs)
    # (length, largest |coefficient|) of each tuple, None for a zero
    f_shapes, s_shapes = (
        [[(len(e), max(map(abs, e))) if e != 0 else None for e in row] for row in rows]
        for rows in (fs, ss)
    )
    bound = 0
    for a, b in ((f_shapes, s_shapes), (s_shapes, f_shapes)):
        for n in range(size):
            row = a[n]
            for m in range(n + 1):
                total = 0
                for k in range(m, n + 1):
                    x = row[k]
                    y = b[k][m]
                    if x and y:
                        total += min(x[0], y[0]) * x[1] * y[1]
                if total > bound:
                    bound = total
    w = kronecker_width(bound + 1)
    packed = [[[kronecker_pack(e, w) if e != 0 else 0 for e in row] for row in rows] for rows in (fs, ss)]
    return packed[0], packed[1], w


def _product_is_identity(a, b, equals, unit):
    """Rows of bools: ``equals((a b)[n][m], delta(n, m) unit)`` at each
    (n, m), for two square lower-triangular matrices of ints (packed or
    scaled triangles, see :func:`orthogonality_check`).  Entry (n, m) of the
    product sums the terms k = m..n; the others vanish."""
    cols = list(zip(*b))
    holds = []
    for n, row in enumerate(a):
        sums = (sum(map(operator.mul, row[m : n + 1], col[m : n + 1])) for m, col in enumerate(cols))
        holds.append([equals(t, unit if n == m else 0) for m, t in enumerate(sums)])
    return holds


def orthogonality_check(n_max: int, r: int = 1, s: int = 1, q: QPoint = SymbolicQ()) -> CheckResult:
    """Verify both inversion identities between the two triangles.

    For all n, m <= n_max checks
    sum_k (-1)^(n-k) [n k] {k m} = delta(n, m) and
    sum_k (-1)^(k-m) {n k} [k m] = delta(n, m).

    Both triangles are read once, from the tables' column stores (see
    :class:`StirlingTable`), into (n_max+1) x (n_max+1) matrices of ints,
    and the sums run on plain ints.  No entry is decoded into q's ring.

    With F and S the two matrices and D = diag((-1)^n), the identities read
    (D F D) S = I and S (D F D) = I.  F is signed to D F D once, and each
    identity is then one plain product, summed by ``_product_is_identity``.
    A = D F D and B = S are lower unitriangular whatever the column stores
    hold: ``_stored`` gives 0 above the diagonal and the store's own 1
    (``_one``) on it, and reads no store cell for the diagonal.  So entry
    (n, m) of either product sums only k = m..n, and the first identity
    holding at every (n, m) of the square is A B = I for the two square
    matrices.  Over a commutative ring that gives det A det B = 1, so A is
    invertible, B is its inverse and B A = I: the second identity holds
    too.  Each comparison below is exact in q's ring (Z[q] by the lemma
    below, Q, and Z[zeta_n]), so the second identity adds nothing once the
    first passes, and it is summed only when the first fails somewhere, to
    locate the failures.  The record order is the same either way: identity
    1 then identity 2 for each (n, m), n outer and m inner, 2 (n_max+1)^2
    cases in all.

    At a symbolic q every coefficient tuple is replaced by its value at
    q = 2^(8w), one int.  Each coefficient of a product a b of two entries
    is a sum of at most min(len a, len b) products of a coefficient of a and
    one of b, so it is at most min(len a, len b) max|a| max|b| in absolute
    value.  Summing that over the terms k of one sum, adding 1 for delta
    and taking the largest value over every (n, m) and both identities gives
    a bound B on every coefficient of every sum minus delta, and w =
    ``kronecker_width(B)`` gives B < 2^(8w-1).  That makes the comparison
    with delta exact by one lemma: an integer polynomial whose coefficients
    are all at most 2^(8w-1) in absolute value is zero exactly when its
    value at 2^(8w) is zero.  (If c q^j is its lowest nonzero term, the
    value is 2^(8wj) (c + 2^(8w) t) for an integer t, and 0 < |c| <
    2^(8w).)  Every nonzero entry is one term of a sum whose other factor is
    a diagonal 1, so B also covers every coefficient that is packed.

    At q = zeta_n the stored coordinate tuples, integral, are packed the
    same way as integer polynomials in zeta.  A sum is then the packed
    value of the sum of the unreduced convolutions, a lift of the field
    sum.  Its 2 phi(n) - 1 coefficients are unpacked, reduced modulo Phi_n
    once, and compared with the coordinates of delta.

    At a rational q = a/b the stored F = E b^g of each triangle is scaled
    to E b^G, G the largest grade g in that triangle.  Each sum is then
    b^(G1+G2) times its value and is compared with delta b^(G1+G2).
    """
    if n_max < 0:
        raise BadParams("need n_max >= 0")
    size = n_max + 1
    tables = _table("first", r, s, q), _table("second", r, s, q)
    fs, ss = ([[tab._stored(n, k) for k in range(size)] for n in range(size)] for tab in tables)
    unit = 1
    equals = operator.eq
    if isinstance(q, RationalQ):
        b = q.value.denominator
        scaled = []
        for tab, rows in zip(tables, (fs, ss)):
            grades = [[tab._grade(n, k) if r <= k < n else 0 for k in range(size)] for n in range(size)]
            top = max(map(max, grades))
            scaled.append([[e * b ** (top - g) for e, g in zip(row, gs)] for row, gs in zip(rows, grades)])
            unit *= b**top
        fs, ss = scaled
    else:
        fs, ss, w = _packed(fs, ss)
        if isinstance(q, RootOfUnityQ):
            ctx = q.ctx
            size_conv = 2 * ctx.degree - 1
            zeros = (0,) * (ctx.degree - 1)

            def equals(acc, delta):
                return ctx.reduce(kronecker_unpack(acc, w, size_conv)) == (delta, *zeros)

    # F to D F D, so that both identities are plain products (see above)
    fs = [[-e if (n - k) % 2 else e for k, e in enumerate(row)] for n, row in enumerate(fs)]
    holds1 = _product_is_identity(fs, ss, equals, unit)
    holds2 = holds1 if all(map(all, holds1)) else _product_is_identity(ss, fs, equals, unit)
    result = CheckResult(["orthogonality"])
    for n in range(size):
        for m in range(size):
            result.record(holds1[n][m], identity=1, n=n, m=m)
            result.record(holds2[n][m], identity=2, n=n, m=m)
    return result


def rstirling1(n: int, k: int, r: int) -> int:
    """Classical r-Stirling number of the first kind: the first-kind table at
    level 1 and q = 1, where [n, k] = [n-1, k-1] + (n-1) [n-1, k], an int
    fill.  It reads that table's column store, where b = 1 makes each
    stored int the value itself, and shares its lock."""
    if r < 1:
        raise BadParams("need r >= 1")
    return _table("first", r, 1, RationalQ(1))._stored(n, k)
