import math
import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest

from qmzv import seqlib
from qmzv.exactnum import BadConstantTerm, UniPoly, det_fraction_free, newton_exp, series_inv
from qmzv.qstirling import rstirling1
from qmzv.seqlib import (
    InsufficientInput,
    UnsupportedLambda,
    bell_complete,
    bell_partition_sum,
    bernoulli_order,
    degen_bernoulli,
    degen_bernoulli_poly,
    harmonic,
    hyperharmonic,
    norlund,
    seq_transform_forward,
    seq_transform_inverse,
)

F = Fraction


def rand_frac(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def bernoulli_classic(k):
    bs = [F(1)]
    for m in range(1, k + 1):
        acc = F(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


# ------------------------------------------------------------------- Bell


def test_bell_base_cases():
    assert bell_complete(0, []) == 1
    assert bell_partition_sum(0, []) == 1
    assert bell_complete(1, [F(5)]) == 5


def test_bell_three_matches_hand_formula():
    rng = random.Random(3)
    for _ in range(10):
        x1, x2, x3 = (rand_frac(rng) for _ in range(3))
        want = x1 ** 3 + 3 * x1 * x2 + x3
        assert bell_complete(3, [x1, x2, x3]) == want
        assert bell_partition_sum(3, [x1, x2, x3]) == want


def test_bell_recurrence_equals_partition_sum():
    rng = random.Random(5)
    for n in range(0, 11):
        xs = [rand_frac(rng) for _ in range(n)]
        assert bell_complete(n, xs) == bell_partition_sum(n, xs), n


def test_bell_insufficient_input():
    with pytest.raises(InsufficientInput):
        bell_complete(3, [F(1)])
    with pytest.raises(InsufficientInput):
        bell_partition_sum(2, [F(1)])


def test_bell_generating_function():
    # exp(sum x_m t^m / m!) coefficient check for a fixed input
    # through newton_exp, which takes g_m = m [t^m] of the exponent
    xs = [F(1), F(-2), F(3), F(1, 2), F(0), F(7)]
    n = len(xs)
    e = newton_exp([m * xs[m - 1] / math.factorial(m) for m in range(1, n + 1)])
    assert len(e) == n + 1
    for k in range(n + 1):
        assert e[k] * math.factorial(k) == bell_complete(k, xs)


# ------------------------------------------------- elementary from power sums


def test_elem_from_power_sums_pair():
    rng = random.Random(7)
    for _ in range(10):
        a, b = rand_frac(rng), rand_frac(rng)
        assert seq_transform_forward([a + b, a * a + b * b], 2, route="bell") == a * b


def test_elem_from_power_sums_explicit():
    g = [F(6), F(14), F(36)]  # power sums of {1, 2, 3}
    assert seq_transform_forward(g, 2, route="bell") == 11
    assert seq_transform_forward(g, 0, route="bell") == 1
    with pytest.raises(InsufficientInput):
        seq_transform_forward(g, 4, route="bell")


def test_elem_from_power_sums_random_multisets():
    rng = random.Random(11)
    for _ in range(15):
        vals = [rand_frac(rng) for _ in range(rng.randint(1, 6))]
        g = [sum(v ** j for v in vals) for j in range(1, len(vals) + 1)]
        for k in range(len(vals) + 1):
            direct = sum(
                (math.prod(c) for c in combinations(vals, k)),
                start=F(0),
            ) if k else F(1)
            assert seq_transform_forward(g, k, route="bell") == direct


# -------------------------------------------------------- sequence transform


def test_transform_small_cases():
    assert seq_transform_forward([F(1), F(0)], 2, route="determinant") == F(1, 2)
    rng = random.Random(13)
    a = [rand_frac(rng) for _ in range(4)]
    for route in ("recurrence", "determinant", "bell", "partition"):
        assert seq_transform_forward(a, 1, route=route) == a[0]
    b = [rand_frac(rng) for _ in range(3)]
    assert seq_transform_inverse(b, 1) == b[0]


def test_transform_routes_agree():
    routes = ("recurrence", "determinant", "bell", "partition")
    rng = random.Random(17)
    for _ in range(20):
        a = [rand_frac(rng) for _ in range(rng.randint(1, 6))]
        for m in range(1, len(a) + 1):
            assert len({seq_transform_forward(a, m, route=r) for r in routes}) == 1
    # m = 16, the largest order CI runs through zeta_bell
    a = [rand_frac(rng) for _ in range(16)]
    assert len({seq_transform_forward(a, 16, route=r) for r in routes}) == 1


def test_transform_inverse_routes_agree():
    rng = random.Random(19)
    for _ in range(20):
        b = [rand_frac(rng) for _ in range(rng.randint(1, 6))]
        for n in range(1, len(b) + 1):
            d = seq_transform_inverse(b, n, route="determinant")
            r = seq_transform_inverse(b, n, route="recurrence")
            assert d == r


def test_transform_round_trip():
    a = [F(2), F(3), F(5), F(-7), F(1, 3)]
    b = [seq_transform_forward(a, m) for m in range(1, len(a) + 1)]
    for n in range(1, len(a) + 1):
        assert seq_transform_inverse(b, n) == a[n - 1]


def test_transform_newton_identity_semantics():
    # with a_i the power sums of a value multiset, b_m is elementary symmetric
    vals = [F(1), F(-2), F(3, 2)]
    a = [sum(v ** i for v in vals) for i in range(1, 4)]
    for m in range(1, 4):
        direct = sum((math.prod(c) for c in combinations(vals, m)), start=F(0))
        assert seq_transform_forward(a, m) == direct


def test_negative_orders_are_refused_by_every_route():
    a = [F(1), F(2), F(3)]
    for route in ("recurrence", "determinant", "bell", "partition"):
        with pytest.raises(ValueError, match="need m >= 0"):
            seq_transform_forward(a, -1, route=route)
    for route in ("recurrence", "determinant"):
        with pytest.raises(ValueError, match="need n >= 0"):
            seq_transform_inverse(a, -1, route=route)
    for bell in (bell_complete, bell_partition_sum):
        with pytest.raises(ValueError, match="need n >= 0"):
            bell(-1, [])


def test_bad_routes_and_indices_are_refused():
    for call, args, kwargs, message in [
        (seq_transform_forward, ([F(1)], 1), {"route": "newton"}, "unknown route 'newton'"),
        (seq_transform_inverse, ([F(1)], 1), {"route": "newton"}, "unknown route 'newton'"),
        (harmonic, (0,), {}, "need n >= 1"),
        (hyperharmonic, (0, 1), {}, "need n, k >= 1"),
        (degen_bernoulli_poly, (-1,), {}, "need k >= 0"),
        (norlund, (-1,), {}, "need n >= 0"),
    ]:
        with pytest.raises(ValueError) as info:
            call(*args, **kwargs)
        assert str(info.value) == message, (call.__name__, args)
    # the empty inverse transform is the constant term 1
    assert seq_transform_inverse([], 0) == 1


# ------------------------------------- graded ints behind Bell and det


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)


def _graded_inputs(length):
    """Named input sequences of the given length for the int transforms:
    every weight must be scaled by its own power of the common denominator."""
    rng = random.Random(29 + length)
    yield "coprime", [F(rng.randint(-40, 40) or 1, p) for p in _PRIMES[:length]]
    yield "large primes", [F(rng.randint(-(10**12), 10**12), rng.choice((2**61 - 1, 10**9 + 7, 998244353)))
                           for _ in range(length)]
    yield "zeros and signs", [F(rng.choice((0, 0, -1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                              for _ in range(length)]
    yield "zero first", [F(0)] + [F(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(length - 1)]
    yield "ints", [rng.randint(-20, 20) for _ in range(length)]
    yield "mixed", [rng.randint(-5, 5) if j % 2 else F(-1, _PRIMES[j]) for j in range(length)]


def _hessenberg_det_oracle(first, band, superdiagonal):
    # the unscaled Fraction matrix, by Bareiss elimination
    d = len(first)
    rows = [[F(first[i]) if j == 0 else F(band[i - j]) if j <= i else
             F(superdiagonal[i]) if j == i + 1 else F(0) for j in range(d)] for i in range(d)]
    return det_fraction_free(rows)


def test_bell_on_graded_ints_equals_the_partition_sum():
    for n in range(13):
        for name, xs in _graded_inputs(max(n, 1)):
            assert bell_complete(n, xs) == bell_partition_sum(n, xs), (name, n)


def test_determinant_routes_equal_fraction_free_elimination_on_the_unscaled_matrix():
    # every size to 12, then two up to 24 (the oracle's Fraction elimination
    # costs d^3 gcds)
    for d in (*range(1, 13), 18, 24):
        for name, xs in _graded_inputs(d):
            forward = _hessenberg_det_oracle(xs, xs, range(1, d)) / math.factorial(d)
            assert seq_transform_forward(xs, d, route="determinant") == forward, (name, d)
            first = [j * x for j, x in enumerate(xs, 1)]
            inverse = _hessenberg_det_oracle(first, xs, [1] * (d - 1))
            assert seq_transform_inverse(xs, d, route="determinant") == inverse, (name, d)


def _growing_denominators():
    """Named inputs whose denominators grow with the index."""
    from qmzv.zeta import _zeta_single

    yield "Z_30(1, 2j)", [_zeta_single(30, 2 * j) for j in range(1, 13)]
    yield "1/(j+1)!", [F(1, math.factorial(j + 1)) for j in range(1, 41)]
    yield "1/j", [F(1, j) for j in range(1, 41)]


def test_graded_denominator_grows_with_the_index_not_with_its_power():
    # den(x_j) = 7^j needs D = 7, since 7^j divides D^j; the lcm is 7^10
    assert seqlib._graded([F(1, 7**j) for j in range(1, 11)]) == ([1] * 10, 7)
    for name, xs in _growing_denominators():
        graded, d = seqlib._graded(xs)
        assert all(type(x) is int for x in graded), name
        assert all(x * d**j == big for j, (x, big) in enumerate(zip(xs, graded), 1)), name
        assert math.lcm(*(x.denominator for x in xs)) % d == 0, name


def test_every_route_agrees_on_denominators_that_grow_with_the_index():
    for name, xs in _growing_denominators():
        m = len(xs)
        inverse = {seq_transform_inverse(xs, m, route=r) for r in ("recurrence", "determinant")}
        assert len(inverse) == 1, name
        forward = {seq_transform_forward(xs, m, route=r) for r in ("recurrence", "determinant", "bell")}
        assert len(forward) == 1, name
        # the partition route costs p(m) products: to m = 20
        k = min(m, 20)
        want = seq_transform_forward(xs, k, route="bell")
        assert seq_transform_forward(xs, k, route="partition") == want, name


def test_graded_transforms_refuse_values_that_are_not_rational():
    from qmzv.cyclo import cyclo_ctx

    cases = [
        (lambda: bell_complete(2, [F(1), 0.5]), "float"),
        (lambda: seq_transform_forward([F(1), 2.0], 2, route="bell"), "float"),
        (lambda: seq_transform_forward([UniPoly((0, 1))], 1, route="determinant"), "UniPoly"),
        (lambda: seq_transform_forward([F(1), UniPoly((0, 1))], 2, route="partition"), "UniPoly"),
        (lambda: seq_transform_inverse([F(1), cyclo_ctx(5).zeta()], 2, route="determinant"), "CycloElem"),
    ]
    for call, name in cases:
        with pytest.raises(TypeError, match=name):
            call()
    # the recurrence routes stay generic over the coefficient ring
    y = UniPoly((0, 1))
    assert seq_transform_forward([y, y * y], 2) == 0
    assert seq_transform_inverse([y, 0], 2) == y * y


# ------------------------------------------------------- harmonic numbers


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(3) == F(11, 6)


def test_harmonic_over_a_shuffled_range_equals_the_direct_sum():
    # start cold, so the shuffled calls extend and rebuild the shared prefix
    seqlib._slot.cache_clear()
    direct = [F(0)]
    for k in range(1, 201):
        direct.append(direct[-1] + F(1, k))
    order = list(range(1, 201))
    random.Random(18).shuffle(order)
    for n in order:
        assert harmonic(n) == direct[n], n


def _hyperharmonic_by_passes(n, k):
    """h_n^(k) by its definition: h^(1) = H, and each further order is the
    running sum of the last, k - 1 passes over H_1..H_n."""
    row = list(accumulate(F(1, i) for i in range(1, n + 1)))
    for _ in range(k - 1):
        row = list(accumulate(row))
    return row[-1]


def test_hyperharmonic_values():
    assert hyperharmonic(2, 2) == F(5, 2)
    assert hyperharmonic(3, 1) == harmonic(3)
    for n in range(1, 13):
        for k in range(1, 13):
            assert hyperharmonic(n, k) == _hyperharmonic_by_passes(n, k), (n, k)


def test_hyperharmonic_deep_arguments_have_no_recursion_limit():
    for n, k in ((1, 1500), (3, 1100)):
        assert hyperharmonic(n, k) == _hyperharmonic_by_passes(n, k)


def test_hyperharmonic_makes_no_pass_over_the_harmonic_numbers(monkeypatch):
    calls = []
    inner = seqlib.accumulate

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(seqlib, "accumulate", counted)
    seqlib._slot.cache_clear()
    hyperharmonic.cache_clear()
    # k - 1 = 399 passes by the definition; the closed form makes none, and
    # at most one for a harmonic prefix
    value = hyperharmonic(50, 400)
    assert len(calls) <= 1
    assert value == _hyperharmonic_by_passes(50, 400)


def test_hyperharmonic_rstirling_bridge():
    assert rstirling1(4, 3, 2) == 2 * hyperharmonic(2, 2) == 5
    # the hyperharmonic factor carries (m+1)!, which collapses to m+1 only
    # in the m = 1 case above
    for m in range(1, 31):
        lhs = rstirling1(2 * m + 2, m + 2, m + 1)
        mid = F(math.factorial(2 * m + 1), math.factorial(m)) * (
            harmonic(2 * m + 1) - harmonic(m)
        )
        rhs = math.factorial(m + 1) * hyperharmonic(m + 1, m + 1)
        assert lhs == mid == rhs, m


# ------------------------------------------------- degenerate Bernoulli


def test_degen_bernoulli_poly_displays():
    lam = UniPoly((F(0), F(1)))
    assert degen_bernoulli_poly(0) == UniPoly((F(1),))
    assert degen_bernoulli_poly(1) == (lam - 1) / 2
    assert degen_bernoulli_poly(2) == -(lam * lam - 1) / 6
    assert degen_bernoulli_poly(3) == (lam ** 3 - lam) / 4
    assert degen_bernoulli_poly(4) == -(19 * lam ** 4 - 20 * lam ** 2 + 1) / 30
    # beta_5 pinned by an independent oracle: at lambda = 1/2 the generating
    # function is exactly 1/(1 + t/4), so beta_5(1/2) = 5! (-1/4)^5
    assert degen_bernoulli_poly(5) == (9 * lam ** 5 - 10 * lam ** 3 + lam) / 4
    assert degen_bernoulli_poly(5)(F(1, 2)) == math.factorial(5) * F(-1, 4) ** 5
    assert degen_bernoulli_poly(5)(F(1)) == 0


def _degen_bernoulli_polys_by_series(top):
    """beta_0..beta_top by the series in lambda: (1 + lambda t)^(1/lambda) =
    exp(log(1 + lambda t)/lambda) by newton_exp on g_j = (-lambda)^(j-1),
    then ((1 + lambda t)^(1/lambda) - 1)/t inverted by series_inv."""
    e = newton_exp([UniPoly([0] * j + [F((-1) ** j)]) for j in range(top + 1)])
    return [c * math.factorial(k) for k, c in enumerate(series_inv(e[1:]))]


def test_degen_bernoulli_poly_matches_the_series_inversion():
    for k, want in enumerate(_degen_bernoulli_polys_by_series(24)):
        got = degen_bernoulli_poly(k)
        assert got == want and all(type(c) is F for c in got.coeffs), k


def test_degen_bernoulli_polys_invert_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the integer recurrence needs no series exp or inversion")

    monkeypatch.setattr(seqlib, "newton_exp", refuse)
    monkeypatch.setattr(seqlib, "series_inv", refuse)
    lam = UniPoly((F(0), F(1)))
    polys = seqlib._degen_bernoulli_polys(12)
    assert len(polys) == 13
    assert polys[5] == (9 * lam ** 5 - 10 * lam ** 3 + lam) / 4


def test_degen_bernoulli_rational_mode():
    assert degen_bernoulli(2, F(1, 3)) == F(4, 27)
    assert degen_bernoulli(0, F(1, 2)) == 1
    # lambda = 1 collapses the generating function to the constant 1
    assert degen_bernoulli(3, 1) == 0


def test_degen_bernoulli_sweep_reads_one_growing_series(monkeypatch):
    inversions = []
    inner = seqlib.series_inv

    def counted(f):
        inversions.append(len(f))
        return inner(f)

    monkeypatch.setattr(seqlib, "series_inv", counted)
    seqlib._slot.cache_clear()
    swept = [degen_bernoulli(k, F(1, 7)) for k in range(150)]
    # one inversion per doubling of the prefix, not one per k
    assert len(inversions) <= 9
    # each value against its own inversion of the series cut at order k + 1
    for k, value in enumerate(swept):
        series = inner([F(math.comb(7, j + 1), 7 ** (j + 1)) for j in range(k + 1)])
        assert value == series[k] * math.factorial(k), k
    for order in (0, -1):
        with pytest.raises(BadConstantTerm):
            seqlib.degen_bernoulli_series(7, order)


def test_degen_bernoulli_poly_sweep_reads_one_growing_list(monkeypatch):
    # a stand-in builder whose entry k is the constant k: the sweep must read
    # entry k of the list and rebuild it only when it doubles
    tops = []

    def build(top):
        tops.append(top)
        return [UniPoly((F(k),)) for k in range(top + 1)]

    monkeypatch.setattr(seqlib, "_degen_bernoulli_polys", build)
    seqlib._slot.cache_clear()
    for k in range(40):
        assert degen_bernoulli_poly(k) == UniPoly((F(k),)), k
    assert len(tops) <= math.ceil(math.log2(40)) + 1, tops


def test_degen_bernoulli_rational_vs_poly():
    for k in range(0, 9):
        p = degen_bernoulli_poly(k)
        for n in (1, 2, 3, 5, 12):
            assert degen_bernoulli(k, F(1, n)) == p(F(1, n)), (k, n)


def test_degen_bernoulli_at_zero_is_classical():
    bs = bernoulli_classic(12)
    for k in range(13):
        assert degen_bernoulli_poly(k)(F(0)) == bs[k], k


def test_degen_bernoulli_unsupported_lambda():
    with pytest.raises(UnsupportedLambda):
        degen_bernoulli(3, F(2, 3))
    with pytest.raises(UnsupportedLambda):
        degen_bernoulli(3, 0)
    with pytest.raises(ValueError, match="k >= 0"):
        degen_bernoulli(-1, F(1, 2))


# ----------------------------------------- higher-order Bernoulli / Norlund


def test_bernoulli_order_first_values():
    bs = bernoulli_classic(8)
    for n in range(9):
        assert bernoulli_order(n, 1) == bs[n]
    assert bernoulli_order(1, 1) == F(-1, 2)
    assert bernoulli_order(2, 2) == F(5, 6)


def test_bernoulli_order_is_the_power_of_the_classical_series():
    # B_n^(alpha) = n! [t^n] (t/(e^t - 1))^alpha, the power taken here by
    # repeated truncated products of sum_k B_k t^k / k!
    n_max = 14
    bs = bernoulli_classic(n_max)
    base = [bs[k] / math.factorial(k) for k in range(n_max + 1)]
    power = [F(1)] + [F(0)] * n_max
    for alpha in range(7):
        for n in range(n_max + 1):
            assert bernoulli_order(n, alpha) == power[n] * math.factorial(n), (n, alpha)
        power = [sum(power[i] * base[k - i] for i in range(k + 1)) for k in range(n_max + 1)]


def test_norlund_values():
    assert [norlund(n) for n in range(5)] == [1, F(-1, 2), F(5, 6), F(-9, 4), F(251, 30)]
    assert F((-1) ** 6) * norlund(7) / math.factorial(7) == F(-5257, 17280)


def test_norlund_equals_diagonal_order():
    for n in range(13):
        assert norlund(n) == bernoulli_order(n, n), n


def test_sweeps_over_n_read_one_growing_series(monkeypatch):
    calls = {"series_inv": 0, "newton_log": 0}

    def counted(name):
        inner = getattr(seqlib, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(seqlib, name, counted(name))
    for obj in vars(seqlib).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    swept = [norlund(n) for n in range(121)]
    # the convolution identity of B^(a) and B^(b) at N = 40
    big_n, a, b = 40, 2, 3
    convolution = sum(
        math.comb(big_n, k) * bernoulli_order(k, a) * bernoulli_order(big_n - k, b)
        for k in range(big_n + 1)
    )
    assert calls["series_inv"] <= 8 and calls["newton_log"] <= 9
    assert convolution == bernoulli_order(big_n, a + b)
    assert swept == seqlib._norlund_numbers(120)
    assert [bernoulli_order(n, a) for n in range(41)] == seqlib._bernoulli_orders(40, a)
    with pytest.raises(ValueError):
        norlund(-1)
    with pytest.raises(ValueError):
        bernoulli_order(-1, 2)
    with pytest.raises(ValueError):
        bernoulli_order(3, -1)


def test_listed_constant_sequence():
    listed = [
        F(-1, 2), F(-5, 12), F(-3, 8), F(-251, 720),
        F(-95, 288), F(-19087, 60480), F(-5257, 17280),
    ]
    for s, want in enumerate(listed, start=1):
        assert F((-1) ** (s - 1)) * norlund(s) / math.factorial(s) == want


def test_harmonic_deep_index_has_no_recursion_limit():
    # the fill is a loop, so an index far past the recursion limit works
    h = harmonic(3000)
    acc = F(0)
    for k in range(1, 3001):
        acc += F(1, k)
    assert h == acc
    assert harmonic(2999) + F(1, 3000) == h
