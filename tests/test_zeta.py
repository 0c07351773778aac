import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from engine_seams import mismatches

from qmzv import cyclo, exactnum, qstirling, seqlib
from qmzv import zeta as zmod
from qmzv.cyclo import CycloElem, as_rational, cyclo_ctx
from qmzv.exactnum import UniPoly, newton_log, tuple_product_sum
from qmzv.qstirling import BadParams, rstirling1
from qmzv.seqlib import _slot, harmonic, seq_transform_forward
from qmzv.zeta import (
    REFERENCE_POLYNOMIALS,
    ROW_ENGINES,
    BudgetExceeded,
    UnsupportedClosedForm,
    ZetaValue,
    _complement_row,
    _field_row,
    _inv_pows,
    _multisection_row,
    _newton_row,
    _one_minus_power_cyclic,
    _product_row,
    _reciprocal_tuple_sums,
    _row_engine,
    _zeta_multi,
    _zeta_single,
    f_poly,
    harmonic_bernoulli_identity_check,
    harmonic_decomposition_check,
    harmonic_q_series,
    logf_identity_check,
    rstirling_inner_poly,
    zeta_1s_degenerate_bernoulli,
    zeta_1s_det,
    zeta_bell,
    zeta_brute,
    zeta_det,
    zeta_m1_closed,
    zeta_m2_closed,
    zeta_m2_rstirling,
    zeta_m3_closed,
    zeta_poly_in_n,
    zeta_product,
    zeta_row_from_column,
    zeta_value,
    zeta_via_stirling,
)

F = Fraction


# ------------------------------------------------------------------- brute


def test_brute_examples():
    assert zeta_brute(5, 1, 1).value == 2
    assert zeta_brute(7, 1, 2).value == -1
    assert zeta_brute(9, 0, 4).value == 1
    assert zeta_brute(4, 5, 2).value == 0  # no admissible tuples


def test_brute_value_record():
    zv = zeta_brute(5, 2, 1)
    assert isinstance(zv, ZetaValue)
    assert zv.method == "brute" and zv.params == (5, 2, 1)


def test_brute_budget():
    with pytest.raises(BudgetExceeded):
        zeta_brute(40, 18, 1, budget=1000)


def test_brute_matches_the_tuple_sum_in_the_field():
    # Reference: the same tuples summed as elements of Q(zeta_n).  Every
    # 1 <= m <= n - 1 for n <= 14 takes both the direct and the
    # complementary enumeration.
    for n in range(2, 15):
        for m in range(1, n):
            for s in range(1, 5):
                want = as_rational(tuple_product_sum(_inv_pows(n, s), m))
                assert zeta_brute(n, m, s).value == want, (n, m, s)


@pytest.mark.parametrize(
    "n, m, s",
    [
        # Phi_105 has the coefficient -2, so negative coordinates reach the
        # balanced lift
        (105, 2, 1),
        (105, 102, 2),
        (60, 57, 3),
        (101, 100, 3),
        (61, 58, 1),
        (41, 38, 2),
        (30, 4, 2),
        (97, 1, 12),
    ],
)
def test_brute_matches_closed_forms_beyond_the_grid(n, m, s):
    if m == 1:
        want = zeta_1s_degenerate_bernoulli(n, s)
    else:
        want = {1: zeta_m1_closed, 2: zeta_m2_closed, 3: zeta_m3_closed}[s](n, m)
    assert zeta_brute(n, m, s).value == want


def test_brute_of_the_full_tuple_is_one_over_n_to_the_s():
    # prod_(i=1..n-1) (1 - zeta^i) = n, so the one (n-1)-tuple gives 1/n^s
    assert zeta_brute(1200, 1199, 1).value == F(1, 1200)
    assert zeta_brute(7, 6, 3).value == F(1, 343)


def test_brute_builds_its_rows_once_per_n_and_s(monkeypatch):
    # the first call at (n, s) on each side builds the rows; a second at
    # another m on the same side reads them back, building no power of
    # (1 - zeta^i)
    ms = (2, 3, 4, 8, 7, 6)
    want = [zmod._zeta_multi(11, m, 3, zmod._field_row) for m in ms]
    assert [zeta_brute(11, m, 3).value for m in (2, 8)] == [want[0], want[3]]

    def no_rows(*args):
        raise AssertionError(f"rebuilt a brute row: {args}")

    monkeypatch.setattr(zmod, "_inv_pows", no_rows)
    monkeypatch.setattr(zmod, "_one_minus_power_cyclic", no_rows)
    assert [zeta_brute(11, m, 3).value for m in ms] == want


def test_brute_rejects_bad_params():
    with pytest.raises(BadParams):
        zeta_brute(1, 1, 1)
    with pytest.raises(BadParams):
        zeta_brute(5, 1, 0)


# ----------------------------------------------------------------- product


def test_product_row_n4_s1():
    vals = [zv.value for zv in zeta_product(4, 1, 3)]
    assert vals == [1, F(3, 2), 1, F(1, 4)]
    assert vals == [zeta_m1_closed(4, m) for m in range(4)]


def test_product_single_coefficient_example():
    assert _zeta_multi(7, 2, 2) == 1
    assert [zv.value for zv in zeta_product(9, 3, 0)] == [1]


def test_product_matches_brute_grid():
    for n in range(2, 10):
        for s in (1, 2, 3):
            row = zeta_product(n, s, n - 1)
            for m in range(n):
                assert row[m].value == zeta_brute(n, m, s).value, (n, m, s)


def test_product_beyond_row_is_zero():
    assert _zeta_multi(4, 7, 2) == 0


def test_multisection_row_matches_field_row():
    for n in range(1, 25):
        for s in range(1, 7):
            assert _multisection_row(n - 1, n, s) == _field_row(n - 1, n, s), (n, s)


def test_multisection_large_rows_match_closed_forms():
    row = _multisection_row(1000, 1001, 2)
    assert len(row) == 1001 and row[0] == 1
    assert all(row[m] == zeta_m2_closed(1001, m) for m in range(1, 1001))
    row = _multisection_row(400, 401, 3)
    assert len(row) == 401 and row[0] == 1
    assert all(row[m] == zeta_m3_closed(401, m) for m in range(1, 61))


def test_selector_picks_multisection_for_small_s_only():
    for n in (60, 401, 1001, 20011):
        for s in (1, 2, 3):
            assert _row_engine(n, s) == "multisection", (n, s)
    assert _row_engine(14, 8) != "multisection"
    assert _row_engine(10, 40) != "multisection"
    assert _row_engine(10, 10 ** 6) != "multisection"


def test_selector_picks_newton_between_and_the_field_product_for_large_s():
    # no field product is left to pick: the complement engine, whose cost
    # grows as s^1.57 against Newton's s^2, takes every large s
    for n, s in ((30, 3), (23, 1), (36, 3), (20, 3), (10, 4), (5, 6)):
        assert _row_engine(n, s) == "newton", (n, s)
    for n, s in ((61, 10), (53, 20), (61, 40), (41, 16), (14, 8), (10, 40)):
        assert _row_engine(n, s) == "complement", (n, s)
    for n, s in ((10, 1000), (10, 4000), (13, 2000), (31, 300), (2, 20000), (10, 10 ** 6), (5, 10 ** 400)):
        assert _row_engine(n, s) == "complement", (n, s)


#: The rows of the ``field_rows`` benchmark workload, which the complement
#: engine leaves where they are but for (40, 3), where it is the fastest of
#: three engines within 10 % of each other.
FIELD_ROWS = [(n, s) for n in (17, 18, 19, 20, 21, 22, 23, 24, 26, 28, 30, 36, 40) for s in (1, 2, 3)]


def test_selector_keeps_the_benchmark_rows_and_the_oracle_prefixes():
    picked = {(n, s): _row_engine(n, s) for n, s in FIELD_ROWS}
    assert picked.pop((36, 2)) == picked.pop((40, 2)) == "multisection"
    assert picked.pop((40, 3)) == "complement"
    assert set(picked.values()) == {"newton"}
    # every prefix read of the oracle sweep's grid stays on Newton
    for n in range(2, 15):
        for s in range(1, 5):
            for top in range(9):
                assert _row_engine(n, s, top) == "newton", (n, s, top)


def test_a_short_prefix_of_a_large_s_row_goes_to_newton():
    # the whole row (10007, 16) is cheapest by multisection, whose 2^s
    # subset orbits cost the same for a short prefix; Newton's five
    # entries take milliseconds, and they equal the field-free Bell value
    assert _row_engine(10007, 16) == "multisection"
    assert _row_engine(10007, 16, 4) == "newton"
    _slot.cache_clear()
    assert _zeta_multi(10007, 4, 16) == zeta_bell(10007, 4, 16).value


def test_newton_row_matches_field_row():
    for n in range(1, 31):
        for s in range(1, 9):
            assert _newton_row(n - 1, n, s) == _field_row(n - 1, n, s), (n, s)


def test_complement_row_matches_field_row():
    for n in range(1, 25):
        for s in (*range(1, 13), 2 * n, 3 * n):
            assert _complement_row(n - 1, n, s) == _field_row(n - 1, n, s), (n, s)
    # steps past s = 4 n^2, which come by squaring
    for n in range(2, 9):
        s = 4 * n * n + 1
        assert _complement_row(n - 1, n, s) == _field_row(n - 1, n, s), (n, s)


def test_complement_large_rows_match_closed_forms():
    row = _complement_row(0, 101, 2)
    assert len(row) == 101 and row[0] == 1
    assert all(row[m] == zeta_m2_closed(101, m) for m in range(1, 101))
    row = _complement_row(0, 61, 3)
    assert all(row[m] == zeta_m3_closed(61, m) for m in range(1, 61))


def test_newton_large_rows_match_closed_forms():
    row = _newton_row(100, 101, 2)
    assert all(row[m] == zeta_m2_closed(101, m) for m in range(1, 101))
    row = _newton_row(60, 61, 3)
    assert all(row[m] == zeta_m3_closed(61, m) for m in range(1, 61))


def test_engines_agree_at_the_cheaper_selector_seams():
    # every seam with n <= 60 whose six rows are estimated at 0.2 s or less;
    # `python tests/engine_seams.py --n-max 60` (a CI step) checks them all
    assert mismatches(60, max_cost=2e5) == []


@pytest.mark.parametrize("name, n_max, s_max", [
    ("newton", 40, 8),
    ("multisection", 40, 4),
    ("multisection", 10, 8),
    ("complement", 24, 8),
    ("field", 12, 8),
])
def test_every_engine_prefix_is_the_head_of_its_full_row(name, n_max, s_max):
    # every top of every row in the range, and of the field product, the
    # reference that ``verify routes`` reads through the same prefixes; the
    # multisection's rows at s > 4 and the field product's whole rows cost
    # too much to build n + 1 times each beyond these bounds
    build = {**ROW_ENGINES, "field": _field_row}[name]
    for n in range(1, n_max + 1):
        for s in range(1, s_max + 1):
            full = build(n - 1, n, s)
            assert len(full) == n, (n, s)
            for top in range(n + 1):
                head = build(top, n, s)
                assert head == full[: len(head)] and len(head) > min(top, n - 1), (n, s, top)


def _cold(n, m, s, build):
    _slot.cache_clear()
    return _zeta_multi(n, m, s, build)


def test_growing_a_prefix_keeps_the_cold_values():
    rows = ((36, 2), (23, 2), (20, 5), (10, 1000))
    assert [_row_engine(n, s) for n, s in rows] == ["multisection", "newton", "complement", "complement"]
    for n, s in rows:
        for build in (_product_row, *ROW_ENGINES.values()):
            if build is ROW_ENGINES["multisection"] and s > 6:
                continue
            ms = (1, 5, n - 1, 2, n + 1)
            cold = [_cold(n, m, s, build) for m in ms]
            _slot.cache_clear()
            assert [_zeta_multi(n, m, s, build) for m in ms] == cold, (n, s, build.__name__)
    _slot.cache_clear()
    assert [zv.value for zv in zeta_product(23, 2, 3)] == [_cold(23, m, 2, _product_row) for m in range(4)]


def _bernoulli_oracle(n, m, s):
    """Z_n(zeta_n; m, s) = e_m of the power sums Z_n(zeta_n; 1, js), each
    from the degenerate Bernoulli numbers: no cyclotomic field and no row
    engine."""
    return seq_transform_forward([zeta_1s_degenerate_bernoulli(n, j * s) for j in range(1, m + 1)], m, route="bell")


@pytest.mark.parametrize("n, m_max, s", [(1001, 3, 20), (97, 8, 12), (61, 3, 10), (20011, 3, 3)])
def test_large_prefixes_match_the_degenerate_bernoulli_oracle(n, m_max, s):
    _slot.cache_clear()
    for m in range(1, m_max + 1):
        assert _zeta_multi(n, m, s) == _bernoulli_oracle(n, m, s), (n, m, s)


def test_prefixes_at_n_100003_match_the_closed_forms():
    n = 100003
    for m in range(1, 6):
        assert _zeta_multi(n, m, 2) == zeta_m2_closed(n, m), m
        assert _zeta_multi(n, m, 3) == zeta_m3_closed(n, m), m


# ------------------------------------------------------------ other routes


def test_one_minus_zeta_powers_by_the_binomial_expansion():
    for n in range(2, 31):
        ctx = cyclo_ctx(n)
        base = ctx.one() - ctx.zeta()
        for k in range(61):
            assert ctx.from_zeta_powers(_one_minus_power_cyclic(n, 1, k), 1) == base ** k, (n, k)


def test_one_minus_power_cyclic_matches_the_binomial_expansion():
    def expansion(n, i, s):
        out = [0] * n
        for k in range(s + 1):
            out[i * k % n] += (-1) ** k * math.comb(s, k)
        return out

    # i = 0, i not prime to n and i > n included, and s = 0
    for n in range(1, 13):
        for i in range(2 * n + 1):
            for s in (0, 1, 2, 3, 7, 8, 30, 61):
                assert _one_minus_power_cyclic(n, i, s) == expansion(n, i, s), (n, i, s)
    # both sides of s = 4 n^2, where squaring takes over from the running product
    for n in range(1, 9):
        for i in (0, 1, 2, n, n + 1):
            for s in (4 * n * n, 4 * n * n + 1, 4 * n * n + 6):
                assert _one_minus_power_cyclic(n, i, s) == expansion(n, i, s), (n, i, s)


def test_via_stirling_examples():
    assert zeta_via_stirling(5, 1, 1).value == 2
    assert zeta_via_stirling(6, 2, 1).value == F(10, 3)
    assert zeta_via_stirling(5, 2, 2).value == zeta_brute(5, 2, 2).value


def test_bell_examples():
    assert zeta_bell(9, 1, 3).value == _zeta_single(9, 3)
    assert zeta_bell(7, 2, 1).value == 5
    assert zeta_bell(8, 3, 2).value == zeta_brute(8, 3, 2).value


def test_det_examples():
    assert zeta_det(11, 1, 2).value == _zeta_single(11, 2)
    assert zeta_det(6, 2, 1).value == zeta_brute(6, 2, 1).value
    assert zeta_det(9, 4, 1).value == 14


def test_bell_and_det_are_routes_of_the_sequence_transform(monkeypatch):
    from qmzv import zeta as zmod

    routes = []

    def recording(a, m, route="recurrence"):
        routes.append(route)
        return seq_transform_forward(a, m, route=route)

    monkeypatch.setattr(zmod, "seq_transform_forward", recording)
    assert zeta_bell(8, 3, 2).value == zeta_det(8, 3, 2).value == zeta_brute(8, 3, 2).value
    assert routes == ["bell", "determinant"]


def test_row_from_column_examples():
    assert zeta_row_from_column(5, 1, 3) == _zeta_single(5, 3)
    assert zeta_row_from_column(7, 2, 1) == -1
    assert zeta_row_from_column(6, 2, 2) == zeta_brute(6, 1, 4).value


def test_1s_det_examples():
    assert zeta_1s_det(7, 2) == -1
    assert zeta_1s_det(5, 3) == -1
    # the quartic display evaluated at n = 6, cross-checked by brute force
    want = zeta_brute(6, 1, 4).value
    assert zeta_1s_det(6, 4) == want == F(-151, 144)


def test_route_agreement_sweep():
    # all five routes coincide across the whole triangle, s up to 4
    for n in range(2, 15):
        for s in (1, 2, 3, 4):
            for m in range(0, n):
                ref = _zeta_multi(n, m, s)
                assert zeta_brute(n, m, s).value == ref, (n, m, s)
                assert zeta_via_stirling(n, m, s).value == ref, (n, m, s)
                assert zeta_bell(n, m, s).value == ref
                assert zeta_det(n, m, s).value == ref
    # above the top row every route agrees on zero
    for s in (1, 2):
        for m in range(5, 8):
            assert zeta_bell(4, m, s).value == 0
            assert zeta_det(4, m, s).value == 0
            assert zeta_via_stirling(4, m, s).value == 0


# -------------------------------------------------- single-index power sums


def test_single_index_power_sums_equal_the_sum_over_all_conjugates():
    # the oracle walks all n - 1 summands (1 - zeta^i)^(-k) in Q(zeta_n),
    # one running power per summand; the values are read cold in shuffled
    # order, so the power-sum prefix of each n is regrown from short reads
    def walk(n, k_max):
        inv = _inv_pows(n, 1)
        powers, sums = list(inv), {}
        for k in range(1, k_max + 1):
            sums[n, k] = as_rational(sum(powers, cyclo_ctx(n).zero()))
            powers = [p * c for p, c in zip(powers, inv)]
        return sums

    want = {}
    for n in range(2, 41):
        want.update(walk(n, 48))
    for n in (60, 64, 97, 105):
        want.update(walk(n, 4))
    grid = sorted(want)
    random.Random(25).shuffle(grid)
    _zeta_single.cache_clear()
    _slot.cache_clear()
    for n, k in grid:
        assert _zeta_single(n, k) == want[n, k], (n, k)


@pytest.mark.parametrize("n, k_max", [(97, 12), (210, 12), (101, 24), (1001, 24), (10007, 24), (30030, 24)])
def test_single_index_power_sums_at_large_n_match_degenerate_bernoulli(n, k_max):
    for k in range(1, k_max + 1):
        assert _zeta_single(n, k) == zeta_1s_degenerate_bernoulli(n, k), (n, k)


def test_single_index_values_build_no_field(monkeypatch):
    def no_field(*args):
        raise AssertionError(f"built a cyclotomic field: {args[-1]}")

    monkeypatch.setattr("qmzv.cyclo.CycloCtx.__init__", no_field)
    monkeypatch.setattr("qmzv.zeta.cyclo_ctx", no_field)
    _zeta_single.cache_clear()
    _slot.cache_clear()
    assert zeta_bell(60, 3, 4).value == _bernoulli_oracle(60, 3, 4)
    assert zeta_det(105, 2, 3).value == zeta_m3_closed(105, 2)
    assert zeta_1s_det(30, 5) == _zeta_single(30, 5)


def test_large_s_product_rows_build_no_field(monkeypatch):
    def no_field(*args):
        raise AssertionError(f"built a cyclotomic field: {args[-1]}")

    monkeypatch.setattr("qmzv.cyclo.CycloCtx.__init__", no_field)
    monkeypatch.setattr("qmzv.zeta.cyclo_ctx", no_field)
    _slot.cache_clear()
    for n, s in ((31, 300), (61, 20)):
        assert _row_engine(n, s, n - 1) == "complement", (n, s)
        row = [zv.value for zv in zeta_product(n, s, n - 1)]
        assert row[0] == 1 and row[-1] == F(1, n ** s), (n, s)
        assert row[1] == _zeta_single(n, s) and row[2] == zeta_bell(n, 2, s).value, (n, s)
    _slot.cache_clear()


def test_bell_and_det_match_the_closed_forms_at_large_n():
    for n in (97, 105, 211, 1009, 30030):
        for m in range(1, 7):
            for s, closed in ((2, zeta_m2_closed), (3, zeta_m3_closed)):
                want = closed(n, m)
                assert zeta_bell(n, m, s).value == want, (n, m, s)
                assert zeta_det(n, m, s).value == want, (n, m, s)


def _empty_caches():
    for mod in (cyclo, exactnum, qstirling, seqlib, zmod):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_bell_builds_one_inverse_table():
    _empty_caches()
    zeta_bell(41, 20, 2)
    # integer power sums, no table of the 1/(1 - zeta^i)
    assert _inv_pows.cache_info().currsize == 0


def test_bell_det_and_newton_rows_share_one_power_sum_prefix(monkeypatch):
    _empty_caches()
    want = zeta_bell(23, 4, 3).value
    calls = []

    def counted(f):
        calls.append(len(f))
        return newton_log(f)

    monkeypatch.setattr(zmod, "newton_log", counted)
    assert zeta_det(23, 4, 3).value == want
    zeta_bell(23, 2, 5)
    assert _zeta_multi(23, 4, 3, _newton_row) == want
    assert calls == []


def test_bell_and_det_at_seven_primes_build_no_cyclotomic_polynomial():
    cyclo.cyclotomic_poly.cache_clear()
    _zeta_single.cache_clear()
    _slot.cache_clear()
    want = zeta_m2_closed(510510, 2)
    assert zeta_bell(510510, 2, 2).value == want
    assert zeta_det(510510, 2, 2).value == want
    assert cyclo.cyclotomic_poly.cache_info().currsize == 0


# -------------------------------------------------------------- closed forms


def test_m1_closed_examples():
    assert zeta_m1_closed(5, 1) == 2
    assert zeta_m1_closed(7, 0) == 1
    assert zeta_m1_closed(9, 3) == 14


def test_m2_closed_examples():
    assert zeta_m2_closed(7, 2) == 1
    assert zeta_m2_closed(7, 1) == -1
    assert zeta_m2_closed(4, 3) == F(1, 16) == zeta_brute(4, 3, 2).value


def test_m2_closed_matches_brute():
    for n in range(2, 10):
        for m in range(1, n):
            assert zeta_m2_closed(n, m) == zeta_brute(n, m, 2).value


def test_m2_rstirling_inner_polys():
    assert rstirling_inner_poly(2) == UniPoly((47, -12, 1))
    assert rstirling_inner_poly(4) == UniPoly((11274, -3325, 485, -35, 1))


def test_m2_rstirling_examples():
    a, b = zeta_m2_rstirling(7, 1)
    assert a == b == -1
    for n in range(2, 12):
        for m in range(1, 7):
            want = zeta_m2_closed(n, m)
            a, b = zeta_m2_rstirling(n, m)
            assert a == want and b == want, (n, m)


def test_reciprocal_tuple_sums_are_r_stirling_numbers():
    # T_k = e_(k+1)(1/(m+1), ..., 1/(2m+1)) = [2m+2, m+k+2]_(m+1) m!/(2m+1)!,
    # the r-Stirling table filled by its own recurrence
    for m in range(41):
        scale = Fraction(math.factorial(m), math.factorial(2 * m + 1))
        sums = _reciprocal_tuple_sums(m)
        assert len(sums) == m + 1
        for k in range(m + 1):
            assert sums[k] == rstirling1(2 * m + 2, m + k + 2, m + 1) * scale, (m, k)


def test_m3_closed_examples():
    assert zeta_m3_closed(5, 1) == -1
    assert zeta_m3_closed(4, 2) == zeta_brute(4, 2, 3).value
    # the sextic display at n = 4: 6*3*2*630/9!
    ref = REFERENCE_POLYNOMIALS[(2, 3)]
    assert zeta_m3_closed(4, 2) == ref(F(4))
    assert zeta_m3_closed(3, 2) == zeta_brute(3, 2, 3).value


def test_m3_closed_matches_brute():
    for n in range(2, 10):
        for m in range(1, 5):
            assert zeta_m3_closed(n, m) == zeta_brute(n, m, 3).value, (n, m)


# --------------------------------------------------- harmonic q-series side


def test_harmonic_q_series_direct_field_oracle():
    # literal sum over n-1 >= i_1 > ... > i_m >= 1 of
    # prod_j zeta^((s_j-1) i_j) / [i_j]^(s_j), with [i] summed from powers of zeta
    for n in (3, 5, 6, 7, 8, 9, 12, 13, 16):
        ctx = cyclo_ctx(n)
        inv_qnum = {}
        for i in range(1, n):
            qn = ctx.zero()
            for t in range(i):
                qn = qn + ctx.zeta_power(t)
            inv_qnum[i] = qn.inverse()
        for parts in ((1,), (2,), (3,), (2, 1), (1, 3), (2, 2, 1), (1, 2, 1, 2), (3, 1, 1, 2)):
            want = ctx.zero()
            for idx in combinations(range(n - 1, 0, -1), len(parts)):
                term = ctx.one()
                for sj, i in zip(parts, idx):
                    term = term * ctx.zeta_power((sj - 1) * i) * inv_qnum[i] ** sj
                want = want + term
            assert harmonic_q_series(n, parts) == want, (n, parts)


def test_harmonic_q_series_reversal():
    # i -> n - i and complex conjugation: z_n(k_1, ..., k_r) =
    # (-1)^w zeta^w conj(z_n(k_r, ..., k_1)) with w = k_1 + ... + k_r
    for n in range(2, 17):
        ctx = cyclo_ctx(n)
        for r in range(1, 4):
            for parts in product((1, 2, 3), repeat=r):
                w = sum(parts)
                mirrored = harmonic_q_series(n, parts[::-1]).galois(n - 1)
                assert harmonic_q_series(n, parts) == (-1) ** w * ctx.zeta_power(w) * mirrored, (
                    n,
                    parts,
                )


def test_harmonic_q_series_costs_products_linear_in_depth_and_n(monkeypatch):
    # the nested prefix sums make at most r (n - r) products past the rows,
    # not one per index tuple; the rows take two products per entry
    real = CycloElem.__mul__
    products = []

    def counting(self, other):
        products.append(1)
        return real(self, other)

    n = 30
    for parts in ((1, 2, 1), (2, 1, 2, 1)):
        want = harmonic_q_series(n, parts)  # warms the rows of _inv_pows
        monkeypatch.setattr(CycloElem, "__mul__", counting)
        products.clear()
        assert harmonic_q_series(n, parts) == want
        monkeypatch.undo()
        assert len(products) <= 3 * len(parts) * (n - 1), (parts, len(products))


def test_harmonic_q_series_empty_range():
    assert harmonic_q_series(2, (2, 2)) == 0


def test_harmonic_q_series_rational_point():
    # parts (2,) at n = 4, q = 2: sum of q^i / [i]^2 with [1], [2], [3] = 1, 3, 7
    want = F(2, 1) + F(4, 9) + F(8, 49)
    assert harmonic_q_series(4, (2,), q=F(2)) == want
    # two-part composition against a literal double sum
    want2 = F(0)
    qn = {1: F(1), 2: F(3), 3: F(7)}
    for i1 in range(1, 4):
        for i2 in range(1, i1):
            want2 += (F(2) ** (2 * i1) / qn[i1] ** 3) * (F(1) / qn[i2])
    assert harmonic_q_series(4, (3, 1), q=F(2)) == want2


def test_harmonic_q_series_at_q_one_is_the_finite_multiple_harmonic_sum():
    # at q = 1 every [i]_q is i: parts (1,)^r give e_r(1, 1/2, ..., 1/(n-1)),
    # which is [n, r+1]/(n-1)! for the unsigned Stirling numbers of the first
    # kind, and one part k gives sum_(i < n) 1/i^k
    for n in range(2, 31):
        for r in range(1, n):
            want = F(rstirling1(n, r + 1, 1), math.factorial(n - 1))
            assert harmonic_q_series(n, (1,) * r, q=1) == want, (n, r)
        for k in range(1, 5):
            assert harmonic_q_series(n, (k,), q=1) == sum(F(1, i**k) for i in range(1, n)), (n, k)
        assert harmonic_q_series(n, (1,), q=1) == harmonic(n - 1), n


def test_harmonic_q_series_rejects_bad_parts():
    with pytest.raises(BadParams):
        harmonic_q_series(5, ())
    with pytest.raises(BadParams):
        harmonic_q_series(5, (0,))


def test_bernoulli_identity_example():
    assert harmonic_bernoulli_identity_check(5, 2).passed
    for n in (2, 3, 7, 10):
        for j in (1, 2, 3):
            assert harmonic_bernoulli_identity_check(n, j).passed


def test_decomposition_examples():
    assert harmonic_decomposition_check(5, 1).passed  # single-term identity
    assert harmonic_decomposition_check(5, 3).passed
    assert harmonic_decomposition_check(7, 4).passed


def test_dgber_examples():
    for n in range(2, 12):
        assert zeta_1s_degenerate_bernoulli(n, 1) == F(n - 1, 2)
    assert zeta_1s_degenerate_bernoulli(7, 2) == -1
    assert zeta_1s_degenerate_bernoulli(6, 5) == F(5 * 53, 288)
    assert zeta_1s_degenerate_bernoulli(6, 5) == zeta_brute(6, 1, 5).value


# ----------------------------------------------------- generating machinery


def _ypoly(*coeffs_in_x):
    return UniPoly(tuple(UniPoly(tuple(F(c) for c in cs)) for cs in coeffs_in_x))


def test_f_poly_displayed_fixtures():
    assert f_poly(2, 0) == _ypoly((1,), (-1,))
    assert f_poly(2, 1) == _ypoly((1,), (-2,), (1, 1))
    assert f_poly(2, 2) == _ypoly((1,), (-1, -1))
    assert f_poly(3, 1) == _ypoly((1,), (-3,), (3,), (-1, -1))
    assert f_poly(3, 2) == _ypoly((1,), (-3,), (3, 3), (-1, -2, -1))
    assert f_poly(3, 3) == _ypoly((1,), (-1, -1))


def test_f_poly_elementary_symmetric_content():
    # F(s, 1) must be sum_j (-1)^j e_j Y^j with e_j = C(s, j) + [j = s] X
    for s in (1, 2, 3, 4):
        fp = f_poly(s, 1)
        for j in range(s + 1):
            e = F(math.comb(s, j))
            want = UniPoly((e, F(1))) if j == s else UniPoly((e,))
            got = fp.coeff(j) * F((-1) ** j)
            assert got == want, (s, j)


def test_f_poly_matches_a_literal_subset_product():
    # at X = -t^s the alpha are 1 - t zeta_s^r, so F(s, l) is the product
    # over the l-subsets S of (1 - Y prod_{r in S} alpha_r) in Q(zeta_s)[Y]
    for s in range(1, 8):
        ctx = cyclo_ctx(s)
        for l in range(1, s + 1):
            fp = f_poly(s, l)
            for t in (F(2), F(-1, 3)):
                alpha = [ctx.one() - ctx.zeta_power(r) * t for r in range(s)]
                literal = UniPoly((ctx.one(),))
                for subset in combinations(alpha, l):
                    literal = literal * UniPoly((ctx.one(), -math.prod(subset)))
                want = [as_rational(c) for c in literal.coeffs]
                assert [c(-t ** s) for c in fp.coeffs] == want, (s, l, t)


def test_f_poly_range_check():
    with pytest.raises(BadParams):
        f_poly(2, 3)
    with pytest.raises(BadParams):
        f_poly(0, 0)


def test_logf_identity_small():
    for s in (1, 2, 3):
        res = logf_identity_check(s, 8)
        assert res.passed, res.first_failure()


def test_logf_rejects_out_of_scope():
    with pytest.raises(BadParams):
        logf_identity_check(4, 8)
    with pytest.raises(BadParams):
        logf_identity_check(2, 25)


# ------------------------------------------------------ polynomials in n


def test_zeta_poly_examples():
    assert zeta_poly_in_n(1, 2) == REFERENCE_POLYNOMIALS[(1, 2)]
    assert zeta_poly_in_n(2, 4) == REFERENCE_POLYNOMIALS[(2, 4)]
    assert zeta_poly_in_n(3, 3) == REFERENCE_POLYNOMIALS[(3, 3)]


def test_zeta_poly_m1_matches_binomial():
    for m in range(0, 4):
        p = zeta_poly_in_n(m, 1)
        for n in range(2, 12):
            assert p(F(n)) == zeta_m1_closed(n, m)


def test_zeta_poly_degree_cap():
    with pytest.raises(BadParams):
        zeta_poly_in_n(5, 4, degree_cap=16)


def test_zeta_poly_degree_is_ms():
    assert zeta_poly_in_n(2, 2).degree() == 4
    assert zeta_poly_in_n(1, 6).degree() == 6


def test_zeta_poly_detects_non_polynomial_values(monkeypatch):
    import qmzv.zeta as zmod
    from qmzv.zeta import DegreeMismatch

    monkeypatch.setattr(zmod, "_zeta_multi", lambda n, m, s: F(2) ** n)
    with pytest.raises(DegreeMismatch):
        zmod.zeta_poly_in_n(1, 2)


# ------------------------------------------------------------- dispatcher


def test_zeta_value_dispatch():
    import argparse

    from qmzv import cli

    # the one route table; --help, the golden corpus's group order and the
    # seeded picks of test_cli's value draws all follow its order
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (method,) = [a for a in sub.choices["value"]._actions if a.dest == "method"]
    assert method.choices == tuple(zmod.ROUTES) == ("brute", "product", "stirling", "bell", "det", "closed")
    for name in zmod.ROUTES:
        got = zeta_value(13, 4, 3, name)
        assert (got.method, got.value, got.params) == (name, F(3045, 13), (13, 4, 3))
    assert zeta_value(5, 0, 3, "product").value == 1
    assert zeta_value(9, 3, 1, "product").value == 14
    # the closed-form ladder's other rungs (the loop took s = 3): m = 0,
    # s = 1 and 2, then m = 1, then the refusal
    assert zeta_value(5, 0, 7, "closed").value == 1
    assert zeta_value(9, 3, 1, "closed").value == 14
    assert zeta_value(7, 2, 2, "closed").value == 1
    assert zeta_value(6, 1, 5, "closed").value == zeta_brute(6, 1, 5).value
    with pytest.raises(UnsupportedClosedForm, match="no closed form for m=2, s=5"):
        zeta_value(6, 2, 5, "closed")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        zeta_value(6, 2, 1, "bogus")


def test_reference_polynomials_constant_terms():
    from qmzv.seqlib import norlund
    from qmzv.zeta import REFERENCE_CONSTANT_TERMS

    for s, want in enumerate(REFERENCE_CONSTANT_TERMS, start=1):
        got = REFERENCE_POLYNOMIALS[(1, s)].coeff(0)
        assert got == want
        assert got == F((-1) ** (s - 1)) * norlund(s) / math.factorial(s)


# ------------------------------------------------------ no polynomial Euclid


def test_no_route_reaches_polynomial_euclid(monkeypatch, capsys):
    import json
    import random

    from qmzv import cli, cyclo, exactnum, qstirling, seqlib
    from qmzv import zeta as zmod

    def refuse(*args):
        raise AssertionError("polynomial Euclid or division reached")

    monkeypatch.setattr(exactnum, "poly_xgcd", refuse)
    monkeypatch.setattr(cyclo, "poly_xgcd", refuse)
    monkeypatch.setattr(exactnum, "poly_divmod", refuse)
    # cyclotomic_poly builds Phi_n with no division, so cyclo imports none
    monkeypatch.setattr(cyclo, "poly_divmod", refuse, raising=False)
    # start cold, so no value memoized before the patch hides a call
    for mod in (cyclo, exactnum, qstirling, seqlib, zmod):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    qstirling._TABLES.clear()

    for n in range(2, 8):
        for s in (1, 2, 3):
            for m in range(n + 2):  # m >= n included
                values = set()
                for method in zmod.ROUTES:
                    argv = ["value", "--n", str(n), "--m", str(m), "--s", str(s),
                            "--method", method, "--format", "json"]
                    assert cli.main(argv) == 0, argv
                    values.add(json.loads(capsys.readouterr().out)["value"])
                assert len(values) == 1, (n, m, s, values)
    assert cli.main(["verify", "routes", "--n-max", "8"]) == 0
    assert cli.main(["table", "stirling1", "--q", "root:7", "--n-max", "6"]) == 0
    root7 = qstirling.RootOfUnityQ(7)
    for s in (1, 2):
        for r in (1, 2):
            for n in range(r + 1, 7):
                for m in range(r, n):
                    a, b = qstirling.stirling1_closed(n, m, r, s, root7)
                    assert a == b == qstirling.stirling1(n, m, r, s, root7)
    rng = random.Random(9)
    for n in range(1, 31):
        ctx = cyclo.cyclo_ctx(n)
        for _ in range(3):
            a = ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ctx.degree)])
            if not a.is_zero():
                assert a * a.inverse() == 1, n
