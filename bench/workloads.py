"""The benchmark's workloads: seeded inputs, the timed work per item and the
check of each item against a route that does not share its code path.

Every workload is a closed loop with one client: items run one after the
other in a single process.  ``inputs(seed)`` returns plain data and is
deterministic in the seed.  ``execute(m, spec)`` is the timed work, with
``m`` a namespace of the freshly imported ``qmzv`` modules.
``check(m, spec, value, out)`` runs untimed and untraced, with ``out`` the
text the item wrote to stdout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    execute: Callable
    check: Callable
    # Empty the package's memo caches before every item, not only before
    # every batch.
    cold_items: bool = False


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


# ---------------------------------------------------------------------------
# field_rows: cold `table zeta` rows through the CLI.
#
# Primes give the largest field (degree n - 1); the composites have
# phi(n) <= 16, so an n effect shows apart from a field-size effect.
# Primes above 23 are left out: their rows take 1.5 to 6 s each on a 2-core
# Xeon, which would leave too few repeats per run to filter out the noise
# of a shared host; 32 and 34 are left out for the same reason.  A row's
# cost varies up to 1.6-fold with s, so rows drawn at random would move
# the median item time from seed to seed: the batch holds every (n, s)
# instead, and the seed picks the order.  The items are cold, so each row
# starts from an empty context and inverse table.

FIELD_PRIMES = (17, 19, 23)
FIELD_COMPOSITES = (18, 20, 21, 22, 24, 26, 28, 30, 36, 40)
FIELD_S = (1, 2, 3)


def field_rows_inputs(seed):
    rng = _rng("field_rows", seed)
    specs = [(n, s) for n in FIELD_PRIMES + FIELD_COMPOSITES for s in FIELD_S]
    rng.shuffle(specs)
    return specs


def field_rows_execute(m, spec):
    n, s = spec
    return m.cli.main(["table", "zeta", "--n", str(n), "--s", str(s)])


def field_rows_check(m, spec, code, out):
    n, s = spec
    lines = out.splitlines()
    if code != 0 or not lines or lines[0].split() != ["m", "value"]:
        return False
    values = {}
    for line in lines[1:]:
        k, v = line.split()
        values[int(k)] = Fraction(v)
    if sorted(values) != list(range(n)) or values[0] != 1:
        return False
    closed = {1: m.zeta.zeta_m1_closed, 2: m.zeta.zeta_m2_closed, 3: m.zeta.zeta_m3_closed}[s]
    return all(values[k] == closed(n, k) for k in range(1, n))


# ---------------------------------------------------------------------------
# oracle_sweep: all routes at seeded points of the acceptance grid.
#
# The grid is n <= 14, m <= 8, s <= 4.  A point's cost spans four orders of
# magnitude in (n, m), mostly through the brute oracle, and varies up to
# twofold with s.  A batch of points drawn at random would thus move the
# median item time by a quarter from seed to seed.  So the batch holds a
# fixed set of points: every point with n <= 12, and for n = 13, 14 the
# points with m <= SWEEP_M_BIG; larger m there take 0.4 to 1.3 s a point on
# a 2-core Xeon, which would leave too few repeats per run.  The seed picks
# the order, and with it which point fills each memo first.

SWEEP_N = range(2, 15)
SWEEP_M = range(1, 9)
SWEEP_S = range(1, 5)
SWEEP_N_FULL = 12
SWEEP_M_BIG = 3
BRUTE_GUARD = 20000  # the guard `qmzv verify routes` uses


def oracle_sweep_inputs(seed):
    rng = _rng("oracle_sweep", seed)
    specs = [
        (n, m, s)
        for n in SWEEP_N
        for m in SWEEP_M
        for s in SWEEP_S
        if n <= SWEEP_N_FULL or m <= SWEEP_M_BIG
    ]
    rng.shuffle(specs)
    return specs


def oracle_sweep_execute(m, spec):
    n, mm, s = spec
    methods = ["product", "stirling", "bell", "det"]
    if s <= 3 or mm == 1:
        methods.append("closed")
    if math.comb(n - 1, mm) <= BRUTE_GUARD:
        methods.append("brute")
    return {meth: m.zeta.zeta_value(n, mm, s, method=meth).value for meth in methods}


def oracle_sweep_check(m, spec, values, out):
    return len(set(values.values())) == 1


# ---------------------------------------------------------------------------
# rational_identities: identities with no cyclotomic field in them.
#
# An item's cost depends mostly on its sizes (n, k, the orders), so these
# are fixed and the batch cost stays the same from seed to seed.  The seed
# picks the values of the rational q and of the transformed sequences, and
# the order.  The items are cold, so the order moves no cost from one item
# to another.  Each item computes both sides of its identity; the check
# compares them.

ORTH_N_MAX = 14
TRANSFORM_LEN = 8
PER_KIND = 12
S2_POINTS = tuple((n, 4 + i % 9) for i, n in enumerate(range(10, 44, 3)))
M1_POINTS = tuple((5 * (i + 1), 1 + i % 3) for i in range(PER_KIND))
NORLUND_K = (2, 4, 6, 8, 10, 12)
BERNOULLI_ORDER_POINTS = tuple((4 + 2 * i, 1 + i % 4, 1 + (i + 2) % 4) for i in range(6))


def rational_identities_inputs(seed):
    rng = _rng("rational_identities", seed)
    specs = []
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            specs.append(("orthogonality", r, s, "symbolic"))
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(2, 7))
            specs.append(("orthogonality", r, s, q))
    for _ in range(PER_KIND):
        seq = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(TRANSFORM_LEN)
        )
        specs.append(("transform", seq))
    specs.extend(("s2_rstirling", n, mm) for n, mm in S2_POINTS)
    specs.extend(("m1_bernoulli", n, s) for n, s in M1_POINTS)
    specs.extend(("norlund", k) for k in NORLUND_K)
    specs.extend(("bernoulli_order", *point) for point in BERNOULLI_ORDER_POINTS)
    rng.shuffle(specs)
    return specs


def _transform_round_trip(m, a):
    forward = [
        [m.seqlib.seq_transform_forward(a, k, route=route) for k in range(1, len(a) + 1)]
        for route in ("recurrence", "determinant", "partition")
    ]
    b = forward[0]
    inverse = [
        [m.seqlib.seq_transform_inverse(b, k, route=route) for k in range(1, len(a) + 1)]
        for route in ("recurrence", "determinant")
    ]
    return forward, inverse


def rational_identities_execute(m, spec):
    kind, *params = spec
    if kind == "orthogonality":
        r, s, q = params
        point = m.qstirling.SymbolicQ() if q == "symbolic" else m.qstirling.RationalQ(q)
        return m.qstirling.orthogonality_check(ORTH_N_MAX, r=r, s=s, q=point).passed
    if kind == "transform":
        return _transform_round_trip(m, list(params[0]))
    if kind == "s2_rstirling":
        n, mm = params
        return m.zeta.zeta_m2_closed(n, mm), m.zeta.zeta_m2_rstirling(n, mm)
    if kind == "m1_bernoulli":
        n, s = params
        closed = {1: m.zeta.zeta_m1_closed, 2: m.zeta.zeta_m2_closed, 3: m.zeta.zeta_m3_closed}[s]
        return m.zeta.zeta_1s_degenerate_bernoulli(n, s), closed(n, 1)
    if kind == "norlund":
        (k,) = params
        return m.seqlib.norlund(k), m.seqlib.bernoulli_order(k, k)
    if kind == "bernoulli_order":
        big_n, a, b = params
        order = m.seqlib.bernoulli_order
        convolution = sum(
            math.comb(big_n, k) * order(k, a) * order(big_n - k, b) for k in range(big_n + 1)
        )
        return order(big_n, a + b), convolution
    raise ValueError(f"unknown item kind {kind!r}")


def rational_identities_check(m, spec, value, out):
    kind, *params = spec
    if kind == "orthogonality":
        return value is True
    if kind == "transform":
        forward, inverse = value
        a = list(params[0])
        return forward[0] == forward[1] == forward[2] and inverse[0] == inverse[1] == a
    if kind == "s2_rstirling":
        closed, (via_rstirling, via_tuples) = value
        return closed == via_rstirling == via_tuples
    if kind == "norlund":
        (k,) = params
        ok = value[0] == value[1]
        constants = m.zeta.REFERENCE_CONSTANT_TERMS
        if k <= len(constants):
            ok = ok and (-1) ** (k - 1) * value[0] / math.factorial(k) == constants[k - 1]
        return ok
    return value[0] == value[1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "field_rows",
            field_rows_inputs,
            field_rows_execute,
            field_rows_check,
            cold_items=True,
        ),
        Workload(
            "oracle_sweep",
            oracle_sweep_inputs,
            oracle_sweep_execute,
            oracle_sweep_check,
        ),
        Workload(
            "rational_identities",
            rational_identities_inputs,
            rational_identities_execute,
            rational_identities_check,
            cold_items=True,
        ),
    )
}
