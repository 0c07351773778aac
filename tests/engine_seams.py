"""The seams of the product-row selector, and a check that the engines on
either side of each one agree.

``zeta._row_engine(n, s)`` picks the multisection, the integer Newton engine
or the complement engine for the row (n, s) from cost estimates.  A seam is
an s whose choice differs from the choice at s - 1.  At each seam s, and at
s - 1 and s + 1, both engines of the seam must give the same row, entry for
entry and exactly.  ``tests/test_zeta.py`` runs the seams that are cheap to
check; the full set up to n = 60 (about 0.7 s on a 2-core Xeon VM) is a CI
step of its own:

    PYTHONPATH=src python tests/engine_seams.py --n-max 60
"""

from __future__ import annotations

import argparse
import sys

from qmzv import zeta

def seams(n: int) -> list:
    """The seams of row n as (s, engine below s, engine from s on).  The
    complement engine, whose cost grows as s^1.57 against Newton's s^2 and
    the multisection's 2^s, is the one the estimates favour for every large
    enough s: it is the last engine, and the scan ends where it is chosen."""
    found = []
    before = zeta._row_engine(n, 1)
    s = 1
    while before != "complement":
        s += 1
        after = zeta._row_engine(n, s)
        if after != before:
            found.append((s, before, after))
            before = after
    return found


def seam_cost(n: int, seam) -> float:
    """The estimated microseconds of the six rows that check one seam."""
    s, below, above = seam
    return sum(zeta._row_costs(n, t)[e] for t in (s - 1, s, s + 1) for e in (below, above))


def mismatches(n_max: int, max_cost: float = float("inf")) -> list:
    """(n, s, engine, engine) for every row of a seam with n <= n_max where
    the two engines differ, checking only the seams whose ``seam_cost`` is
    at most ``max_cost``."""
    bad = []
    for n in range(2, n_max + 1):
        for seam in seams(n):
            if seam_cost(n, seam) > max_cost:
                continue
            s, below, above = seam
            for t in (s - 1, s, s + 1):
                # the full rows, built afresh rather than read from the row
                # memo (Newton still reads the power-sum prefix of n)
                lower, upper = (zeta.ROW_ENGINES[e](n - 1, n, t) for e in (below, above))
                if lower != upper:
                    bad.append((n, t, below, above))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-max", type=int, default=60)
    args = parser.parse_args(argv)
    bad = mismatches(args.n_max)
    for n, s, below, above in bad:
        print(f"n={n} s={s}: {below} and {above} differ")
    count = sum(len(seams(n)) for n in range(2, args.n_max + 1))
    print(f"{count} seams for n <= {args.n_max}: {len(bad)} rows differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
