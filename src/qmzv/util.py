"""Small shared helpers: structured check results, coercions, and
:func:`any_size_ints`, the one guard that lets exact ints of any size turn
into strings."""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from fractions import Fraction


@contextlib.contextmanager
def any_size_ints():
    """Lift the interpreter's limit on the digits of an int turned into a
    string (4300 by default; absent before Python 3.10.7) for the block, and
    restore it after.  ``value`` and ``table`` format and write their output
    inside one, and ``verify`` runs each case inside one, so exact values of
    any size print and compare; command-line input is parsed outside it,
    under the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def fractionize(x):
    """Coerce ints to Fraction; leave every other ring element alone.

    Keeps integer inputs from drifting into float arithmetic when a later
    step divides by an integer.
    """
    return Fraction(x) if isinstance(x, int) else x


@dataclass
class CheckResult:
    """Outcome of a verification sweep: case count plus structured failures.

    ``routes`` labels the evaluation routes the sweep compares.
    ``failures`` holds one dict per failed case (parameters, expected,
    actual); an empty list means the sweep passed.
    """

    routes: list
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, **params) -> None:
        self.cases += 1
        if not ok:
            self.failures.append(params)

    def first_failure(self):
        return self.failures[0] if self.failures else None
