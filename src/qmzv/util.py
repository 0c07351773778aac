"""Small shared helpers: structured check results and coercions."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


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
