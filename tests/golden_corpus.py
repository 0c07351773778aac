"""Golden corpus of the CLI's stdout, stderr and exit codes.

A fixed list of argument vectors, split into named groups, runs through
``cli.main`` in process.  Each group hashes, per invocation, the list
[args, exit code, stdout, stderr] into one SHA-256 digest, so a changed byte
names its group.  ``tests/test_golden_corpus.py`` compares the digests with
``tests/golden_corpus.json``.

Masked before hashing:

* the elapsed time of ``verify`` reports: ``N ms)`` in text,
  ``"elapsed_ms": N`` in json and the last field of the csv data row;
* argparse's usage text on a refused command line: only its last stderr
  line, the ``error:`` line, is kept, since the usage wraps with the
  terminal width.

``QMZV_BUDGET`` is unset while the corpus runs.  After an intended change of
output, rewrite the file with

    PYTHONPATH=src python tests/golden_corpus.py

and list every group whose digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import sys

from qmzv import cli, zeta

DIGEST_FILE = pathlib.Path(__file__).with_name("golden_corpus.json")

_Q_POINTS = ("symbolic", "root:1", "root:2", "root:7", "2/3")


def _args(*parts) -> list:
    return [str(p) for p in parts]


def _groups() -> dict:
    groups = {}
    for method in zeta.ROUTES:
        for n in range(2, 14):
            groups[f"value-{method}-n{n}"] = [
                _args("value", "--n", n, "--m", m, "--s", s, "--method", method)
                for m in range(n + 1) for s in range(5)
            ]
    groups["value-formats"] = [
        _args("value", "--n", n, "--m", m, "--s", s, "--format", fmt)
        for fmt in ("json", "csv") for n, m, s in ((7, 2, 2), (9, 3, 1), (12, 4, 3))
    ]
    for n in range(2, 25):
        groups[f"table-zeta-n{n}"] = [_args("table", "zeta", "--n", n, "--s", s) for s in range(1, 7)]
    groups["table-zeta-formats"] = [
        _args("table", "zeta", "--n", 9, "--s", 2, "--format", fmt) for fmt in ("json", "csv")
    ]
    for kind in ("stirling1", "stirling2"):
        for q in _Q_POINTS:
            groups[f"table-{kind}-q{q}"] = [
                _args("table", kind, "--q", q, "--r", r, "--s", s, "--n-max", 6)
                for r, s in ((1, 1), (1, 2), (2, 1), (2, 3))
            ] + [_args("table", kind, "--q", q, "--r", 2, "--s", 2, "--n-max", 4, "--format", "json")]
    groups["table-rstirling"] = [_args("table", "rstirling", "--r", r, "--n-max", 6) for r in (1, 2, 3)]
    groups["table-bernoulli"] = [_args("table", "bernoulli", "--kind", "norlund", "--n-max", 10)] + [
        _args("table", "bernoulli", "--kind", "order", "--alpha", a, "--n-max", 8) for a in (1, 2, 5)
    ]
    groups["poly"] = [
        _args("poly", "--m", 1, "--s", 1),
        _args("poly", "--m", 2, "--s", 2, "--format", "json"),
        _args("poly", "--m", 2, "--s", 3, "--format", "csv"),
    ]
    for fmt in ("text", "json", "csv"):
        groups[f"verify-all-{fmt}"] = [_args("verify", "all", "--format", fmt)]
    groups["approx"] = [
        _args("value", "--n", 7, "--m", 2, "--s", 2, "--approx"),
        _args("value", "--n", 9, "--m", 3, "--s", 1, "--approx", "--format", "json"),
        _args("table", "zeta", "--n", 8, "--s", 3, "--approx", "--format", "csv"),
        _args("table", "bernoulli", "--kind", "order", "--alpha", 3, "--n-max", 6, "--approx"),
        _args("poly", "--m", 2, "--s", 2, "--approx"),
        _args("verify", "s2", "--approx"),
        _args("value", "--n", 1100, "--m", 550, "--s", 1, "--method", "closed", "--approx"),
    ]
    groups["past-the-int-digit-limit"] = [
        _args("value", "--n", 2, "--m", 1, "--s", 20000),
        _args("table", "zeta", "--n", 2, "--s", 20000),
    ]
    groups["refused-exit-1"] = [
        _args("value", "--n", 1, "--m", 1, "--s", 1),
        _args("value", "--n", 7, "--m", -1, "--s", 1),
        _args("value", "--n", 7, "--m", 2),
        _args("value", "--n", "x", "--m", 2, "--s", 1),
        _args("value", "--n", 5, "--m", 2, "--s", 1, "--method", "brute", "--budget", -1),
        _args("value", "--n", 5, "--m", 2, "--s", 1, "--out", "/nonexistent-dir/out.txt"),
        _args("table", "zeta", "--s", 2),
        _args("table", "zeta", "--n", 1, "--s", 1),
        _args("table", "zeta", "--n", 6, "--s", 0),
        _args("table", "stirling1", "--q", "root:2"),
        _args("table", "stirling2", "--n-max", -1),
        _args("table", "stirling1", "--q", "root:x", "--n-max", 3),
        _args("poly", "--m", 4, "--s", 5),
        _args("verify", "routes", "--n-max", 0),
        _args("verify", "routes", "--n-max", 3, "--budget", -5),
    ]
    groups["refused-q-point"] = [
        _args("table", "stirling2", "--q", "1/0", "--n-max", 3),
        _args("table", "stirling1", "--q", "abc", "--n-max", 3),
        _args("table", "stirling1", "--q", "1/2/3", "--n-max", 3, "--format", "json"),
        _args("table", "stirling1", "--q", "root:0", "--n-max", 3),
    ]
    groups["refused-exit-2"] = [
        _args("value", "--n", 30, "--m", 14, "--s", 1, "--method", "brute", "--budget", 10),
        _args("value", "--n", 40, "--m", 10, "--s", 1, "--method", "brute", "--format", "json"),
    ]
    groups["refused-exit-3"] = [
        _args("value", "--n", 7, "--m", 2, "--s", 5, "--method", "closed"),
        _args("value", "--n", 11, "--m", 4, "--s", 4, "--method", "closed", "--format", "json"),
    ]
    return groups


GROUPS = _groups()

_ELAPSED = (
    (re.compile(r"\d+ ms\)"), "N ms)"),
    (re.compile(r'"elapsed_ms": \d+'), '"elapsed_ms": N'),
)


def _mask(argv, out: str) -> str:
    """``out`` with the elapsed time of a ``verify`` report masked."""
    if argv[0] != "verify":
        return out
    for pattern, mask in _ELAPSED:
        out = pattern.sub(mask, out)
    if "csv" in argv:
        lines = out.split("\n")
        if len(lines) > 1:
            lines[1] = lines[1].rsplit(",", 1)[0] + ",N"
        out = "\n".join(lines)
    return out


def run(argv) -> list:
    """[args, exit code, stdout, stderr] of one in-process ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusal: keep its error line only
            code = exc.code
            err = io.StringIO(err.getvalue().splitlines()[-1])
    return [argv, code, _mask(argv, out.getvalue()), err.getvalue()]


@contextlib.contextmanager
def _no_env_budget():
    saved = os.environ.pop("QMZV_BUDGET", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["QMZV_BUDGET"] = saved


def digest(group: str) -> str:
    """SHA-256 over the runs of one group, one JSON line per invocation."""
    h = hashlib.sha256()
    with _no_env_budget():
        for argv in GROUPS[group]:
            h.update(json.dumps(run(argv)).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    digests = {group: digest(group) for group in GROUPS}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} group digests to {DIGEST_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
