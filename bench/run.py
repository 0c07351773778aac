#!/usr/bin/env python3
"""Benchmark of the qmzv package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run imports ``qmzv`` from ``src/`` and
builds the workload's inputs from the seed (set-up, repeated and timed),
then runs the workload's batch of items again and again, each batch with
the package's memo caches emptied (before each item, for a workload of
cold items), until ``--seconds`` have passed and at
least MIN_BATCHES batches ran.  Every item is checked.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the package's layer boundaries are
wrapped (see ``spans.py``) and the object holds the per-layer metrics,
while the spans of the first batch go to ``bench/out/``.  The line before
it records the environment and the details behind the metrics.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace

from spans import START, Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 31
# Other tenants' load slows a shared host up to twofold, in phases from
# seconds to minutes.  So before and after each item and each set-up the
# run times ``calibrate()``, a fixed piece of exact arithmetic like the
# program's, and scales the time in between by CALIB_REF_S over the mean of
# the two calibration times.  Times then read as on a host that runs the
# calibration in CALIB_REF_S, about its time on a quiet 2-core Xeon VM.
# Each item's time is the median of its scaled times over the batches, of
# which a run makes at least MIN_BATCHES.  The info line keeps the
# unscaled values.
MIN_BATCHES = 3
CALIB_REF_S = 0.0035
# A regression may slow the program down; add no batch that would likely
# end after this many seconds, so that a run still ends in bounded time.
HARD_STOP_S = 150.0
# Memo tables that are plain dicts rather than lru caches: (module, name).
MEMO_DICTS = (("qstirling", "_TABLES"),)


def load_package():
    """Import ``qmzv`` and all its modules afresh from ``src/``."""
    for name in [k for k in sys.modules if k == "qmzv" or k.startswith("qmzv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qmzv")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qmzv imported from {pkg.__file__}, not from {SRC}")
    modules = {"qmzv": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"qmzv.{info.name}")
    return modules


def find_caches(modules):
    """Every lru cache reachable from the package's modules, each once."""
    caches = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                caches[id(obj)] = obj
    return list(caches.values())


def clear_memos(modules, caches):
    for cache in caches:
        cache.cache_clear()
    for mod_name, attr in MEMO_DICTS:
        memo = getattr(modules[mod_name], attr, None)
        if memo is not None:
            memo.clear()


class Memos:
    """The package's memo caches.  Emptying an lru cache resets its
    statistics, so each emptying first adds them to the batch's tally."""

    def __init__(self, modules):
        self.modules = modules
        self.caches = find_caches(modules)
        self.zeta = [c for c in self.caches if c.__module__ == "qmzv.zeta"]
        self.new_batch()

    def _live(self):
        infos = [c.cache_info() for c in self.zeta]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        tables = len(getattr(self.modules["qstirling"], "_TABLES", ()))
        return hits, lookups, tables

    def clear(self):
        hits, lookups, tables = self._live()
        self.hits += hits
        self.lookups += lookups
        self.tables += tables
        clear_memos(self.modules, self.caches)

    def new_batch(self):
        clear_memos(self.modules, self.caches)
        self.hits = self.lookups = self.tables = 0

    def totals(self):
        """(zeta cache hits, zeta cache lookups, q-Stirling triangles
        memoized) of the batch so far."""
        hits, lookups, tables = self._live()
        return self.hits + hits, self.lookups + lookups, self.tables + tables


def calibrate():
    """Seconds taken by a fixed piece of exact arithmetic: the cube of an
    8 x 8 matrix of fractions."""
    t0 = time.perf_counter()
    rows = [[Fraction(i + j, j + 1) for j in range(8)] for i in range(8)]
    for _ in range(2):
        rows = [[sum(a * b for a, b in zip(r, c)) for c in zip(*rows)] for r in rows]
    return time.perf_counter() - t0


def scale(times, calibrations):
    """Each of ``times`` scaled by the calibrations just before and after
    it; ``calibrations`` has one more entry than ``times``."""
    return [
        t * 2 * CALIB_REF_S / (calibrations[i] + calibrations[i + 1])
        for i, t in enumerate(times)
    ]


def host_factor(calibrations):
    return CALIB_REF_S / statistics.median(calibrations)


def run_batch(workload, m, specs, tracer, reset=None):
    """Run every item once, calling ``reset`` untimed before each item if
    given; return (wall seconds, item seconds, calibration seconds around
    the items, failures, stdout bytes)."""
    times = []
    calibrations = []
    failed = 0
    bytes_out = 0
    start = time.perf_counter()
    for idx, spec in enumerate(specs):
        if reset:
            reset()
        calibrations.append(calibrate())
        buf = io.StringIO()
        recording = tracer.recording(idx) if tracer else contextlib.nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with recording, contextlib.redirect_stdout(buf):
                value = workload.execute(m, spec)
        except Exception as exc:
            error = exc
        times.append(time.perf_counter() - t0)
        try:
            if error is not None:
                raise error
            ok = workload.check(m, spec, value, buf.getvalue())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"item {idx} {spec!r} failed", file=sys.stderr)
        bytes_out += len(buf.getvalue().encode())
    calibrations.append(calibrate())
    return time.perf_counter() - start, times, calibrations, failed, bytes_out


def tail(values):
    """(percentile, value) at the highest whole percentile with at least
    ten of ``values`` above it; needs more than ten values."""
    pct = math.floor(100 * (1 - 10 / len(values)))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(stats, memo_totals, bytes_out):
    def calls(*names):
        return sum(stats[n]["calls"] for n in names if n in stats)

    def self_s(*names):
        return sum((stats[n]["self_s"] for n in names if n in stats), 0.0)

    def incl_s(name):
        return stats[name]["incl_s"] if name in stats else 0.0

    hits, lookups, tables = memo_totals
    return {
        "cyclo.mul_calls": (calls("cyclo.mul"), "count"),
        "cyclo.mul_s": (self_s("cyclo.mul"), "s"),
        "cyclo.inverse_calls": (calls("cyclo.inverse"), "count"),
        "cyclo.inverse_s": (self_s("cyclo.inverse"), "s"),
        "cyclo.ctx_builds": (calls("cyclo.ctx_build"), "count"),
        "cyclo.ctx_build_s": (incl_s("cyclo.ctx_build"), "s"),
        "cyclo.as_rational_calls": (calls("cyclo.as_rational"), "count"),
        "exactnum.xgcd_calls": (calls("exactnum.xgcd"), "count"),
        "exactnum.xgcd_s": (incl_s("exactnum.xgcd"), "s"),
        "exactnum.poly_mul_calls": (calls("exactnum.poly_mul"), "count"),
        "exactnum.poly_mul_s": (self_s("exactnum.poly_mul"), "s"),
        "exactnum.det_s": (self_s("exactnum.det"), "s"),
        "qstirling.entry_calls": (calls("qstirling.entry"), "count"),
        "qstirling.stirling_s": (self_s("qstirling.entry", "qstirling.orthogonality"), "s"),
        "qstirling.tables": (tables, "count"),
        "seqlib.bell_calls": (calls("seqlib.bell"), "count"),
        "seqlib.bell_s": (self_s("seqlib.bell"), "s"),
        "seqlib.transform_calls": (calls("seqlib.transform"), "count"),
        "seqlib.transform_s": (self_s("seqlib.transform"), "s"),
        "seqlib.bernoulli_s": (self_s("seqlib.bernoulli"), "s"),
        "zeta.brute_s": (incl_s("zeta.brute"), "s"),
        "zeta.product_s": (incl_s("zeta.product"), "s"),
        "zeta.stirling_s": (incl_s("zeta.stirling"), "s"),
        "zeta.bell_s": (incl_s("zeta.bell"), "s"),
        "zeta.det_s": (incl_s("zeta.det"), "s"),
        "zeta.closed_s": (incl_s("zeta.closed"), "s"),
        "zeta.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
    }


def bypass_check(workload_name, layers):
    """The field must be untouched on rational_identities and used on the
    other workloads, so a zero there is structural, not a dead counter."""
    muls = layers["cyclo.mul_calls"][0]
    builds = layers["cyclo.ctx_builds"][0]
    if workload_name == "rational_identities":
        return muls == 0 and builds == 0
    return muls > 0 and builds > 0


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "cpu_model": None,
        "scope": "benchmark process only; no system-wide profiler; host cores may be shared",
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    return env


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def write_spans(args, spans):
    """Spans of the first batch as JSON lines: name, start and end in
    seconds from the first span, parent index, item index."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    t0 = spans[0][START] if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for name, start, end, parent, item in spans:
            fh.write(json.dumps([name, start - t0, end - t0, parent, item]) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    setup_times = []
    setup_calibrations = [calibrate()]
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            modules = load_package()
            specs = workload.inputs(args.seed)
            setup_times.append(time.perf_counter() - t0)
            setup_calibrations.append(calibrate())
    except ImportError as exc:
        print(f"error: cannot import qmzv from {SRC}: {exc}", file=sys.stderr)
        return 2
    m = SimpleNamespace(**modules)
    memos = Memos(modules)
    reset = memos.clear if workload.cold_items else None
    tracer = Tracer() if args.trace else None

    reps = []
    start = time.perf_counter()
    with tracer.patched(modules) if tracer else contextlib.nullcontext():
        while True:
            memos.new_batch()
            if tracer:
                tracer.spans.clear()
            wall, times, calibrations, failed, bytes_out = run_batch(
                workload, m, specs, tracer, reset
            )
            rep = {
                "wall": wall,
                "times": times,
                "scaled": scale(times, calibrations),
                "failed": failed,
                "factor": host_factor(calibrations),
            }
            if tracer:
                stats = summarize(tracer.spans)
                rep["layers"] = layer_metrics(stats, memos.totals(), bytes_out)
                rep["spans"] = len(tracer.spans)
                if not reps:
                    first_spans = list(tracer.spans)
                    first_stats = stats
            reps.append(rep)
            elapsed = time.perf_counter() - start
            if elapsed + wall > HARD_STOP_S:
                break
            if elapsed >= args.seconds and len(reps) >= MIN_BATCHES:
                break

    attempted = sum(len(r["times"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    checks = {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batches": len(reps),
        "items_per_batch": len(specs),
        "batch_walls_s": [round(r["wall"], 4) for r in reps],
        "failed_frac": failed / attempted,
        "setup_samples": len(setup_times),
        "host_factors": [round(r["factor"], 4) for r in reps],
        "env": environment(),
    }

    def per_item(key):
        return [statistics.median(ts) for ts in zip(*(r[key] for r in reps))]

    items = per_item("scaled")
    wall_s = sum(items)
    if tracer:
        metrics = {}
        for name, (value, unit) in reps[0]["layers"].items():
            if unit == "s":
                value = statistics.median(r["layers"][name][0] * r["factor"] for r in reps)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.spans"] = {"value": reps[0]["spans"], "unit": "count"}
        counts = [
            {k: v for k, (v, unit) in r["layers"].items() if unit != "s"} for r in reps
        ]
        checks["counts_repeat"] = all(c == counts[0] for c in counts)
        checks["bypass"] = bypass_check(args.workload, reps[0]["layers"])
        info["largest_self_time"] = max(
            first_stats, key=lambda k: first_stats[k]["self_s"], default=None
        )
        info["spans_file"] = str(write_spans(args, first_spans).relative_to(ROOT))
    else:
        pct, tail_s = tail(items)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "item_p50_ms": {"value": statistics.median(items) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "setup_s": {
                "value": statistics.median(scale(setup_times, setup_calibrations)),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        info["tail_percentile"] = pct
        info["tail_samples"] = len(items)
        info["tail_samples_beyond"] = sum(1 for t in items if t > tail_s)
        raw_items = per_item("times")
        info["unscaled"] = {
            "wall_s": sum(raw_items),
            "item_p50_ms": statistics.median(raw_items) * 1e3,
            "item_tail_ms": tail(raw_items)[1] * 1e3,
            "setup_s": statistics.median(setup_times),
        }
    info["checks"] = checks
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
