"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _fresh():
    modules = run.load_package()
    return modules, SimpleNamespace(**modules)


def test_seed_fixes_inputs():
    for workload in WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7), workload.name
        assert workload.inputs(7) != workload.inputs(8), workload.name


def test_planted_wrong_value_and_exceptions_count_as_failures():
    modules, m = _fresh()
    workload = WORKLOADS["field_rows"]
    specs = [(7, 1), (8, 2), (9, 3), (10, 1), (11, 2)]
    real = m.zeta._zeta_multi

    def planted(n, mm, s):
        if n == 9:
            raise RuntimeError("planted exception in the program")
        if (n, mm) == (10, 4):
            return "1 2"  # an unparsable row entry makes the check raise
        value = real(n, mm, s)
        return value + 1 if (n, mm) == (8, 3) else value

    m.zeta._zeta_multi = planted
    try:
        _, times, calibrations, failed, bytes_out = run.run_batch(workload, m, specs, None)
    finally:
        m.zeta._zeta_multi = real
    assert len(times) == len(specs)
    assert failed == 3
    assert bytes_out > 0
    assert len(calibrations) == len(specs) + 1 and min(calibrations) > 0

    _, _, _, failed, _ = run.run_batch(workload, m, specs, None)
    assert failed == 0


def test_scale_divides_by_the_calibrations_around_each_time():
    ref = run.CALIB_REF_S
    scaled = run.scale([1.0, 3.0], [ref, 3 * ref, ref])
    assert scaled == [0.5, 1.5]


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    # Same-name nesting: inclusive time counts the outermost span only.
    nested = [["x", 0.0, 5.0, -1, 0], ["x", 1.0, 2.0, 0, 0], ["y", 3.0, 4.0, 0, 0]]
    stats = summarize(nested)
    assert stats["x"] == {"calls": 2, "self_s": 3.0 + 1.0, "incl_s": 5.0}
    assert stats["y"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}


def test_tracer_counts_field_work_and_restores_originals():
    modules, m = _fresh()
    originals = (m.cyclo.CycloElem.__mul__, m.zeta.as_rational, m.cyclo.poly_xgcd)
    tracer = Tracer()
    with tracer.patched(modules):
        # Callers look these up under their own imported names.
        assert m.zeta.as_rational is not originals[1]
        assert m.cyclo.poly_xgcd is not originals[2]
        run.clear_memos(modules, run.find_caches(modules))
        with tracer.recording(0):
            value = m.zeta.zeta_brute(5, 2, 1).value
    assert value == Fraction(2)
    stats = summarize(tracer.spans)
    assert stats["cyclo.mul"]["calls"] > 0
    assert stats["cyclo.ctx_build"]["calls"] == 1
    assert stats["zeta.brute"]["calls"] == 1
    assert all(span[4] == 0 for span in tracer.spans)
    assert stats["cyclo.as_rational"]["calls"] == 1
    assert (m.cyclo.CycloElem.__mul__, m.zeta.as_rational, m.cyclo.poly_xgcd) == originals
    assert m.cyclo.CycloElem.__rmul__ is originals[0]
