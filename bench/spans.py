"""Span tracing from outside the package.

The tracer replaces chosen functions and methods of the ``qmzv`` modules
with wrappers that record one span per call: name, start, end, parent span
and the id of the benchmark item being run.  Spans stay in memory; the
caller turns them into per-layer metrics and writes them out when the run
ends.  ``Tracer.patched`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import time

# Layer boundaries: span name -> (module, attribute path).  A dotted path
# names a method; every alias of the original in the class (``__rmul__ =
# __mul__``) is patched too.  Functions are patched under every name that
# refers to them in any package module, since callers import them by name.
BOUNDARIES = {
    "cyclo.mul": [("cyclo", "CycloElem.__mul__")],
    "cyclo.inverse": [("cyclo", "CycloElem.inverse")],
    "cyclo.ctx_build": [("cyclo", "CycloCtx.__init__")],
    "cyclo.as_rational": [("cyclo", "as_rational")],
    "exactnum.xgcd": [("exactnum", "poly_xgcd")],
    "exactnum.divmod": [("exactnum", "poly_divmod")],
    "exactnum.poly_mul": [("exactnum", "UniPoly.__mul__")],
    "exactnum.det": [
        ("exactnum", "det_fraction_free"),
        ("exactnum", "det_hessenberg"),
        ("exactnum", "det_cofactor"),
    ],
    "qstirling.entry": [("qstirling", "stirling1"), ("qstirling", "stirling2")],
    "qstirling.orthogonality": [("qstirling", "orthogonality_check")],
    "seqlib.bell": [("seqlib", "bell_complete")],
    "seqlib.transform": [
        ("seqlib", "seq_transform_forward"),
        ("seqlib", "seq_transform_inverse"),
    ],
    "seqlib.bernoulli": [
        ("seqlib", "degen_bernoulli"),
        ("seqlib", "norlund"),
        ("seqlib", "bernoulli_order"),
    ],
    "zeta.brute": [("zeta", "zeta_brute")],
    "zeta.product": [("zeta", "zeta_product"), ("zeta", "_zeta_multi")],
    "zeta.stirling": [("zeta", "zeta_via_stirling")],
    "zeta.bell": [("zeta", "zeta_bell")],
    "zeta.det": [
        ("zeta", "zeta_det"),
        ("zeta", "zeta_row_from_column"),
        ("zeta", "zeta_1s_det"),
    ],
    "zeta.closed": [
        ("zeta", "zeta_m1_closed"),
        ("zeta", "zeta_m2_closed"),
        ("zeta", "zeta_m3_closed"),
        ("zeta", "zeta_m2_rstirling"),
        ("zeta", "zeta_1s_degenerate_bernoulli"),
    ],
    "cli.main": [("cli", "main")],
}

# Span record layout: [name, start, end, parent index or -1, item id].
NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.active = False
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, modules):
        """Install the wrappers in ``modules`` (a dict name -> module that
        also holds the package under "qmzv"); restore on exit."""
        undo = []
        try:
            for name, targets in BOUNDARIES.items():
                for mod_name, path in targets:
                    undo.extend(_install(modules, mod_name, path, self.wrap, name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, item):
        self.item = item
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.item = None


def _install(modules, mod_name, path, wrap, span_name):
    mod = modules[mod_name]
    undo = []
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        wrapper = wrap(span_name, original)
        for attr, value in list(cls.__dict__.items()):
            if value is original:
                undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)
        return undo
    original = getattr(mod, path)
    wrapper = wrap(span_name, original)
    for owner in modules.values():
        for attr, value in list(vars(owner).items()):
            if value is original:
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
    return undo


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per span name: calls, summed self time and outermost inclusive time
    (the duration of spans with no ancestor of the same name)."""
    selfs = self_times(spans)
    stats = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            st["incl_s"] += s[END] - s[START]
    return stats
