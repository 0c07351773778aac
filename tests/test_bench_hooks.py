"""The benchmark's span tracer hooks package names; renaming one must fail here,
not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_in_the_package():
    boundaries = _load_spans().BOUNDARIES
    assert boundaries
    for span, targets in boundaries.items():
        for mod_name, path in targets:
            mod = importlib.import_module(f"qmzv.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                assert meth in vars(getattr(mod, cls_name)), (span, mod_name, path)
            else:
                assert callable(getattr(mod, path, None)), (span, mod_name, path)


def test_every_route_of_the_table_records_its_own_span():
    # the tracer rebinds module attributes, so a route reached through
    # zeta.ROUTES records a span only if the table looks it up at call time
    import pkgutil

    import qmzv
    from qmzv import zeta

    modules = {"qmzv": qmzv}
    for info in pkgutil.iter_modules(qmzv.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"qmzv.{info.name}")
    tracer = _load_spans().Tracer()
    with tracer.patched(modules):
        for name in zeta.ROUTES:
            del tracer.spans[:]
            with tracer.recording(name):
                zeta.zeta_value(9, 2, 3, name)
            routes = [span[0] for span in tracer.spans if span[0].startswith("zeta.")]
            assert routes == [f"zeta.{name}"], name
