"""The benchmark tracer finds the package's layers by name.

`perfbench/tracer.py` wraps each (module, function) of `LAYER_SPANS`, the
CLI entry point and two operator methods by looking them up by name, so a
rename inside `src/` would only show in a traced benchmark run.  This test
reads the tracer's tables and checks that every name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

from supermetric.algebra import Supernumber
from supermetric.matrices import SuperMatrix

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    tracer = _tracer()
    for mod, fn, _ in tracer.LAYER_SPANS:
        module = importlib.import_module(f"supermetric.{mod}")
        assert callable(vars(module).get(fn)), f"{mod}.{fn}"
    for name in tracer.SPAN_METRIC:
        mod, *attrs = name.split(".")
        obj = importlib.import_module(f"supermetric.{mod}")
        for attr in attrs:
            assert attr in vars(obj), name
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_traced_operators_are_defined_on_their_classes():
    assert "__matmul__" in vars(SuperMatrix)
    assert "__mul__" in vars(Supernumber)
