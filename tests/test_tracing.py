"""The benchmark tracer's view of the package.

``benchmark/tracing.py`` wraps each function named in its ``TRACED`` table
and only prints ``not traced`` for a name it cannot find, after which that
layer's metrics read 0. A renamed or removed function must fail here
instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_grdmf_callable():
    traced = _traced_names()
    assert traced
    for module_name, attr, _span in traced:
        assert module_name.partition(".")[0] == "grdmf", module_name
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is not traced"
