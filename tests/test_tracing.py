"""The benchmark tracer's view of the package.

``benchmark/tracing.py`` wraps each function named in its ``TRACED`` table
and only prints ``not traced`` for a name it cannot find, after which that
layer's metrics read 0. Its hooks and ``benchmark/measure.py`` also read some
arguments by name and some result fields, which otherwise break only traced
runs. A renamed or removed function, parameter or field must fail here
instead.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import grdmf.data
import grdmf.evaluation
import grdmf.graphs
import grdmf.linalg
import grdmf.solver

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


def _parameters(function) -> list[str]:
    return list(inspect.signature(function).parameters)


def test_the_parameters_the_tracer_reads_keep_their_names_and_places():
    # the hooks read a positional argument, else the keyword of this name
    assert _parameters(grdmf.linalg.sym_eigen)[:1] == ["a"]
    assert _parameters(grdmf.graphs.build_laplacian)[:2] == ["similarities", "p"]
    for function in (
        grdmf.data.load_association_csv,
        grdmf.data.load_similarity_csv,
        grdmf.data.load_profile_csv,
        grdmf.data.write_matrix_csv,
    ):
        assert _parameters(function)[:1] == ["path"], function.__name__


def test_the_result_fields_the_tracer_reads_exist():
    # a fit's floor count and final loss, a protocol's folds and their AUC
    assert typing.get_type_hints(grdmf.solver.FitResult)["trace"] is grdmf.solver.SolveTrace
    trace_fields = {f.name for f in dataclasses.fields(grdmf.solver.SolveTrace)}
    assert {"loss", "floor_events"} <= trace_fields
    assert "per_fold" in {f.name for f in dataclasses.fields(grdmf.evaluation.EvalReport)}
    assert "auc" in {f.name for f in dataclasses.fields(grdmf.evaluation.FoldMetrics)}
