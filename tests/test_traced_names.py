"""The functions perfbench's tracer wraps by name must keep their names.

`perfbench/tracing.py` replaces each traced function at every module binding
by looking it up by name, so a renamed or deleted function leaves its span
reading 0 and nothing fails.  These are the names behind the Hom, End(X) and
elimination spans.
"""

import importlib.util
from pathlib import Path

import pytest

from quiverglue import linalg, reps

TRACED = (
    (reps, "d_matrix"),
    (reps, "hom_space"),
    (reps, "end_algebra"),
    (reps, "indecomposable"),
    (linalg, "kernel_basis"),
    (linalg, "rank"),
    (linalg, "solve"),
)
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _function_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, fn) for mod, fn, _span in module.FUNCTION_SPANS}


@pytest.mark.parametrize("module,name", TRACED, ids=[f"{m.__name__}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(module, name, None))


def test_tracer_still_wraps_these_names():
    spans = _function_spans()
    for module, name in TRACED:
        assert (module.__name__.rsplit(".", 1)[-1], name) in spans
