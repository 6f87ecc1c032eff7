"""The functions and methods perfbench's tracer wraps by name must keep their names.

`perfbench/tracing.py` replaces each traced function at every module binding
by looking it up by name, and patches each traced method on its class, so a
renamed or deleted name leaves its span reading 0 and nothing fails.  Every
entry of its FUNCTION_SPANS and METHOD_SPANS must therefore exist, except
the ones pinned here as gone: deleting another traced name fails this test.
The elimination entry points must also keep taking a `Matrix`, whose rows,
cols and field the tracer's `linalg.elim` hook reads.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from quiverglue import linalg, reps
from quiverglue.linalg import Matrix, PrimeField, QQ

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# traced names the program no longer has; their spans read 0
GONE = {
    "linalg.vstack",
    "gluing.apply_loop_F",
    "linalg.IncrementalRank.add",
    "linalg.IncrementalRank.contains",
    "reps.d_matrix",
    "reps.split_by_idempotent",
}
# the names behind the Hom, End(X) and elimination spans
TRACED = (
    (reps, "hom_dim"),
    (reps, "ext_dim"),
    (reps, "hom_space"),
    (reps, "end_algebra"),
    (reps, "indecomposable"),
    (linalg, "kernel_basis"),
    (linalg, "rank"),
    (linalg, "solve"),
)
ELIMINATION = ("rank", "kernel_basis", "solve", "rref")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()
FUNCTIONS = [f"{mod}.{fn}" for mod, fn, _span in TRACING_MODULE.FUNCTION_SPANS]
METHODS = [f"{mod}.{cls}.{meth}" for mod, cls, meth, _span in TRACING_MODULE.METHOD_SPANS]


def _module(name):
    return importlib.import_module(f"quiverglue.{name}")


@pytest.mark.parametrize("name", FUNCTIONS, ids=[f"quiverglue.{name}" for name in FUNCTIONS])
def test_traced_function_exists(name):
    module, fn = name.split(".")
    found = getattr(_module(module), fn, None)
    if name in GONE:
        assert found is None
    else:
        assert callable(found)


@pytest.mark.parametrize("name", METHODS, ids=[f"quiverglue.{name}" for name in METHODS])
def test_traced_method_exists(name):
    # the tracer patches a method only where its class defines it
    module, cls, meth = name.split(".")
    owner = getattr(_module(module), cls, None)
    defined = owner is not None and callable(vars(owner).get(meth))
    assert defined == (name not in GONE)


def test_tracer_still_wraps_these_names():
    for module, name in TRACED:
        assert f"{module.__name__.rsplit('.', 1)[-1]}.{name}" in FUNCTIONS


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=("Q", "F_101"))
def test_elimination_entry_points_take_a_matrix(field):
    tracer = TRACING_MODULE.Tracer()
    a = Matrix.from_rows([[1, 2, 0], [2, 4, 0]], field)
    calls = {
        "rank": (a,),
        "kernel_basis": (a,),
        "solve": (a, [1, 2]),
        "rref": (a,),
    }
    for name in ELIMINATION:
        traced = tracer.wrap("linalg.elim", getattr(linalg, name), before=tracer._elim_cells)
        traced(*calls[name])
    assert tracer.calls["linalg.elim"] == len(ELIMINATION)
    cells = "linalg.elim.fp_cells" if field.characteristic else "linalg.elim.q_cells"
    assert tracer.counts[cells] == 6 * len(ELIMINATION)
    assert linalg.rank(a) == 1
    assert len(linalg.kernel_basis(a)) == 2
    assert linalg.rref(a)[1] == [0]
    assert linalg.solve(a, [1, 2]) is not None
