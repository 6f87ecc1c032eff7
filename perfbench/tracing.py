"""Spans and counters around quiverglue's public functions, installed from outside.

`install` replaces each traced function at every module binding (the modules
import each other's functions by name) and patches traced methods on their
class.  A span is (name, start, end, parent); spans stay in memory until
`write_spans`.  A span's self time is its duration minus the time its direct
child spans cover, so the self times of all spans add up to the time covered
by the root spans (one per `cli.main` job).  Hot scalar functions such as
`euler_form` are counted only, and field arithmetic not at all.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function, span name): one span name per layer metric group
FUNCTION_SPANS = (
    ("linalg", "rank", "linalg.elim"),
    ("linalg", "kernel_basis", "linalg.elim"),
    ("linalg", "solve", "linalg.elim"),
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "hstack", "linalg.other"),
    ("linalg", "vstack", "linalg.other"),
    ("linalg", "block_diag", "linalg.other"),
    ("linalg", "kron", "linalg.other"),
    ("reps", "d_matrix", "reps.d_matrix"),
    ("reps", "hom_dim", "reps.homext"),
    ("reps", "ext_dim", "reps.homext"),
    ("reps", "random_rep", "reps.random_rep"),
    ("reps", "hom_space", "reps.hom_space"),
    ("reps", "end_algebra", "reps.end_algebra"),
    ("reps", "indecomposable", "reps.indecomposable"),
    ("reps", "split_by_idempotent", "reps.other"),
    ("reps", "direct_sum", "reps.other"),
    ("reps", "parse_rep", "reps.other"),
    ("reps", "format_rep", "reps.other"),
    ("reps", "parse_morphism", "reps.other"),
    ("reps", "format_morphism", "reps.other"),
    ("decompose", "canonical_decomposition", "decompose.canonical"),
    ("decompose", "generic_summands", "decompose.generic_summands"),
    ("decompose", "perp_simples", "decompose.perp_simples"),
    ("decompose", "verify_reduced_sequence", "decompose.verify"),
    ("decompose", "sample_exceptional_rep", "decompose.sample_exceptional"),
    ("decompose", "exceptional_sequence_decomposition", "decompose.excdecomp"),
    ("gluing", "tree_shaped_ext_basis", "gluing.ext_basis"),
    ("gluing", "build_gluing", "gluing.build"),
    ("gluing", "apply_F", "gluing.apply_F"),
    ("gluing", "build_loop_gluing", "gluing.loop"),
    ("gluing", "apply_loop_F", "gluing.loop"),
    ("gluing", "apply_F_mor", "gluing.other"),
    ("gluing", "check_theorem36", "gluing.other"),
    ("gluing", "check_theta_iso", "gluing.other"),
    ("gluing", "format_bases", "gluing.other"),
    ("gluing", "parse_bases", "gluing.other"),
    ("gluing", "format_gluing", "gluing.other"),
    ("quiver", "classify_root", "quiver.classify_root"),
    ("quiver", "parse_quiver", "quiver.parse"),
    ("treemod", "coefficient_quiver", "treemod.coefficient_quiver"),
    ("cli", "main", "cli"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("linalg", "IncrementalRank", "add", "linalg.incremental"),
    ("linalg", "IncrementalRank", "contains", "linalg.incremental"),
    ("reps", "Morphism", "__post_init__", "reps.morphism"),
    ("decompose", "Oracle", "hom", "decompose.oracle"),
    ("decompose", "Oracle", "schurian", "decompose.oracle"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.max_cells = 0
        self._open = []  # [span index, time covered by children, child count]
        self._seen_misses = set()

    def parent_name(self):
        return self.spans[self._open[-1][0]][0] if self._open else None

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span; before(args) runs first, after(args, result, children) last."""
        spans, opened = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            start = clock()
            spans.append([name, start, start, opened[-1][0] if opened else -1])
            frame = [index, 0.0, 0]
            opened.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                opened.pop()
                spans[index][2] = end
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
                if opened:
                    opened[-1][1] += end - start
                    opened[-1][2] += 1
            if after is not None:
                after(args, result, frame[2])
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn, when=None):
        """fn with a call counter and no span; when(parent span name) filters."""

        def counted(*args, **kwargs):
            if when is None or when(self.parent_name()):
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- hooks -----------------------------------------------------------

    def _elim_cells(self, args):
        a = args[0]
        cells = a.rows * a.cols
        self.counts["linalg.elim.fp_cells" if a.field.characteristic else "linalg.elim.q_cells"] += cells
        self.max_cells = max(self.max_cells, cells)

    def _oracle_query(self, kind):
        def after(args, result, children):
            oracle = args[0]
            self.counts[f"decompose.oracle.{kind}.queries"] += 1
            if children:  # answered by sampling, not from the oracle's cache
                self.counts[f"decompose.oracle.{kind}.misses"] += 1
                key = (kind, oracle.quiver.name, oracle.config) + tuple(tuple(v) for v in args[1:])
                if key in self._seen_misses:
                    self.counts["decompose.oracle.cross_repeats"] += 1
                self._seen_misses.add(key)

        return after

    def _after(self, span, attr):
        if attr == "add":
            return lambda args, added, children: self.counts.update({"linalg.incremental.adds": 1})
        if span == "reps.d_matrix":
            return lambda args, d, children: self.counts.update({"reps.d_matrix.cells": d.rows * d.cols})
        if span == "reps.indecomposable":
            return lambda args, v, children: self.counts.update({"reps.indecomposable.unknown": int(v.tag == "unknown")})
        if span == "gluing.ext_basis":
            return lambda args, basis, children: self.counts.update({"gluing.ext_basis.elements": len(basis)})
        return None


def _patch_everywhere(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap quiverglue (already imported) and sympy.factor_list for this process."""
    import sympy

    from quiverglue import cli  # noqa: F401  (imports every traced module)

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "quiverglue"]
    mod = {n.split(".")[-1]: m for n, m in sys.modules.items() if n.startswith("quiverglue.")}
    for module_name, fn_name, span in FUNCTION_SPANS:
        original = getattr(mod[module_name], fn_name, None)
        if original is None:  # gone in this version of the program: its metrics read 0
            continue
        before = tracer._elim_cells if span == "linalg.elim" else None
        _patch_everywhere(modules, original, tracer.wrap(span, original, before, tracer._after(span, fn_name)))
    for module_name, cls_name, meth, span in METHOD_SPANS:
        cls = getattr(mod[module_name], cls_name, None)
        if meth not in vars(cls or object):
            continue
        if cls_name == "Oracle":
            after = tracer._oracle_query("schur" if meth == "schurian" else meth)
        else:
            after = tracer._after(span, meth)
        setattr(cls, meth, tracer.wrap(span, vars(cls)[meth], after=after))

    counters = (
        (modules, mod["quiver"], "euler_form", "quiver.euler_form.calls", None),
        # random_rep is wrapped by now; count the draws of sample_exceptional_rep
        ([mod["decompose"]], mod["reps"], "random_rep", "decompose.sample_exceptional.draws",
         lambda parent: parent == "decompose.sample_exceptional"),
    )
    for where, module, fn_name, name, when in counters:
        original = getattr(module, fn_name, None)
        if original is not None:
            _patch_everywhere(where, original, tracer.count(name, original, when))
    oracle = getattr(mod["decompose"], "Oracle", None)
    if oracle is not None:
        oracle.__init__ = tracer.count(
            "decompose.canonical.oracles",
            oracle.__init__,
            when=lambda parent: parent == "decompose.canonical",
        )
    sympy.factor_list = tracer.wrap("poly.factor", sympy.factor_list)


SPAN_NAMES = sorted({s for *_, s in FUNCTION_SPANS} | {s for *_, s in METHOD_SPANS} | {"poly.factor"})


def layer_metrics(tracer: Tracer):
    """Per-layer values (without units) from one traced pass."""
    t, c = tracer, tracer.counts
    out = {f"{name}.self_s": t.self_s[name] for name in SPAN_NAMES}
    for name in SPAN_NAMES:
        if name not in ("reps.morphism", "decompose.oracle"):  # reported as built / queries below
            out[f"{name}.calls"] = t.calls[name]
    out["linalg.elim.fp_cells"] = c["linalg.elim.fp_cells"]
    out["linalg.elim.q_cells"] = c["linalg.elim.q_cells"]
    out["linalg.elim.max_cells"] = t.max_cells
    for key in (
        "linalg.incremental.adds",
        "reps.d_matrix.cells",
        "reps.indecomposable.unknown",
        "gluing.ext_basis.elements",
        "quiver.euler_form.calls",
        "decompose.sample_exceptional.draws",
    ):
        out[key] = c[key]
    out["reps.morphism.built"] = t.calls["reps.morphism"]
    tries = t.calls["decompose.generic_summands"]
    canonical = t.calls["decompose.canonical"]
    out["decompose.canonical.tries"] = tries
    out["decompose.canonical.escalations"] = max(0, c["decompose.canonical.oracles"] - canonical)
    accepted = canonical - t.errors["decompose.canonical"]
    out["decompose.canonical.accept_ratio"] = accepted / tries if tries else 0.0
    queries = misses = 0
    for kind in ("hom", "schur"):
        for what in ("queries", "misses"):
            out[f"decompose.oracle.{kind}.{what}"] = c[f"decompose.oracle.{kind}.{what}"]
        queries += c[f"decompose.oracle.{kind}.queries"]
        misses += c[f"decompose.oracle.{kind}.misses"]
    out["decompose.oracle.hit_ratio"] = 1 - misses / queries if queries else 0.0
    out["decompose.oracle.cross_repeat_ratio"] = c["decompose.oracle.cross_repeats"] / misses if misses else 0.0
    return out


def write_spans(tracer: Tracer, path):
    """One tab-separated line per span: index, parent index, name, start, end (seconds)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index\tparent\tname\tstart_s\tend_s\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            handle.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
