"""Command-line front end: file loading, per-command dispatch, reproduction driver.

Exit codes: 0 success, 1 input error, 2 verification failure, an
undecided result (an exceptional-sequence search that ran out of budget, a
perpendicular-category search that ran out of its --bound or budget, or
sampling over F_p that found no answer where a larger prime may find one), or
a state the exact canonical decomposition rules out (a program defect).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import lru_cache

from . import fixtures
from .decompose import (
    BoundExhaustedError,
    DecomposeError,
    MergeDefectError,
    Oracle,
    OracleConfig,
    SamplingError,
    canonical_decomposition,
    exceptional_sequence_decomposition,
    perp_simples,
    sample_exceptional_rep,
    verify_reduced_sequence,
)
from .gluing import (
    apply_F,
    apply_F_mor,
    build_gluing,
    build_loop_gluing,
    check_theorem36,
    check_theta_iso,
    format_bases,
    format_gluing,
    parse_bases,
    tree_shaped_ext_basis,
)
from .linalg import DEFAULT_PRIME, FieldMismatchError, Matrix, ModulusError, QQ
from .quiver import (
    ParseError,
    QuiverError,
    classify_root,
    euler_form,
    format_dimvector,
    parse_dimvector,
    parse_quiver,
)
from .reps import (
    Morphism,
    compose,
    RepError,
    Representation,
    ext_dim,
    format_morphism,
    format_rep,
    hom_dim,
    indecomposable,
    parse_morphism,
    parse_rep,
)
from .treemod import (
    TreeError,
    coefficient_quiver,
    format_dot,
    parse_fragment,
    push_down,
)
from .textfmt import entries, integer


class InputError(ValueError):
    pass


class VerificationFailure(Exception):
    """Raised when a computed value disagrees with an asserted expectation."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = tuple(lines)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_quiver(spec):
    """A quiver from a bundled fixture name or a file path; None when no -q was given."""
    if spec is None:
        return None
    if spec in fixtures.QUIVER_FILES:
        return fixtures.load_quiver(spec)
    if os.path.exists(spec):
        return parse_quiver(_read_text(spec))
    raise InputError(
        f"unknown quiver {spec!r}: not a fixture name "
        f"({', '.join(sorted(fixtures.QUIVER_FILES))}) and not a file"
    )


def _load_rep(spec, quiver=None):
    """A representation from a bundled fixture name or a file path."""
    if spec in fixtures.REP_FILES:
        rep = fixtures.load_rep(spec)
        if quiver is not None and rep.quiver != quiver:
            raise InputError(f"fixture representation {spec!r} lives on another quiver")
        return rep
    if os.path.exists(spec):
        if quiver is None:
            raise InputError(f"a quiver (-q) is required to load {spec}")
        return parse_rep(_read_text(spec), quiver)
    raise InputError(
        f"unknown representation {spec!r}: not a fixture name "
        f"({', '.join(sorted(fixtures.REP_FILES))}) and not a file"
    )


def _oracle_header(args, out):
    """Prints the samples/prime/seed header; returns the config of those and --bound, if taken.

    A non-prime --prime is an input error before any work, sampled or not.
    """
    config = OracleConfig(
        samples=args.samples, prime=args.prime, seed=args.seed, bound=getattr(args, "bound", None)
    )
    out.append(f"samples: {args.samples}")
    out.append(f"prime: {args.prime}")
    out.append(f"seed: {args.seed}")
    return config


def _same_field(*inputs):
    """An input error naming the first (name, field) input and the first over another field."""
    (name0, f0), *rest = inputs
    for name, f in rest:
        if f != f0:
            raise InputError(f"field mismatch: {name0} is over {f0.name}, {name} is over {f.name}")


def _vec(quiver, text):
    try:
        return quiver.check_dimvector(parse_dimvector(text))
    except (ParseError, QuiverError) as exc:
        raise InputError(str(exc)) from exc


# -- commands -------------------------------------------------------------


def cmd_euler(args, out):
    q = _load_quiver(args.quiver)
    out.append(str(euler_form(q, _vec(q, args.a), _vec(q, args.b))))


def cmd_classify(args, out):
    q = _load_quiver(args.quiver)
    a = _vec(q, args.a)
    cls = classify_root(q, a)
    out.append(f"vector: {format_dimvector(a)}")
    out.append(f"class: {cls.tag}")
    out.append("word: " + (" ".join(cls.word) if cls.word else "-"))
    out.append(f"terminal: {format_dimvector(cls.terminal)}")


def cmd_homext(args, out):
    q = _load_quiver(args.quiver)
    x = _load_rep(args.x, q)
    y = _load_rep(args.y, q)
    _same_field((args.x, x.field), (args.y, y.field))
    h, e, chi = hom_dim(x, y), ext_dim(x, y), euler_form(x.quiver, x.dims, y.dims)
    out.extend([f"hom: {h}", f"ext: {e}", f"euler: {chi}"])
    if h - e != chi:
        raise VerificationFailure(["euler identity failed on this pair"])


def cmd_extbasis(args, out):
    q = _load_quiver(args.quiver)
    x = _load_rep(args.x, q)
    y = _load_rep(args.y, q)
    _same_field((args.x, x.field), (args.y, y.field))
    basis = tree_shaped_ext_basis(x, y)
    out.append(f"ext: {len(basis)}")
    out.extend(format_bases(basis).splitlines())


def _load_bases(spec):
    """Ext classes from a --bases file; None when no file was given."""
    return parse_bases(_read_text(spec)) if spec else None


def _gluing_from_args(args):
    q = _load_quiver(args.quiver)
    reps = [_load_rep(spec, q) for spec in args.reps]
    _same_field(*((spec, m.field) for spec, m in zip(args.reps, reps)))
    return build_gluing(reps, bases=_load_bases(args.bases))


def _load_qm_rep(g, member, spec):
    """A representation of Q(M) read from spec, over the field of M's first member, named member."""
    x = parse_rep(_read_text(spec), g.qm)
    _same_field((member, g.field), (spec, x.field))
    return x


def cmd_qm(args, out):
    g = _gluing_from_args(args)
    out.extend(format_gluing(g).splitlines())


def cmd_glue(args, out):
    g = _gluing_from_args(args)
    fx = apply_F(g, _load_qm_rep(g, args.reps[0], args.x))
    out.extend(format_rep(fx, name=args.name).splitlines())


def cmd_glue_mor(args, out):
    g = _gluing_from_args(args)
    x = _load_qm_rep(g, args.reps[0], args.x)
    y = _load_qm_rep(g, args.reps[0], args.y)
    try:
        f = parse_morphism(_read_text(args.mor), x, y)
    except FieldMismatchError as exc:  # x and y share a field, so the morphism's differs
        _same_field((args.x, x.field), (args.mor, exc.fields[1]))
        raise
    ff = apply_F_mor(g, f)
    out.extend(format_morphism(ff, name=args.name).splitlines())


def cmd_loopglue(args, out):
    q = _load_quiver(args.quiver)
    m = _load_rep(args.rep, q)
    lg = build_loop_gluing(m, basis=_load_bases(args.bases))
    n = len(lg.bases)
    out.append(f"loops: {n}")
    if args.scalars is not None:
        values = [v.strip() for v in args.scalars.split(",")]
        if len(values) != n:
            raise InputError(f"expected {n} scalars, got {len(values)}")
        scalars = entries(values, m.field, "bad entry in --scalars")
        maps = tuple(Matrix.from_rows([[v]], m.field) for v in scalars)
        x = Representation(lg.qm, m.field, (1,), maps, name="X")
    elif args.x:
        x = _load_qm_rep(lg, args.rep, args.x)
    else:
        raise InputError("loopglue needs --scalars or an L(n) representation via -x")
    fx = apply_F(lg, x)
    out.extend(format_rep(fx, name=args.name).splitlines())


def cmd_indec(args, out):
    q = _load_quiver(args.quiver)
    x = _load_rep(args.rep, q)
    verdict = indecomposable(x, seed=args.seed)
    out.append(f"verdict: {verdict.tag}")
    if verdict.witness is not None:
        out.extend(format_morphism(verdict.witness, name="witness").splitlines())


def cmd_schur(args, out):
    q = _load_quiver(args.quiver)
    x = _load_rep(args.rep, q)
    d = hom_dim(x, x)
    out.append(f"end_dim: {d}")
    out.append(f"schurian: {'yes' if d == 1 else 'no'}")


def cmd_candecomp(args, out):
    q = _load_quiver(args.quiver)
    a = _vec(q, args.a)
    decomp = canonical_decomposition(q, a, _oracle_header(args, out))
    out.extend(decomp.lines())


def cmd_excdecomp(args, out):
    q = _load_quiver(args.quiver)
    a = _vec(q, args.a)
    report = exceptional_sequence_decomposition(Oracle(q, _oracle_header(args, out)), a)
    out.extend(report.lines())
    if report.result == "unknown":
        raise VerificationFailure(["no certificate: the step-2 search ran out of budget"])
    if report.verification is not None and not report.verification.ok:
        raise VerificationFailure(["reduced-sequence verification failed"])


def cmd_perpsimples(args, out):
    q = _load_quiver(args.quiver)
    roots = [_vec(q, r) for r in args.roots]
    simples = perp_simples(Oracle(q, _oracle_header(args, out)), roots, side=args.side)
    out.append(f"side: {args.side}")
    for s in simples:
        out.append(f"simple {format_dimvector(s)}")


def cmd_coeffquiver(args, out):
    q = _load_quiver(args.quiver)
    x = _load_rep(args.rep, q)
    gamma = coefficient_quiver(x)
    if args.dot:
        out.extend(format_dot(gamma).splitlines())
        return
    for vq, i in gamma.vertices:
        out.append(f"vertex {vq} {i}")
    for rho, (vq, i), (wq, j), val in gamma.arrows:
        out.append(f"arrow {rho} {vq} {i} {wq} {j} {x.field.format(val)}")
    out.append(f"arrows: {gamma.arrow_count}")
    out.append(f"tree: {'yes' if gamma.is_tree() else 'no'}")


def cmd_pushdown(args, out):
    q = _load_quiver(args.quiver)
    fragment = parse_fragment(_read_text(args.fragment), q)
    out.append(f"tree_shaped: {'yes' if fragment.is_tree_shaped() else 'no'}")
    x = push_down(fragment)
    out.extend(format_rep(x, name=args.name).splitlines())


def cmd_check_seq(args, out):
    q = _load_quiver(args.quiver)
    target = _vec(q, args.target)
    roots, coeffs = [], []
    for term in args.terms:
        vec, _, mult = term.rpartition("x")
        if not vec or not mult:
            raise InputError(f"expected '<vector>x<coefficient>', got {term!r}")
        roots.append(_vec(q, vec))
        coeffs.append(integer(mult))
        if coeffs[-1] is None:
            raise InputError(f"non-integer coefficient in {term!r}")
    report = verify_reduced_sequence(Oracle(q, _oracle_header(args, out)), roots, coeffs, target)
    out.extend(report.lines())
    if not report.ok:
        raise VerificationFailure(["sequence verification failed"])


def cmd_check_theta(args, out):
    q = _load_quiver(args.quiver)
    reps = [_load_rep(spec, q) for spec in args.reps]
    _same_field(*((spec, m.field) for spec, m in zip(args.reps, reps)))
    report = check_theorem36(reps)
    out.extend(report.lines())
    failed = not report.ok
    if args.x:
        g = build_gluing(reps)
        x = _load_qm_rep(g, args.reps[0], args.x)
        iso = check_theta_iso(g, x)
        out.append(f"theta iso: {'yes' if iso else 'no'}")
        failed = failed or not iso
    if failed:
        raise VerificationFailure(["theorem 3.6 hypotheses do not hold"])


# -- reproduce ------------------------------------------------------------


def _expect(out, label, computed, expected):
    ok = computed == expected
    out.append(f"{label}: {computed}")
    if not ok:
        raise VerificationFailure(
            [f"MISMATCH {label}", f"  expected: {expected}", f"  computed: {computed}"]
        )


def _repro_k2_jordan(config, out):
    x0 = fixtures.load_rep("X0")
    x1 = fixtures.load_rep("X1")
    _expect(out, "X(0) verdict", indecomposable(x0).tag, "indecomposable")
    _expect(out, "X(1) verdict", indecomposable(x1).tag, "indecomposable")
    _expect(out, "X(0) arrow count", coefficient_quiver(x0).arrow_count, 3)
    _expect(out, "X(1) arrow count", coefficient_quiver(x1).arrow_count, 5)
    _expect(out, "X(0) tree", coefficient_quiver(x0).is_tree(), True)


def _arrow_counts(quiver):
    """The number of arrows s -> t, keyed "s->t", in the order of their first arrows."""
    return dict(Counter(f"{a.source}->{a.target}" for a in quiver.arrows))


def _k2_indec(g, dims, a_rows, b_rows):
    field = g.field
    da, db = dims
    maps = (
        Matrix.from_rows(a_rows, field, cols=da),
        Matrix.from_rows(b_rows, field, cols=db),
    )
    return Representation(g.qm, field, dims, maps, name="X")


def _repro_sub4_glue(config, out):
    malpha = fixtures.load_rep("Malpha")
    mbeta = fixtures.load_rep("Mbeta")
    g = build_gluing([malpha, mbeta])
    _expect(out, "Q(M) arrows", _arrow_counts(g.qm), {"m1->m2": 1, "m2->m1": 1})
    cases = [
        ((1, 2), [[1], [0]], [[0, 1]], (3, 1, 1, 2, 2)),
        ((2, 1), [[0, 1]], [[1], [0]], (3, 2, 2, 1, 1)),
        ((1, 1), [[1]], [[0]], (2, 1, 1, 1, 1)),
    ]
    for dims, a_rows, b_rows, fx_dims in cases:
        x = _k2_indec(g, dims, a_rows, b_rows)
        _expect(out, f"X{dims} verdict", indecomposable(x).tag, "indecomposable")
        fx = apply_F(g, x)
        _expect(out, f"FX{dims} dims", fx.dims, fx_dims)
        _expect(out, f"FX{dims} verdict", indecomposable(fx).tag, "indecomposable")
        _expect(out, f"X{dims} fullness", hom_dim(fx, fx), hom_dim(x, x))


SUB8_ROOTS = (
    (1, 0, 0, 0, 0, 0, 1, 1, 1),
    (2, 1, 1, 1, 0, 0, 2, 2, 0),
    (1, 0, 0, 0, 1, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 1, 0, 0, 1),
)

SUB8_ARROWS = {
    "m1->m3": 1,
    "m1->m4": 1,
    "m2->m1": 1,
    "m2->m3": 5,
    "m2->m4": 5,
    "m3->m2": 2,
    "m4->m2": 2,
}


def _repro_sub8_realroot(config, out):
    oracle = Oracle(fixtures.load_quiver("S8"), config)
    reps = [sample_exceptional_rep(oracle, beta, salt=i) for i, beta in enumerate(SUB8_ROOTS)]
    _expect(out, "Q(M) arrows", _arrow_counts(build_gluing(reps).qm), SUB8_ARROWS)


SUB5_SUMMANDS = (
    ((1, 0, 0, 0, 1, 1), 1),
    ((1, 0, 0, 1, 0, 1), 1),
    ((1, 0, 1, 0, 0, 1), 1),
    ((1, 1, 0, 0, 0, 1), 1),
    ((6, 2, 2, 2, 2, 4), 1),
)

SUB4_SUMMANDS = (((1, 1, 1, 0, 0), 1), ((2, 1, 1, 1, 1), 1))


def _repro_sub5_candecomp(config, out):
    q = fixtures.load_quiver("S5")
    decomp = canonical_decomposition(q, (10, 3, 3, 3, 3, 8), config)
    out.extend(decomp.lines())
    _expect(out, "summand multiset", tuple(sorted(decomp.summands)), SUB5_SUMMANDS)


def _repro_sub4_excseq(config, out):
    s4 = Oracle(fixtures.load_quiver("S4"), config)
    s5 = Oracle(fixtures.load_quiver("S5"), config)
    target = (3, 2, 2, 1, 1)
    decomp = s4.canonical(target)
    _expect(out, "canonical summands", tuple(sorted(decomp.summands)), SUB4_SUMMANDS)
    report = exceptional_sequence_decomposition(s4, target)
    out.extend(report.lines())
    _expect(out, "result", report.result, "sequence")
    _expect(out, "verification", report.verification.ok, True)
    ref_roots = [(1, 0, 1, 0, 0), (1, 0, 0, 1, 1), (0, 1, 0, 0, 0)]
    ref = verify_reduced_sequence(s4, ref_roots, [2, 1, 2], target)
    _expect(out, "reference sequence verification", ref.ok, True)
    report5 = exceptional_sequence_decomposition(s5, (10, 3, 3, 3, 3, 8))
    _expect(out, "isotropic result", report5.result, "trivial")


M_PRIME_MATRICES = {
    "a": [[1, 0], [1, 0], [0, 1]],
    "b": [[1, 0], [0, 1], [0, 1]],
    "c": [[0, 1], [1, 0], [0, 1]],
}

M_PRIME_IDEMPOTENT = ([[0, 1], [0, 1]], [[0, 0, 1], [0, 0, 1], [0, 0, 1]])


def _repro_loop_counterexample(config, out):
    m = fixtures.load_rep("M")
    _expect(out, "dim End(M)", hom_dim(m, m), 1)
    _expect(out, "dim Ext(M,M)", ext_dim(m, m), 6)
    lg = build_loop_gluing(m)
    out.extend(format_bases(lg.bases).splitlines())
    scalars = (1, 1, 0, 1, 1, 1)
    maps = tuple(Matrix.from_rows([[QQ.coerce(s)]], QQ) for s in scalars)
    x = Representation(lg.qm, QQ, (1,), maps, name="X")
    _expect(out, "X verdict", indecomposable(x).tag, "indecomposable")
    mp = apply_F(lg, x)
    for name, rows in M_PRIME_MATRICES.items():
        expected = Matrix.from_rows(rows, QQ)
        _expect(out, f"M' map {name}", mp.map_for(name), expected)
    blocks = tuple(Matrix.from_rows(rows, QQ) for rows in M_PRIME_IDEMPOTENT)
    g = Morphism(mp, mp, blocks)  # endomorphism law checked on construction
    gg = compose(g, g)
    _expect(out, "g idempotent", gg.blocks == g.blocks, True)
    _expect(out, "g nontrivial", not g.is_zero() and any(
        b != Matrix.identity(b.rows, QQ) for b in g.blocks
    ), True)
    verdict = indecomposable(mp)
    _expect(out, "M' verdict", verdict.tag, "decomposable")
    w = verdict.witness
    _expect(out, "witness idempotent", w is not None and compose(w, w).blocks == w.blocks
            and not w.is_zero(), True)
    out.append("M' decomposable: witness idempotent verified")


REPRODUCE = {
    "k2-jordan": _repro_k2_jordan,
    "sub4-glue": _repro_sub4_glue,
    "sub8-realroot": _repro_sub8_realroot,
    "sub5-candecomp": _repro_sub5_candecomp,
    "sub4-excseq": _repro_sub4_excseq,
    "loop-counterexample": _repro_loop_counterexample,
}


def cmd_reproduce(args, out):
    if args.id not in REPRODUCE:
        raise InputError(
            f"unknown reproduce id {args.id!r}; known: {', '.join(sorted(REPRODUCE))}"
        )
    out.append(f"reproduce: {args.id}")
    REPRODUCE[args.id](_oracle_header(args, out), out)
    out.append("status: ok")


# -- argument parsing ------------------------------------------------------


def _int(text):
    """The int an option value spells, by `textfmt.integer`."""
    value = integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _positive_int(text):
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@lru_cache(maxsize=None)
def _build_parser():
    # each command takes only the options it reads: any other is an unrecognized argument
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=_positive_int, default=5, help="Monte-Carlo samples")
    sampling.add_argument("--prime", type=_int, default=DEFAULT_PRIME, help="sampling prime")
    sampling.add_argument("--seed", type=_int, default=0, help="sampling seed")
    perp = argparse.ArgumentParser(add_help=False, parents=[sampling])
    perp.add_argument("--bound", type=_positive_int, default=None, help="perp search bound")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_int, default=0, help="witness search seed")

    parser = argparse.ArgumentParser(
        prog="quiverglue",
        description="Exact computations with glued quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, options=None, **kwargs):
        p = sub.add_parser(name, parents=[options] if options else [], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("euler", cmd_euler, help="Euler form of two dimension vectors")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("a")
    p.add_argument("b")

    p = add("classify", cmd_classify, help="classify a dimension vector as a root")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("a")

    p = add("homext", cmd_homext, help="dim Hom and dim Ext of two representations")
    p.add_argument("-q", "--quiver")
    p.add_argument("x")
    p.add_argument("y")

    p = add("extbasis", cmd_extbasis, help="tree-shaped Ext basis of a pair")
    p.add_argument("-q", "--quiver")
    p.add_argument("x")
    p.add_argument("y")

    p = add("qm", cmd_qm, help="glued quiver Q(M) of a sequence")
    p.add_argument("-q", "--quiver")
    p.add_argument("--bases", help="file of extbasis lines")
    p.add_argument("reps", nargs="+")

    p = add("glue", cmd_glue, help="apply the gluing functor to a Q(M) representation")
    p.add_argument("-q", "--quiver")
    p.add_argument("--bases")
    p.add_argument("-x", required=True, help="representation of Q(M)")
    p.add_argument("--name", default="FX")
    p.add_argument("reps", nargs="+")

    p = add("glue-mor", cmd_glue_mor, help="apply the gluing functor to a morphism")
    p.add_argument("-q", "--quiver")
    p.add_argument("--bases")
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.add_argument("-f", "--mor", required=True)
    p.add_argument("--name", default="Ff")
    p.add_argument("reps", nargs="+")

    p = add("loopglue", cmd_loopglue, help="apply the loop functor of a Schurian module")
    p.add_argument("-q", "--quiver")
    p.add_argument("--bases")
    p.add_argument("-x", help="representation of L(n)")
    p.add_argument("--scalars", help="comma list for a one-dimensional L(n) module")
    p.add_argument("--name", default="FX")
    p.add_argument("rep")

    p = add("indec", cmd_indec, seed, help="indecomposability verdict")
    p.add_argument("-q", "--quiver")
    p.add_argument("rep")

    p = add("schur", cmd_schur, help="endomorphism dimension / Schurian test")
    p.add_argument("-q", "--quiver")
    p.add_argument("rep")

    p = add("candecomp", cmd_candecomp, sampling, help="canonical decomposition of a vector")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("a")

    p = add("excdecomp", cmd_excdecomp, perp, help="reduced exceptional sequence decomposition")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("a")

    p = add("perpsimples", cmd_perpsimples, perp, help="simples of a perpendicular category")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.add_argument("roots", nargs="+")

    p = add("coeffquiver", cmd_coeffquiver, help="coefficient quiver in the standard basis")
    p.add_argument("-q", "--quiver")
    p.add_argument("--dot", action="store_true", help="emit DOT text")
    p.add_argument("rep")

    p = add("pushdown", cmd_pushdown, help="push a cover fragment down to the base quiver")
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("--name", default="X")
    p.add_argument("fragment")

    p = add(
        "check-seq", cmd_check_seq, sampling, help="verify a claimed reduced exceptional sequence"
    )
    p.add_argument("-q", "--quiver", required=True)
    p.add_argument("target")
    p.add_argument("terms", nargs="+", help="terms '<vector>x<coefficient>'")

    p = add("check-theta", cmd_check_theta, help="Theorem 3.6-style hypothesis checks")
    p.add_argument("-q", "--quiver")
    p.add_argument("-x", help="representation of Q(M) for the Theta isomorphism check")
    p.add_argument("reps", nargs="+")

    p = add("reproduce", cmd_reproduce, perp, help="run a scripted worked example")
    p.add_argument("id")

    return parser


def main(argv=None):
    """Run one command; returns its exit code (0, 1 or 2).

    The argument parser is built on the first call and reused by every later
    call in the process: parsing never modifies it, a failed parse included.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    out = []
    try:
        args.func(args, out)
    except VerificationFailure as exc:
        print("\n".join(out + list(exc.lines)))
        return 2
    except (SamplingError, BoundExhaustedError, MergeDefectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InputError, ParseError, QuiverError, RepError, TreeError, DecomposeError, ModulusError,
        FieldMismatchError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
