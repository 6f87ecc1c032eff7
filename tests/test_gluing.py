import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    blocks_to_vector,
    elementary_bundle,
    fractional_conjugate,
    reference_apply_F,
    reference_apply_loop_F,
    reference_basis_is_independent,
    reference_check_theta_iso,
    reference_restrict_to_tail,
    reference_tree_shaped_ext_basis,
)
from quiverglue.cli import SUB8_ROOTS
from quiverglue.decompose import Oracle, OracleConfig, sample_exceptional_rep
from quiverglue.fixtures import load_quiver, load_rep
from quiverglue.gluing import (
    ExtBasisElement,
    _ext_basis,
    apply_F,
    apply_F_mor,
    basis_is_independent,
    build_gluing,
    build_loop_gluing,
    check_elementary,
    check_theorem36,
    check_theta_iso,
    format_bases,
    format_gluing,
    glued_dims,
    loop_quiver,
    parse_bases,
    restrict_to_tail,
    tree_shaped_ext_basis,
)
from quiverglue.linalg import FieldMismatchError, Matrix, PrimeField, QQ
from quiverglue.reps import (
    Morphism,
    RepError,
    Representation,
    bundle_coordinate,
    bundle_space_dim,
    compose,
    ext_dim,
    hom_dim,
    hom_space,
    identity_morphism,
    indecomposable,
    parse_rep,
    random_rep,
)
from quiverglue.textfmt import ParseError


def sub4_gluing():
    return build_gluing([load_rep("Malpha"), load_rep("Mbeta")])


def qm_rep(g, dims, a_rows, b_rows):
    maps = (
        Matrix.from_rows(a_rows, QQ, cols=dims[0]),
        Matrix.from_rows(b_rows, QQ, cols=dims[1]),
    )
    return Representation(g.qm, QQ, dims, maps)


def test_tree_basis_m_self_extensions():
    m = load_rep("M")
    basis = tree_shaped_ext_basis(m, m)
    coords = [(e.arrow, e.row + 1, e.col + 1) for e in basis]
    assert coords == [
        ("a", 1, 1),
        ("a", 2, 1),
        ("b", 1, 2),
        ("b", 3, 2),
        ("c", 1, 2),
        ("c", 3, 2),
    ]


def test_tree_basis_empty_when_ext_zero():
    ma = load_rep("Malpha")
    assert ext_dim(ma, ma) == 0
    assert tree_shaped_ext_basis(ma, ma) == []


def test_tree_basis_sub4_pair():
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    basis = tree_shaped_ext_basis(ma, mb)
    assert [(e.arrow, e.row, e.col) for e in basis] == [("r1", 0, 0)]


def test_build_gluing_sub4_quiver_shape():
    g = sub4_gluing()
    assert g.qm.vertices == ("m1", "m2")
    pairs = sorted((a.source, a.target) for a in g.qm.arrows)
    assert pairs == [("m1", "m2"), ("m2", "m1")]


def test_build_gluing_single_exceptional():
    g = build_gluing([load_rep("Malpha")])
    assert g.qm.n == 1 and len(g.qm.arrows) == 0


def test_build_gluing_rejects_bad_basis():
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    # the (2,1) basis is missing entirely, so the supplied set is not a basis
    bad = [ExtBasisElement("r1", 0, 0, i=1, j=2, l=1)]
    with pytest.raises(RepError) as err:
        build_gluing([ma, mb], bases=bad)
    assert "(2,1)" in str(err.value).replace(" ", "")


def test_apply_F_simple_recovers_member():
    g = sub4_gluing()
    s1 = Representation(g.qm, QQ, (1, 0), (Matrix.zeros(0, 1, QQ), Matrix.zeros(1, 0, QQ)))
    fx = apply_F(g, s1)
    ma = load_rep("Malpha")
    assert fx.dims == ma.dims
    assert all(fx.map_for(a.name) == ma.map_for(a.name) for a in ma.quiver.arrows)


def test_apply_F_dims_formula_and_indecomposability():
    g = sub4_gluing()
    x = qm_rep(g, (1, 2), [[1], [0]], [[0, 1]])
    fx = apply_F(g, x)
    assert fx.dims == glued_dims(g, x.dims) == (3, 1, 1, 2, 2)
    assert indecomposable(x).tag == "indecomposable"
    assert indecomposable(fx).tag == "indecomposable"


def test_functor_fullness_and_faithfulness_desk_scale():
    g = sub4_gluing()
    x = qm_rep(g, (1, 1), [[1]], [[0]])
    y = qm_rep(g, (1, 2), [[1], [0]], [[0, 1]])
    fx, fy = apply_F(g, x), apply_F(g, y)
    assert hom_dim(x, y) == hom_dim(fx, fy)
    assert hom_dim(y, x) == hom_dim(fy, fx)
    for f in hom_space(x, y):
        if not f.is_zero():
            assert not apply_F_mor(g, f).is_zero()


def test_functor_laws():
    g = sub4_gluing()
    x = qm_rep(g, (1, 2), [[1], [0]], [[0, 1]])
    fid = apply_F_mor(g, identity_morphism(x))
    assert fid.blocks == identity_morphism(apply_F(g, x)).blocks
    endos = hom_space(x, x)
    for f in endos:
        for h in endos:
            assert apply_F_mor(g, compose(f, h)).blocks == compose(
                apply_F_mor(g, f), apply_F_mor(g, h)
            ).blocks


def test_check_elementary():
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    assert check_elementary([ma, mb]).ok
    dup = check_elementary([ma, ma])
    assert not dup.ok
    s_q1 = Representation.simple(ma.quiver, "q1")
    s_q2 = Representation.simple(ma.quiver, "q2")
    assert check_elementary([s_q1, s_q2]).ok


def test_check_theorem36_r2_theta_c():
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    report = check_theorem36([mb, ma])
    assert "c" in report.theta_conditions


def test_check_theorem36_simples_pass():
    q = load_quiver("S4")
    seq = [Representation.simple(q, "q0"), Representation.simple(q, "q1")]
    report = check_theorem36(seq)
    assert report.ok


def test_check_theta_iso_r2_true():
    g = sub4_gluing()
    x = qm_rep(g, (1, 2), [[1], [0]], [[0, 1]])
    assert check_theta_iso(g, x) is True


def test_check_theta_iso_requires_dim_one_at_m1():
    g = sub4_gluing()
    x = qm_rep(g, (2, 1), [[0, 1]], [[1], [0]])
    with pytest.raises(RepError):
        check_theta_iso(g, x)


def test_loop_gluing_reproduces_m_prime():
    m = load_rep("M")
    lg = build_loop_gluing(m)
    assert len(lg.bases) == 6
    scalars = (1, 1, 0, 1, 1, 1)
    maps = tuple(Matrix.from_rows([[QQ.coerce(s)]], QQ) for s in scalars)
    x = Representation(lg.qm, QQ, (1,), maps)
    mp = apply_F(lg, x)
    assert mp.map_for("a").row_lists() == [[1, 0], [1, 0], [0, 1]]
    assert mp.map_for("b").row_lists() == [[1, 0], [0, 1], [0, 1]]
    assert mp.map_for("c").row_lists() == [[0, 1], [1, 0], [0, 1]]
    assert indecomposable(mp).tag == "decomposable"


def test_loop_gluing_zero_scalars_recover_m():
    m = load_rep("M")
    lg = build_loop_gluing(m)
    maps = tuple(Matrix.zeros(1, 1, QQ) for _ in range(6))
    x = Representation(lg.qm, QQ, (1,), maps)
    fx = apply_F(lg, x)
    assert all(fx.map_for(a.name) == m.map_for(a.name) for a in m.quiver.arrows)


def test_loop_gluing_dimension_formula():
    m = load_rep("M")
    lg = build_loop_gluing(m)
    maps = tuple(Matrix.identity(2, QQ) for _ in range(6))
    x = Representation(lg.qm, QQ, (2,), maps)
    assert apply_F(lg, x).dims == (4, 6)


def test_m_prime_printed_idempotent():
    m = load_rep("M")
    lg = build_loop_gluing(m)
    maps = tuple(Matrix.from_rows([[QQ.coerce(s)]], QQ) for s in (1, 1, 0, 1, 1, 1))
    mp = apply_F(lg, Representation(lg.qm, QQ, (1,), maps))
    blocks = (
        Matrix.from_rows([[0, 1], [0, 1]], QQ),
        Matrix.from_rows([[0, 0, 1], [0, 0, 1], [0, 0, 1]], QQ),
    )
    g = Morphism(mp, mp, blocks)
    assert compose(g, g).blocks == g.blocks
    assert not g.is_zero()
    assert g.blocks != identity_morphism(mp).blocks


def test_bases_serialization_roundtrip():
    g = sub4_gluing()
    text = format_bases(g.bases)
    assert parse_bases(text) == list(g.bases)
    assert "extbasis 1 2 1 r1 1 1" in text


@pytest.mark.parametrize(
    "line", ["extbasis 1_0 \u0662 1 r1 1 1", "extbasis 1 2 1 r1 1_0 1", "extbasis 1 2 1 r1 1 \u0661"]
)
def test_bases_reject_non_ascii_integer_fields(line):
    # int() read "1_0" as 10 and an Arabic-Indic 2 as 2
    with pytest.raises(ParseError, match="line 1: non-integer field in extbasis line"):
        parse_bases(line + "\n")


def test_format_gluing_parseable_quiver():
    from quiverglue.quiver import parse_quiver

    g = sub4_gluing()
    assert parse_quiver(format_gluing(g)) == g.qm


def test_ext_class_nontriviality():
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    e = tree_shaped_ext_basis(ma, mb)[0]
    assert basis_is_independent(ma, mb, [e])


# -- Ext-class independence on pivot columns against the IncrementalRank reference


def _random_q_rep(q, dims, rng):
    maps = []
    for s, t in q.arrow_indices:
        cells = dims[t] * dims[s]
        maps.append(Matrix(dims[t], dims[s], [rng.randint(-2, 2) for _ in range(cells)], QQ))
    return Representation(q, QQ, dims, tuple(maps))


RANDOM_PAIRS = (
    ("K2", (2, 2), (1, 1)),
    ("K3", (1, 2), (2, 1)),
    ("S4", (1, 1, 1, 0, 0), (1, 0, 0, 1, 1)),
    ("S4", (2, 1, 1, 1, 1), (1, 1, 0, 1, 0)),
    ("S4", (0, 1, 1, 0, 0), (2, 0, 0, 0, 0)),
)


def _independence_pairs():
    """(X, Y) over Q and F_p: fixture pairs, seeded random reps, zero dimensions."""
    fixtures = [load_rep(n) for n in ("M", "X0", "X1", "Malpha", "Mbeta")]
    for x in fixtures:
        for y in fixtures:
            if x.quiver == y.quiver:
                yield x, y
    # fixture pairs carried along base changes with fractional entries
    frac = random.Random(17)
    for x in fixtures:
        for y in fixtures:
            if x.quiver == y.quiver:
                yield fractional_conjugate(x, frac), fractional_conjugate(y, frac)
    rng = random.Random(7)
    for name, da, db in RANDOM_PAIRS:
        q = load_quiver(name)
        yield _random_q_rep(q, da, rng), _random_q_rep(q, db, rng)
        for p in (2, 3, 101):
            yield random_rep(q, da, p, 1), random_rep(q, db, p, 2)
    m = load_rep("M")
    zero = Representation.zero_rep(m.quiver, (0, 0))
    yield from ((zero, m), (m, zero), (zero, zero))
    yield Representation.zero_rep(m.quiver, (2, 0)), Representation.zero_rep(m.quiver, (0, 3))


def test_ext_bases_need_a_loop_free_quiver_and_independence_does_not():
    rng = random.Random(4)
    q = loop_quiver(2)
    x, y = _random_q_rep(q, (2,), rng), _random_q_rep(q, (1,), rng)
    with pytest.raises(RepError, match="loop-free"):
        tree_shaped_ext_basis(x, y)
    with pytest.raises(RepError, match="loop-free"):
        _ext_basis(x, y, [ExtBasisElement("l1", 0, 0)], "basis")
    elements = [ExtBasisElement(a, 0, c) for a in ("l1", "l2") for c in range(2)]
    verdicts = set()
    for trial in ([], elements[:1], elements, elements[::-1], elements[1:3]):
        verdict = basis_is_independent(x, y, trial)
        assert verdict == reference_basis_is_independent(x, y, trial)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_ext_independence_matches_incremental_rank_reference():
    rng = random.Random(3)
    nonempty = 0
    for x, y in _independence_pairs():
        basis = tree_shaped_ext_basis(x, y)
        assert basis == reference_tree_shaped_ext_basis(x, y)
        nonempty += bool(basis)
        q = x.quiver
        elementary = [
            ExtBasisElement(a.name, r, c)
            for a in q.arrows
            for r in range(y.dims[q.index(a.target)])
            for c in range(x.dims[q.index(a.source)])
        ]
        trials = [[], basis, basis + elementary[:1], elementary[::-1]]
        for _ in range(6):
            size = rng.randint(0, min(len(elementary), len(basis) + 1))
            trials.append(rng.sample(elementary, size))
        for elements in trials:
            assert basis_is_independent(x, y, elements) == reference_basis_is_independent(
                x, y, elements
            )
    assert nonempty >= 10


def _theta_cases():
    """(gluing, X) pairs with dim X_{m_1} = 1, over Q and F_p."""
    rng = random.Random(9)
    q = load_quiver("S4")
    simples = [Representation.simple(q, v) for v in ("q0", "q1", "q2", "q3")]
    reversed_sub4 = build_gluing([load_rep("Mbeta"), load_rep("Malpha")])
    # three members whose tail Q(Malpha, Mbeta) has arrows both ways
    ma, mb, s0 = load_rep("Malpha"), load_rep("Mbeta"), simples[0]
    three = (build_gluing([s0, ma, mb]), build_gluing([ma, s0, mb]), build_gluing([mb, ma, s0]))
    # members and X with fractional entries
    fractional = build_gluing([fractional_conjugate(m, rng) for m in (ma, mb, s0)])
    for g in (sub4_gluing(), reversed_sub4, build_gluing(simples)) + three + (fractional,):
        for _ in range(6):
            dims = (1,) + tuple(rng.randint(0, 2) for _ in range(g.r - 1))
            x = _random_q_rep(g.qm, dims, rng)
            yield g, fractional_conjugate(x, rng) if g is fractional else x
    for p in (2, 3, 101):
        dims = [(1, 0, 0, 0, 0), (1, 1, 1, 0, 0), (0, 0, 0, 1, 1)]
        g = build_gluing([random_rep(q, d, p, k) for k, d in enumerate(dims)])
        for seed in range(4):
            dims = (1,) + tuple(rng.randint(0, 2) for _ in range(g.r - 1))
            yield g, random_rep(g.qm, dims, p, seed)


def test_check_theta_iso_matches_incremental_rank_reference():
    verdicts = set()
    for g, x in _theta_cases():
        verdict = check_theta_iso(g, x)
        assert verdict == reference_check_theta_iso(g, x)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# -- the one entry-writing gluing functor against the block-grid and loop references


def _over(x, field):
    """x with its integer entries read in another field."""
    maps = tuple(Matrix(m.rows, m.cols, list(m.entries), field) for m in x.maps)
    return Representation(x.quiver, field, x.dims, maps)


def _sequences():
    """Gluing sequences of 2, 3 and 4 members over Q, F_2 and F_101."""
    s4, k3 = load_quiver("S4"), load_quiver("K3")
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    simples = [Representation.simple(s4, v) for v in ("q0", "q1", "q2", "q3")]
    rng = random.Random(11)
    yield [ma, mb]
    yield [mb, ma]
    yield [simples[0], ma, mb]
    yield [_random_q_rep(k3, d, rng) for d in ((1, 1), (0, 1), (1, 2))]
    yield simples
    for p in (2, 101):
        field = PrimeField(p)
        yield [_over(ma, field), _over(mb, field)]
        yield [_over(simples[0], field), _over(ma, field), _over(mb, field)]
        s4_dims = ((1, 0, 0, 0, 0), (1, 1, 1, 0, 0), (0, 0, 0, 1, 1))
        yield [random_rep(s4, d, p, k) for k, d in enumerate(s4_dims)]
        yield [random_rep(k3, d, p, k) for k, d in enumerate(((1, 1), (1, 0), (0, 1)))]
        s8 = load_quiver("S8")
        # over F_2, seeds 0-2 draw no exceptional module of dimension (2,1,1,1,0,0,2,2,0)
        oracle = Oracle(s8, OracleConfig(prime=p, seed=3 if p == 2 else 0))
        yield [sample_exceptional_rep(oracle, beta, salt=i) for i, beta in enumerate(SUB8_ROOTS)]


def _qm_reps(g, rng, count):
    """Representations of Q(M) with dimensions 0-3 at each vertex, in g's field."""
    for k in range(count):
        dims = tuple(rng.randint(0, 3) for _ in range(g.qm.n))
        if g.field == QQ:
            yield _random_q_rep(g.qm, dims, rng)
        else:
            yield random_rep(g.qm, dims, g.field.p, k)


def test_apply_F_matches_block_grid_reference():
    rng = random.Random(5)
    sizes = set()
    for reps in _sequences():
        g = build_gluing(reps)
        sizes.add((g.r, len(g.qm.arrows) > 0, g.field))
        for x in _qm_reps(g, rng, 4):
            assert apply_F(g, x) == reference_apply_F(g, x)
            if g.r >= 3:
                g2, x2 = restrict_to_tail(g, x)
                ref_g2, ref_x2 = reference_restrict_to_tail(g, x)
                assert (g2, x2) == (ref_g2, ref_x2)
        # a representation over another field (no sequence is over F_3): both
        # raise the same error, naming both fields
        other = random_rep(g.qm, (1,) * g.qm.n, 3, 0)
        raised = []
        for fn in (apply_F, reference_apply_F):
            with pytest.raises(FieldMismatchError) as exc:
                fn(g, other)
            raised.append((str(exc.value), exc.value.fields))
        expected = (f"field mismatch: {g.field.name} vs F_3", (g.field, PrimeField(3)))
        assert raised[0] == raised[1] == expected
    assert {r for r, _, _ in sizes} == {2, 3, 4}
    assert {(r, f) for r, arrows, f in sizes if r >= 3 and arrows} >= {
        (3, QQ), (3, PrimeField(2)), (3, PrimeField(101)), (4, PrimeField(2)), (4, PrimeField(101))
    }


# a Schurian K3 module whose self-extension classes sit where its maps are nonzero
K3_12 = "rep N over Q\nquiver K3\ndim q 1\ndim qp 2\nmap a 2x1\n1\n0\nmap b 2x1\n0\n1\nmap c 2x1\n1\n1\n"


def test_loop_gluing_matches_loop_functor_reference():
    rng = random.Random(6)
    modules = (load_rep("M"), parse_rep(K3_12, load_quiver("K3")))
    for m, field in itertools.product(modules, (QQ, PrimeField(2), PrimeField(101))):
        mf = _over(m, field)
        tree = tree_shaped_ext_basis(mf, mf)
        for basis in (None, tree[::-1]):
            lg = build_loop_gluing(mf, basis)
            assert lg.reps == (mf,) and len(lg.bases) == ext_dim(mf, mf) == len(lg.qm.arrows)
            assert {(e.i, e.j) for e in lg.bases} == {(1, 1)}
            for d in range(4):
                for _ in range(2):
                    if field == QQ:
                        x = _random_q_rep(lg.qm, (d,), rng)
                    else:
                        x = random_rep(lg.qm, (d,), field.p, rng.randrange(100))
                    assert apply_F(lg, x) == reference_apply_loop_F(lg, x)


def test_bundle_coordinate_matches_dense_elementary_bundle():
    checked = 0
    for x, y in _independence_pairs():
        q = x.quiver
        n = bundle_space_dim(x, y)
        seen = set()
        for a, (s, t) in zip(q.arrows, q.arrow_indices):
            rows, cols = y.dims[t], x.dims[s]
            for r in range(-1, rows + 2):
                for c in range(-1, cols + 2):
                    pos = bundle_coordinate(x, y, a.name, r, c)
                    if not (0 <= r < rows and 0 <= c < cols):
                        assert pos is None
                        continue
                    vec = blocks_to_vector(elementary_bundle(x, y, a.name, r, c).blocks)
                    assert vec == [int(k == pos) for k in range(n)]
                    seen.add(pos)
                    checked += 1
        assert seen == set(range(n))
        assert bundle_coordinate(x, y, "no such arrow", 0, 0) is None
    assert checked > 100
