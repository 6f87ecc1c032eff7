import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    all_k2_reps,
    d_matrix_by_columns,
    field_elimination,
    fractional_conjugate,
    minimal_polynomial_of_matrix,
    reference_end_algebra,
    reference_hom_space,
    reference_indecomposable,
    split_by_idempotent,
)
from quiverglue import reps
from quiverglue.decompose import Oracle, OracleConfig
from quiverglue.fixtures import load_quiver, load_rep
from quiverglue.linalg import Matrix, PrimeField, QQ, block_diag, inverse
from quiverglue.quiver import ParseError, euler_form
from quiverglue.reps import (
    Morphism,
    RepError,
    Representation,
    _minimal_polynomial_coords,
    _spectral_split,
    compose,
    d_rows,
    direct_sum,
    end_algebra,
    ext_dim,
    format_morphism,
    format_rep,
    hom_dim,
    hom_space,
    identity_morphism,
    indecomposable,
    parse_morphism,
    parse_rep,
    random_rep,
)


def k2():
    return load_quiver("K2")


def rep(q, dims, maps, field=QQ):
    mats = tuple(Matrix.from_rows(rows, field, cols=dims[q.index(q.arrow(a.name).source)])
                 for a, rows in zip(q.arrows, maps))
    return Representation(q, field, dims, mats)


def test_fixture_m_matrices():
    m = load_rep("M")
    assert m.dims == (2, 3)
    assert m.map_for("a").row_lists() == [[0, 0], [0, 0], [0, 1]]
    assert m.map_for("b").row_lists() == [[1, 0], [0, 1], [0, 0]]
    assert m.map_for("c").row_lists() == [[0, 0], [1, 0], [0, 0]]


def test_hom_ext_euler_identity_on_fixtures():
    m = load_rep("M")
    assert hom_dim(m, m) == 1
    assert ext_dim(m, m) == 6
    assert hom_dim(m, m) - ext_dim(m, m) == euler_form(m.quiver, m.dims, m.dims)
    ma, mb = load_rep("Malpha"), load_rep("Mbeta")
    assert hom_dim(ma, mb) == 0 and ext_dim(ma, mb) == 1
    assert hom_dim(mb, ma) == 0 and ext_dim(mb, ma) == 1


def test_d_rows_shape():
    m = load_rep("M")
    cod, dom, rows = d_rows(m, m)
    # domain: vertex blocks 2*2 + 3*3 = 13; codomain: arrow blocks 3 * (3*2) = 18
    assert (cod, dom) == (18, 13)
    assert [len(row) for row in rows] == [13] * 18


def test_simple_and_zero():
    q = k2()
    s = Representation.simple(q, "q")
    assert s.dims == (1, 0)
    assert hom_dim(s, s) == 1
    z = Representation.zero_rep(q, (0, 0))
    assert z.is_zero()
    assert indecomposable(z).tag == "decomposable"


def test_morphism_validation():
    x = load_rep("X0")
    with pytest.raises(RepError):
        Morphism(x, x, (Matrix.identity(2, QQ),))
    bad = (Matrix.from_rows([[1, 1], [0, 1]], QQ), Matrix.identity(2, QQ))
    with pytest.raises(RepError):
        Morphism(x, x, bad)
    ident = identity_morphism(x)
    assert compose(ident, ident).blocks == ident.blocks


def test_indecomposable_fixtures():
    for name in ("M", "X0", "X1", "Malpha", "Mbeta"):
        assert indecomposable(load_rep(name)).tag == "indecomposable"


def test_direct_sum_decomposable_with_witness():
    x = direct_sum(load_rep("X0"), load_rep("X1"))
    v = indecomposable(x)
    assert v.tag == "decomposable"
    w = v.witness
    assert w is not None
    assert compose(w, w).blocks == w.blocks
    assert not w.is_zero()
    left, right, _base_change = split_by_idempotent(x, w)
    assert tuple(a + b for a, b in zip(left.dims, right.dims)) == x.dims


def test_indecomposable_field_endomorphism_ring():
    # End is the quadratic field Q[t]/(t^2 - t - 1): no rational idempotents,
    # so the representation is indecomposable over Q.
    q = k2()
    x = rep(q, (2, 2), ([[1, 0], [0, 1]], [[0, 1], [1, 1]]))
    end = end_algebra(x)
    assert end.dim == 2 and end.radical_dim == 0
    assert indecomposable(x).tag == "indecomposable"


def test_indecomposable_swap_pencil_decomposes():
    # B is the swap matrix: the splitting idempotents have entries 1/2.
    q = k2()
    x = rep(q, (2, 2), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]))
    v = indecomposable(x)
    assert v.tag == "decomposable" and v.witness is not None


def test_indecomposable_splits_y_plus_y_where_no_random_element_does():
    # Y + Y, Y the K2 module of dimension (1,2), in a basis where End = M_2(Q)
    # holds no basis or seeded random element at witness seeds 0 and 11 whose
    # minimal polynomial splits over Q: both answered `unknown` until the
    # annihilators of X's basis vectors were tried
    x = rep(k2(), (2, 4), ([[2, -1], [3, -2], [0, 1], [1, -1]], [[-3, 2], [-1, 1], [-4, 2], [-2, 2]]))
    end = end_algebra(x)
    assert end.dim == 4 and end.radical_dim == 0
    for seed in (0, 11):
        before = itertools.islice(reps._candidates(end, seed), end.dim + reps.MAX_WITNESS_ATTEMPTS)
        assert all(_spectral_split(end, end.identity_coords, g)[1] is None for g in before)
        v = indecomposable(x, seed=seed)
        assert v.tag == "decomposable", seed
        w = v.witness  # a Morphism: it commutes with both arrows
        assert compose(w, w).blocks == w.blocks
        assert not w.is_zero() and w.blocks != identity_morphism(x).blocks


def test_parse_format_roundtrip_rep():
    for name in ("M", "X0", "Malpha"):
        x = load_rep(name)
        assert parse_rep(format_rep(x), x.quiver) == x


def test_parse_rep_errors():
    q = k2()
    with pytest.raises(Exception) as err:
        parse_rep("rep X over Q\nquiver K2\ndim q 1\ndim qp 1\nmap a 2x2\n1 0\n0 1\n", q)
    assert "a" in str(err.value)


@pytest.mark.parametrize("modulus", ["abc", "6", "1"])
def test_parse_rep_rejects_bad_modulus(modulus):
    with pytest.raises(ParseError, match="line 1: bad modulus"):
        parse_rep(f"rep X over F {modulus}\nquiver K2\ndim q 1\n", k2())


def test_split_by_idempotent_rejects_a_nilpotent():
    # rank + nullity = 2 for any 2 x 2 block, so a count of image and kernel
    # columns let this through and gave two (1,0) summands
    x = rep(k2(), (2, 0), ([], []))
    e = Morphism(x, x, (Matrix.from_rows([[0, 1], [0, 0]], QQ), Matrix.zeros(0, 0, QQ)))
    with pytest.raises(RepError, match="not an idempotent"):
        split_by_idempotent(x, e)


def test_morphism_roundtrip():
    x = load_rep("X0")
    f = identity_morphism(x)
    text = format_morphism(f, name="f")
    assert parse_morphism(text, x, x).blocks == f.blocks


def test_hom_space_dimension_matches():
    m = load_rep("M")
    assert len(hom_space(m, m)) == hom_dim(m, m)


def test_random_rep_and_generic_values():
    q = load_quiver("S4")
    x = random_rep(q, (2, 1, 1, 1, 1), 101, 3)
    assert x.field == PrimeField(101)
    a, b = (1, 0, 1, 0, 0), (1, 0, 0, 1, 1)
    oracle = Oracle(q, OracleConfig(samples=3))
    assert oracle.hom(a, b) == 0
    assert oracle.ext(a, b) == 0
    assert oracle.hom(a, a) == 1


def test_prime_field_rep_indecomposable_unknown():
    q = k2()
    f = PrimeField(5)
    x = rep(q, (1, 1), ([[1]], [[1]]), field=f)
    assert indecomposable(x).tag == "unknown"


# -- End(X) in coordinates against the Morphism-based reference ------------------

FIXTURE_NAMES = ("M", "X0", "X1", "Malpha", "Mbeta")


def _reference_cases():
    fixtures = [load_rep(n) for n in FIXTURE_NAMES]
    yield from all_k2_reps(k2(), max_dim=2)
    yield from fixtures
    for a, b in itertools.combinations_with_replacement(fixtures, 2):
        if a.quiver == b.quiver:
            yield direct_sum(a, b)


def test_end_algebra_and_indecomposable_match_reference():
    cases = list(_reference_cases())
    assert len(cases) == 296 + 5 + 7
    for x in cases:
        assert_end_algebra_and_verdict_match_reference(x)


def assert_end_algebra_and_verdict_match_reference(x):
    end, ref = end_algebra(x), reference_end_algebra(x)
    assert end.basis == ref.basis
    assert end.structure == ref.structure
    assert end.identity_coords == ref.identity_coords
    assert end.radical_dim == ref.radical_dim
    verdict, expected = indecomposable(x), reference_indecomposable(x)
    assert verdict.tag == expected.tag
    if expected.witness is None:
        assert verdict.witness is None
    else:
        assert verdict.witness.blocks == expected.witness.blocks


def fractional_cases():
    """Fixtures and some K2 modules over Q, carried along base changes with
    non-unit pivots and fractional entries, and the direct sums of two of them
    on one quiver."""
    rng = random.Random(23)
    k2_sample = list(all_k2_reps(k2(), max_dim=2))[::29]
    base = [load_rep(n) for n in FIXTURE_NAMES] + k2_sample
    conjugated = [fractional_conjugate(x, rng) for x in base]
    sums = [
        direct_sum(a, b)
        for a, b in itertools.combinations(conjugated, 2)
        if a.quiver == b.quiver and a.total_dim() + b.total_dim() <= 7
    ]
    return conjugated + sums


def _has_denominators(blocks):
    return any(v.denominator > 1 for m in blocks for v in m.entries)


def test_hom_space_with_denominators_matches_reference():
    cases = fractional_cases()
    fractional_bases = 0
    for x, y in itertools.product(cases, repeat=2):
        if x.quiver != y.quiver or x.total_dim() + y.total_dim() > 9:
            continue
        basis = hom_space(x, y)
        assert [tuple(b.entries for b in f.blocks) for f in basis] == reference_hom_space(x, y)
        fractional_bases += any(_has_denominators(f.blocks) for f in basis)
    assert fractional_bases > 50  # the denominator path is taken


def assert_hom_ext_dims_match_reference(x, y):
    """hom_dim and ext_dim against dom and cod minus the rank of the column-by-column d."""
    d = d_matrix_by_columns(x, y)
    rank = len(field_elimination(d)[1])
    assert (hom_dim(x, y), ext_dim(x, y)) == (d.cols - rank, d.rows - rank)


def test_hom_ext_dims_with_denominators_match_reference():
    cases = fractional_cases()
    for x, y in itertools.product(cases, repeat=2):
        if x.quiver == y.quiver and x.total_dim() + y.total_dim() <= 9:
            assert_hom_ext_dims_match_reference(x, y)


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_fp_hom_ext_dims_match_reference(p):
    cases = (
        (load_quiver("K3"), (3, 1), (2, 3)),
        (load_quiver("K3"), (2, 2), (2, 2)),
        (load_quiver("S4"), (3, 2, 2, 1, 1), (2, 1, 1, 1, 1)),
        (load_quiver("S4"), (1, 1, 1, 0, 0), (1, 0, 0, 1, 1)),
        (k2(), (2, 2), (1, 1)),
    )
    for q, a, b in cases:
        for seed in range(3):
            x, y = random_rep(q, a, p, seed), random_rep(q, b, p, seed + 5)
            for u, v in itertools.product((x, y, direct_sum(x, y)), repeat=2):
                assert_hom_ext_dims_match_reference(u, v)


def test_end_algebra_and_indecomposable_with_denominators_match_reference():
    cases = fractional_cases()
    assert sum(_has_denominators(x.maps) for x in cases) > 30
    # End(X) bases with denominators, so end_algebra clears them
    assert sum(any(_has_denominators(f.blocks) for f in hom_space(x, x)) for x in cases) > 20
    for x in cases:
        assert_end_algebra_and_verdict_match_reference(x)
    assert {indecomposable(x).tag for x in cases} == {"indecomposable", "decomposable"}


def test_end_algebra_guard_rejects_a_basis_not_closed_under_composition(monkeypatch):
    # End(S + S) for a simple S is M_2(Q); without its last unit matrix the
    # span misses E(1,0) E(0,1) = E(1,1), and the identity too
    s = Representation.simple(k2(), "q")
    x = direct_sum(s, s)
    basis = hom_space(x, x)
    assert len(basis) == 4
    monkeypatch.setattr(reps, "hom_space", lambda a, b: basis[:-1])
    with pytest.raises(RepError, match="does not lie in the computed Hom space"):
        end_algebra(x)


def test_end_algebra_mul_and_element_agree_with_composition():
    x = direct_sum(load_rep("X0"), load_rep("X1"))
    end = end_algebra(x)
    a = [Fraction(k + 1, 2) for k in range(end.dim)]
    b = [Fraction(-1) ** k * k for k in range(end.dim)]
    assert end.element(end.mul(a, b)).blocks == compose(end.element(a), end.element(b)).blocks
    assert end.element(end.identity_coords).blocks == identity_morphism(x).blocks


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_fp_hom_space_and_end_algebra_match_reference(p):
    # over F_p hom_space eliminates the unreduced integer d_{X,Y} of the residues,
    # and end_algebra reduces its products mod p only in the guard
    cases = [
        (load_quiver("K3"), (3, 1), (2, 3)),
        (load_quiver("S4"), (3, 2, 2, 1, 1), (2, 1, 1, 1, 1)),
        (k2(), (2, 2), (1, 1)),
    ]
    larger = 0
    for q, a, b in cases:
        for seed in range(2):
            x, y = random_rep(q, a, p, seed), random_rep(q, b, p, seed + 5)
            for u, v in itertools.product((x, y, direct_sum(x, y)), repeat=2):
                basis = hom_space(u, v)
                assert [tuple(m.entries for m in f.blocks) for f in basis] == reference_hom_space(u, v)
            for u in (x, direct_sum(x, y), direct_sum(x, x)):
                end, ref = end_algebra(u), reference_end_algebra(u)
                assert (end.structure, end.identity_coords) == (ref.structure, ref.identity_coords)
                assert end.radical_dim is None
                larger += end.dim > 2
    assert larger


# -- hom_space builds its basis unvalidated; the law is checked here ---------------


def _over(x, field):
    """x with its entries read in another field."""
    maps = tuple(Matrix(m.rows, m.cols, m.entries, field) for m in x.maps)
    return Representation(x.quiver, field, x.dims, maps)


def _hom_space_cases():
    """Same-quiver groups: fixture reps, their pairwise sums and random reps, over Q and F_101."""
    rng = random.Random(11)
    fixtures = [load_rep(n) for n in FIXTURE_NAMES]
    for q in {x.quiver for x in fixtures}:
        own = [x for x in fixtures if x.quiver == q]
        own += [direct_sum(a, b) for a, b in itertools.combinations_with_replacement(own, 2)]
        for field in (QQ, PrimeField(101)):
            group = [_over(x, field) for x in own]
            for k in range(3):
                r = random_rep(q, tuple(rng.randint(0, 2) for _ in q.vertices), 101, seed=k)
                group.append(r if field != QQ else _over(r, QQ))
            yield group


def test_hom_space_basis_vectors_are_morphisms():
    pairs = 0
    for group in _hom_space_cases():
        for x, y in itertools.product(group, repeat=2):
            basis = hom_space(x, y)
            assert len(basis) == hom_dim(x, y)
            for f in basis:
                checked = Morphism(x, y, f.blocks)  # shapes, field and intertwining law
                assert all(b == Matrix(b.rows, b.cols, b.entries, x.field) for b in checked.blocks)
            pairs += 1
    assert pairs > 100


# -- the spectral splitting routine over F_p ---------------------------------------


def test_q_minimal_polynomial_from_coordinates_matches_action_matrix():
    # power rows cleared of denominators, from End(X) bases and coordinates
    # that have them, through the Q steps of `linalg.reduce_row`
    rng = random.Random(3)
    fractional = checked = 0
    for x in fractional_cases():
        end = end_algebra(x)
        if end.dim < 2:
            continue
        fractional += any(_has_denominators(f.blocks) for f in end.basis)
        draws = (
            [rng.randint(-3, 3) for _ in range(end.dim)],
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(end.dim)],
            list(end.identity_coords),
        )
        for g in draws:
            coeffs, powers = _minimal_polynomial_coords(end, end.identity_coords, g)
            assert coeffs == minimal_polynomial_of_matrix(block_diag(end.element(g).blocks, QQ))
            assert len(powers) == len(coeffs) - 1 and powers[0] == list(end.identity_coords)
            assert all(b == end.mul(a, g) for a, b in zip(powers, powers[1:]))
            checked += len(coeffs) > 2
    assert fractional > 10 and checked > 10


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_fp_minimal_polynomial_from_coordinates_matches_action_matrix(p):
    field = PrimeField(p)
    rng = random.Random(p)
    cases = [(load_quiver("K3"), (3, 1)), (load_quiver("S4"), (3, 2, 2, 1, 1)), (k2(), (2, 2))]
    checked = 0
    for q, dims in cases:
        for seed in range(3):
            x = random_rep(q, dims, p, seed)
            end = end_algebra(x)
            for g in ([rng.randrange(p) for _ in range(end.dim)], list(end.identity_coords)):
                coeffs, _ = _minimal_polynomial_coords(end, end.identity_coords, g)
                action = block_diag(end.element(g).blocks, field)
                assert coeffs == minimal_polynomial_of_matrix(action)
                checked += len(coeffs) > 2
    assert checked  # some minimal polynomial above degree one was compared


def _first_split(end, rng, p):
    for _ in range(16):
        _, e = _spectral_split(end, end.identity_coords, [rng.randrange(p) for _ in range(end.dim)])
        if e is not None:
            return e
    return None


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_fp_corner_minimal_polynomial_matches_action_on_the_summand(p):
    # g = e r e in one End(X) acts on eX; with unit e its minimal polynomial
    # is that of g's block on the image of e, in a basis that splits X along e
    field = PrimeField(p)
    rng = random.Random(p)
    cases = [
        (load_quiver("K3"), (4, 1)),
        (load_quiver("S4"), (4, 1, 1, 1, 1)),
        (load_quiver("S5"), (5, 2, 1, 1, 1, 3)),
    ]
    checked = 0
    for q, dims in cases:
        for seed in range(3):
            x = random_rep(q, dims, p, seed)
            end = end_algebra(x)
            f = _first_split(end, rng, p)
            if f is None:
                continue
            for e in (f, [field.sub(a, b) for a, b in zip(end.identity_coords, f)]):
                x_im, _, bases = split_by_idempotent(x, end.element(e))
                g = end.mul(e, end.mul([rng.randrange(p) for _ in range(end.dim)], e))
                coeffs, powers = _minimal_polynomial_coords(end, e, g)
                assert powers[0] == e
                blocks = []
                for base, gv, d in zip(bases, end.element(g).blocks, x_im.dims):
                    if d:
                        conj = inverse(base) * gv * base
                        rows = [conj.row(r)[:d] for r in range(d)]
                        blocks.append(Matrix.from_rows(rows, field, cols=d))
                assert coeffs == minimal_polynomial_of_matrix(block_diag(blocks, field))
                _, split = _spectral_split(end, e, g)
                if split is not None:
                    assert end.mul(e, split) == split == end.mul(split, e)
                checked += len(coeffs) > 2
    assert checked  # some corner larger than the scalars was compared
