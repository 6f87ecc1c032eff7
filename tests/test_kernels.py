"""Differential tests: the sparse pivot-table elimination against its references.

`linalg.echelon` is one routine for Q and F_p.  Over both fields it must
agree with `field_elimination`, the loop over the field's methods that
`_elimination` ran before the fields got integer kernels; `solve` is
compared with that loop patched in for `_elimination`.  Over F_p it must
also agree with `dense_elimination_fp`, the dense-row kernel the sparse
rows replaced, on the sparse `d_{X,Y}` matrices the library eliminates
and on rows built to cancel, and with it swapped in for `echelon`.  It
takes integer rows, through `echelon`, `kernel_rows` and `rank_rows`;
over F_p the entries may be unreduced or negative, as `reps.d_rows`
builds them for Hom and Ext.  Over Q it must agree on the integer
`d_{X,Y}` matrices `hom_space` eliminates and on fractional ones.
The arrow-by-arrow `d_rows` must equal the column-by-column definition
through `apply_d`: mod p over F_p, and times the lcm of the maps'
denominators over Q.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    d_matrix_by_columns,
    dense_elimination_fp,
    field_elimination,
    fractional_conjugate,
    reference_kernel_basis,
)
from quiverglue import fixtures, linalg
from quiverglue.linalg import (
    Matrix,
    PrimeField,
    QQ,
    _elimination,
    _rows,
    echelon,
    kernel_basis,
    kernel_rows,
    rank,
    rank_rows,
    rref,
    solve,
)
from quiverglue.quiver import Arrow, Quiver
from quiverglue.reps import Representation, d_rows, random_rep

PRIMES = (2, 3, 101, 2**31 - 1)


def reference_solve(a, b):
    with mock.patch.object(linalg, "_elimination", field_elimination):
        return solve(a, b)


def assert_matches_field_elimination(a):
    """_elimination, rank, rref and kernel_basis of a against the field-method loop."""
    reduced_ref, pivots_ref = field_elimination(a)
    assert _elimination(a) == (reduced_ref, pivots_ref)
    assert rank(a) == len(pivots_ref)
    reduced, pivots = rref(a)
    assert (reduced.row_lists(), pivots) == (reduced_ref, pivots_ref)
    assert [v.entries for v in kernel_basis(a)] == reference_kernel_basis(a)


@st.composite
def fp_matrices(draw):
    """(p, rows, cols, entries): random, or a rank-deficient (r x k)(k x c) product."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(st.integers(0, 3), st.integers(0, p - 1))
    if draw(st.booleans()):
        return p, rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    k = draw(st.integers(0, min(rows, cols)))
    left = Matrix(rows, k, draw(st.lists(entry, min_size=rows * k, max_size=rows * k)), PrimeField(p))
    right = Matrix(k, cols, draw(st.lists(entry, min_size=k * cols, max_size=k * cols)), PrimeField(p))
    return p, rows, cols, list((left * right).entries)


@settings(max_examples=300, deadline=None)
@given(fp_matrices())
def test_fp_elimination_matches_field_elimination(case):
    p, rows, cols, entries = case
    assert_matches_field_elimination(Matrix(rows, cols, entries, PrimeField(p)))


@settings(max_examples=200, deadline=None)
@given(fp_matrices(), st.integers(0, 2**32), st.booleans())
def test_fp_solve_matches_field_elimination(case, seed, consistent):
    p, rows, cols, entries = case
    fast = Matrix(rows, cols, entries, PrimeField(p))
    rng = random.Random(seed)
    if consistent:
        x = Matrix(cols, 1, [rng.randrange(p) for _ in range(cols)], PrimeField(p))
        b = list((fast * x).entries)
    else:
        b = [rng.randrange(p) for _ in range(rows)]
    got = solve(fast, b)
    assert got == reference_solve(fast, b)
    if consistent:
        assert got is not None
    if got is not None:
        assert list((fast * Matrix(cols, 1, got, PrimeField(p))).entries) == b


def test_forward_only_rank_on_edge_shapes():
    for p in PRIMES:
        f = PrimeField(p)
        assert rank(Matrix(0, 5, [], f)) == 0
        assert rank(Matrix(5, 0, [], f)) == 0
        assert rank(Matrix.identity(6, f)) == 6
        assert _elimination(Matrix(0, 0, [], f)) == ([], [])
        assert kernel_basis(Matrix(0, 3, [], f))[2].entries == (0, 0, 1)
        assert solve(Matrix(2, 0, [], f), [0, 0]) == []
        assert solve(Matrix(2, 0, [], f), [0, 1]) is None


# -- sparse F_p rows against the dense kernel ---------------------------------


def _dense_on_rows(rows, m, field, reduce_above):
    """dense_elimination_fp with the signature of `echelon`."""
    rows = list(rows)
    a = Matrix(len(rows), m, [x for r in rows for x in r], field)
    return dense_elimination_fp(a, reduce_above)


def _dense_answers(a, b):
    """rank, kernel basis and solve(a, b) with the dense F_p kernel swapped in for `echelon`."""
    with mock.patch.object(linalg, "echelon", side_effect=_dense_on_rows) as swapped:
        answers = _answers(a, b)
    # rank, kernel_basis and solve each eliminate once; a swap that is never
    # called would compare the sparse kernel with itself
    assert swapped.call_count == 3
    return answers


def _answers(a, b):
    return rank(a), [v.entries for v in kernel_basis(a)], solve(a, b)


@contextmanager
def deadline(seconds):
    """Fail with TimeoutError after `seconds`.

    A sparse row whose leading entry fails to cancel (a zero kept in the
    row, a pivot row not scaled to lead with 1) is reduced forever; this
    turns that into a failure.
    """

    def fail(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_matches_dense_kernel(a, rng):
    """Both modes against the dense kernel (forward: the pivots), then rank, kernel and solve."""
    p = a.field.p
    with deadline(30):
        assert echelon(_rows(a), a.cols, a.field, True) == dense_elimination_fp(a, True)
        assert echelon(_rows(a), a.cols, a.field, False)[1] == dense_elimination_fp(a, False)[1]
    x = Matrix(a.cols, 1, [rng.randrange(p) for _ in range(a.cols)], a.field)
    for b in (list((a * x).entries), [rng.randrange(p) for _ in range(a.rows)]):
        assert _answers(a, b) == _dense_answers(a, b)


def d_matrix_of_rows(x, y):
    """The Matrix of `d_rows(x, y)` in the field."""
    cod, dom, rows = d_rows(x, y)
    return Matrix(cod, dom, [v for row in rows for v in row], x.field)


# (quiver, dimension vector of X, of Y); Y None means d_{X,X}
D_MATRIX_CASES = (
    ("K3", (2, 3), None),
    ("K3", (3, 4), (2, 2)),
    ("S4", (3, 2, 2, 1, 1), None),
    ("S4", (2, 1, 1, 1, 1), (3, 2, 2, 1, 1)),
    ("S5", (6, 2, 2, 2, 2, 4), (1, 0, 0, 0, 1, 1)),
    ("S5", (10, 3, 3, 3, 3, 8), None),
)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name,a,b", D_MATRIX_CASES)
def test_fp_sparse_rows_match_dense_kernel_on_d_matrices(name, a, b, p):
    q = fixtures.load_quiver(name)
    for seed in (0, 1):
        x = random_rep(q, a, p, seed)
        d = d_matrix_of_rows(x, x if b is None else random_rep(q, b, p, seed + 7))
        assert_matches_dense_kernel(d, random.Random(seed))
        if a == (10, 3, 3, 3, 3, 8) and p == PRIMES[-1]:
            # the isotropic root: End(X) of a general X is 5-dimensional
            assert (d.rows, d.cols, rank(d)) == (200, 200, 195)


@st.composite
def cancelling_fp_matrices(draw):
    """Sparse rows plus duplicates, multiples and sums of two of them, shuffled."""
    p = draw(st.sampled_from((2, 2, 3, 101, 2**31 - 1)))  # entries cancel most often at p = 2
    cols = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.just(0), st.just(1), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=6))
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s, t = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        kind = draw(st.sampled_from(("duplicate", "sum", "combination")))
        if kind == "duplicate":
            rows.append(list(rows[i]))
        elif kind == "sum":
            rows.append([(x + y) % p for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([(s * x + t * y) % p for x, y in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return Matrix.from_rows([rows[k] for k in order], PrimeField(p))


@settings(max_examples=300, deadline=None)
@given(cancelling_fp_matrices(), st.integers(0, 2**32))
def test_fp_sparse_rows_match_dense_kernel_under_cancellation(a, seed):
    assert_matches_dense_kernel(a, random.Random(seed))


def test_fp_sparse_rows_drop_cancelled_entries():
    # over F_2 the second row cancels completely against the first and the
    # third leaves only its last entry
    rows = [[1, 1, 0, 1], [1, 1, 0, 1], [1, 1, 0, 0]]
    with deadline(10):
        assert echelon(rows, 4, PrimeField(2), True) == ([[1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [0, 3])
        assert echelon(rows, 4, PrimeField(2), False)[1] == [0, 3]


# -- F_p int rows with unreduced and negative entries -------------------------


def dense_kernel(a):
    """The kernel vectors of a over F_p, read off the dense kernel's RREF."""
    p = a.field.p
    reduced, pivots = dense_elimination_fp(a, True)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [0] * a.cols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def assert_int_rows_match_dense_kernel(rows, m, p):
    """echelon, kernel_rows and rank_rows on int rows against the dense kernel on their residues."""
    f = PrimeField(p)
    a = Matrix(len(rows), m, [x for r in rows for x in r], f)
    with deadline(30):
        assert echelon(rows, m, f, True) == dense_elimination_fp(a, True)
        assert echelon(rows, m, f, False)[1] == dense_elimination_fp(a, False)[1]
        assert kernel_rows(rows, m, f) == dense_kernel(a)
        assert rank_rows(rows, m, f) == len(dense_elimination_fp(a, False)[1])


@st.composite
def unreduced_int_rows(draw):
    """(p, rows, cols): int rows with entries around 0 and around multiples of p."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.one_of(
        st.integers(-3, 3),
        st.builds(lambda k, r: k * p + r, st.integers(-4, 4), st.integers(-2, 2)),
        st.integers(-3 * p, 3 * p),
    )
    row = st.lists(entry, min_size=cols, max_size=cols)
    return p, draw(st.lists(row, min_size=rows, max_size=rows)), cols


@settings(max_examples=300, deadline=None)
@given(unreduced_int_rows())
def test_fp_unreduced_int_rows_match_dense_kernel(case):
    p, rows, cols = case
    assert_int_rows_match_dense_kernel(rows, cols, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name,a,b", D_MATRIX_CASES[:4])
def test_fp_unreduced_d_rows_match_dense_kernel(name, a, b, p):
    # the d_{X,Y} Hom and Ext eliminate: on loop-free quivers each entry is an
    # entry of Y's maps or minus one of X's, in (-p, p) and not reduced mod p
    q = fixtures.load_quiver(name)
    for seed in (0, 1):
        x = random_rep(q, a, p, seed)
        y = x if b is None else random_rep(q, b, p, seed + 7)
        _, dom, rows = d_rows(x, y)
        rows = list(rows)
        if p > 2:
            assert any(v < 0 for row in rows for v in row)
        assert_int_rows_match_dense_kernel(rows, dom, p)


# -- Q ---------------------------------------------------------------------------


q_entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
small_q_entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def q_matrices(draw):
    """(rows, cols, entries): random, or a rank-deficient (r x k)(k x c) product."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    if draw(st.booleans()):
        return rows, cols, draw(st.lists(q_entries, min_size=rows * cols, max_size=rows * cols))
    k = draw(st.integers(0, min(rows, cols)))
    left = Matrix(rows, k, draw(st.lists(small_q_entries, min_size=rows * k, max_size=rows * k)))
    right = Matrix(k, cols, draw(st.lists(small_q_entries, min_size=k * cols, max_size=k * cols)))
    return rows, cols, list((left * right).entries)


@settings(max_examples=300, deadline=None)
@given(q_matrices())
def test_q_elimination_matches_field_elimination(case):
    assert_matches_field_elimination(Matrix(*case))


@settings(max_examples=200, deadline=None)
@given(q_matrices())
def test_q_forward_rows_stay_primitive_integers(case):
    a = Matrix(*case)
    rows, pivots = echelon(_rows(a), a.cols, QQ, False)
    assert pivots == field_elimination(a)[1]
    for row in rows:
        assert all(type(x) is int for x in row)
        assert gcd(*row) in (0, 1)


@settings(max_examples=200, deadline=None)
@given(q_matrices(), st.integers(1, 60))
def test_q_integer_rows_scaled_per_row_give_the_same_kernel_and_rank(case, scale):
    # kernel_rows and rank_rows take rows cleared of denominators by any
    # factors, as hom_space and end_algebra pass them
    a = Matrix(*case)
    rows = [[x * (scale + i) for x in row] for i, row in enumerate(_rows(a))]
    assert [tuple(v) for v in kernel_rows(rows, a.cols, QQ)] == reference_kernel_basis(a)
    assert rank_rows(rows, a.cols, QQ) == len(field_elimination(a)[1])


@settings(max_examples=200, deadline=None)
@given(q_matrices(), st.integers(0, 2**32), st.booleans())
def test_q_solve_matches_field_elimination(case, seed, consistent):
    rows, cols, _ = case
    fast = Matrix(*case)
    rng = random.Random(seed)
    if consistent:
        x = Matrix(cols, 1, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)])
        b = list((fast * x).entries)
    else:
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows)]
    got = solve(fast, b)
    assert got == reference_solve(fast, b)
    if consistent:
        assert got is not None
    if got is not None:
        assert list((fast * Matrix(cols, 1, got)).entries) == b


def test_q_kernel_on_edge_shapes():
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        a = Matrix(rows, cols, [])
        assert_matches_field_elimination(a)
        assert rank(a) == 0
    assert solve(Matrix(2, 0, []), [0, 0]) == []
    assert solve(Matrix(2, 0, []), [0, Fraction(1, 2)]) is None
    zeros, pivots = rref(Matrix.zeros(3, 2))
    assert pivots == [] and zeros == Matrix.zeros(3, 2)


@pytest.mark.parametrize("name,a,b", D_MATRIX_CASES[:4])
def test_q_kernel_matches_field_elimination_on_fractional_d_matrices(name, a, b):
    # modules over Q with denominators from a base change with non-unit pivots
    q = fixtures.load_quiver(name)
    rng = random.Random(name)
    for seed in (0, 1):
        x = fractional_conjugate(_over_q(random_rep(q, a, 5, seed)), rng)
        y = x if b is None else fractional_conjugate(_over_q(random_rep(q, b, 5, seed + 7)), rng)
        d = d_matrix_by_columns(x, y)
        assert any(v.denominator > 1 for v in d.entries)
        assert_matches_field_elimination(d)


def _over_q(x):
    """x with its residues read as integers over Q."""
    maps = tuple(Matrix(m.rows, m.cols, m.entries, QQ) for m in x.maps)
    return Representation(x.quiver, QQ, x.dims, maps)


# -- d_rows --------------------------------------------------------------------

LOOPED = Quiver(
    "LOOPED",
    ("a", "b"),
    (Arrow("l", "a", "a"), Arrow("m", "a", "a"), Arrow("x", "a", "b"), Arrow("y", "b", "a")),
    allows_loops=True,
)
QUIVERS = {name: fixtures.load_quiver(name) for name in fixtures.QUIVER_FILES}
QUIVERS["LOOPED"] = LOOPED


def _random_rep(q, dims, field, rng):
    maps = []
    for s, t in q.arrow_indices:
        rows, cols = dims[t], dims[s]
        if field == QQ:
            ent = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows * cols)]
        else:
            ent = [rng.choice((0, 1, field.p - 1, rng.randrange(field.p))) for _ in range(rows * cols)]
        maps.append(Matrix(rows, cols, ent, field))
    return Representation(q, field, dims, tuple(maps))


def assert_d_rows_match_definition(x, y):
    """d_rows(x, y) on ints: the column-by-column d_{X,Y} mod p over F_p, and
    that d times the lcm of all of X's and Y's map denominators over Q."""
    ref = d_matrix_by_columns(x, y)
    cod, dom, rows = d_rows(x, y)
    rows = list(rows)
    assert (cod, dom, len(rows)) == (ref.rows, ref.cols, ref.rows)
    ent = [v for row in rows for v in row]
    assert all(len(row) == dom for row in rows) and all(type(v) is int for v in ent)
    if x.field.characteristic:
        assert [v % x.field.p for v in ent] == list(ref.entries)
    else:
        scale = lcm(*(v.denominator for m in x.maps + y.maps for v in m.entries))
        assert ent == [scale * v for v in ref.entries]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(QUIVERS)),
    st.sampled_from((None,) + PRIMES),
    st.integers(0, 2**32),
)
def test_d_rows_match_apply_d_definition(name, p, seed):
    q = QUIVERS[name]
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(seed)
    top = 3 if q.n <= 5 else 2
    x = _random_rep(q, tuple(rng.randint(0, top) for _ in range(q.n)), field, rng)
    y = _random_rep(q, tuple(rng.randint(0, top) for _ in range(q.n)), field, rng)
    assert_d_rows_match_definition(x, y)


def test_d_rows_with_zero_dimensions():
    for name, q in QUIVERS.items():
        for field in (QQ, PrimeField(101)):
            rng = random.Random(7)
            zero = _random_rep(q, (0,) * q.n, field, rng)
            x = _random_rep(q, tuple(i % 3 for i in range(q.n)), field, rng)
            for a, b in ((zero, zero), (zero, x), (x, zero)):
                assert_d_rows_match_definition(a, b)
