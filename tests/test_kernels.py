"""Differential tests: the fast Q and F_p kernels against their field-generic references.

The Q and F_p eliminations must agree with the field-method elimination loop
(run here through field objects that are neither a `RationalField` nor a
`PrimeField`, so `_elimination` takes its generic branch), and the
arrow-by-arrow `d_matrix` must equal the column-by-column definition through
`apply_d`.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from oracles import d_matrix_by_columns
from quiverglue import fixtures
from quiverglue.linalg import (
    Matrix,
    PrimeField,
    QQ,
    RationalField,
    _elimination,
    _elimination_q,
    kernel_basis,
    rank,
    rref,
    solve,
)
from quiverglue.quiver import Arrow, Quiver
from quiverglue.reps import Representation, d_matrix

PRIMES = (2, 3, 101, 2**31 - 1)


class MethodField:
    """F_p through PrimeField's methods, without being a PrimeField."""

    def __init__(self, p):
        self._f = PrimeField(p)
        self.p = p
        self.characteristic = p
        self.name = f"generic F_{p}"

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __eq__(self, other):
        return isinstance(other, MethodField) and other.p == self.p

    def __hash__(self):
        return hash(("generic", self.p))


def _pair(p, rows, cols, entries):
    return (
        Matrix(rows, cols, entries, PrimeField(p)),
        Matrix(rows, cols, entries, MethodField(p)),
    )


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
def test_fp_elimination_matches_generic(case):
    fast, ref = _pair(*case)
    assert _elimination(fast) == _elimination(ref)
    assert rank(fast) == rank(ref)
    reduced, pivots = rref(fast)
    reduced_ref, pivots_ref = rref(ref)
    assert (reduced.entries, pivots) == (reduced_ref.entries, pivots_ref)
    assert [v.entries for v in kernel_basis(fast)] == [v.entries for v in kernel_basis(ref)]


@settings(max_examples=200, deadline=None)
@given(fp_matrices(), st.integers(0, 2**32), st.booleans())
def test_fp_solve_matches_generic(case, seed, consistent):
    p, rows, cols, _ = case
    fast, ref = _pair(*case)
    rng = random.Random(seed)
    if consistent:
        x = Matrix(cols, 1, [rng.randrange(p) for _ in range(cols)], PrimeField(p))
        b = list((fast * x).entries)
    else:
        b = [rng.randrange(p) for _ in range(rows)]
    got = solve(fast, b)
    assert got == solve(ref, b)
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


# -- Q ---------------------------------------------------------------------------


class MethodRationals:
    """Q through RationalField's methods, without being a RationalField."""

    name = "generic Q"
    characteristic = 0

    def __init__(self):
        self._f = RationalField()

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __eq__(self, other):
        return isinstance(other, MethodRationals)

    def __hash__(self):
        return hash("generic Q")


def _q_pair(rows, cols, entries):
    return Matrix(rows, cols, entries, QQ), Matrix(rows, cols, entries, MethodRationals())


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
def test_q_elimination_matches_generic(case):
    fast, ref = _q_pair(*case)
    assert _elimination(fast) == _elimination(ref)
    assert _elimination_q(fast, True) == _elimination(ref)
    assert rank(fast) == rank(ref)
    reduced, pivots = rref(fast)
    reduced_ref, pivots_ref = rref(ref)
    assert (reduced.entries, pivots) == (reduced_ref.entries, pivots_ref)
    assert [v.entries for v in kernel_basis(fast)] == [v.entries for v in kernel_basis(ref)]


@settings(max_examples=200, deadline=None)
@given(q_matrices())
def test_q_forward_rows_stay_primitive_integers(case):
    fast, ref = _q_pair(*case)
    rows, pivots = _elimination_q(fast, False)
    assert pivots == rref(ref)[1]
    for row in rows:
        assert all(type(x) is int for x in row)
        assert gcd(*row) in (0, 1)


@settings(max_examples=200, deadline=None)
@given(q_matrices(), st.integers(0, 2**32), st.booleans())
def test_q_solve_matches_generic(case, seed, consistent):
    rows, cols, _ = case
    fast, ref = _q_pair(*case)
    rng = random.Random(seed)
    if consistent:
        x = Matrix(cols, 1, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)])
        b = list((fast * x).entries)
    else:
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows)]
    got = solve(fast, b)
    assert got == solve(ref, b)
    if consistent:
        assert got is not None
    if got is not None:
        assert list((fast * Matrix(cols, 1, got)).entries) == b


def test_q_kernel_on_edge_shapes():
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        fast, ref = _q_pair(rows, cols, [])
        assert _elimination(fast) == _elimination(ref)
        assert rank(fast) == 0
        assert [v.entries for v in kernel_basis(fast)] == [v.entries for v in kernel_basis(ref)]
    assert solve(Matrix(2, 0, []), [0, 0]) == []
    assert solve(Matrix(2, 0, []), [0, Fraction(1, 2)]) is None
    zeros, pivots = rref(Matrix.zeros(3, 2))
    assert pivots == [] and zeros == Matrix.zeros(3, 2)


# -- d_matrix ------------------------------------------------------------------

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


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(QUIVERS)),
    st.sampled_from((None,) + PRIMES),
    st.integers(0, 2**32),
)
def test_d_matrix_matches_apply_d_definition(name, p, seed):
    q = QUIVERS[name]
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(seed)
    top = 3 if q.n <= 5 else 2
    x = _random_rep(q, tuple(rng.randint(0, top) for _ in range(q.n)), field, rng)
    y = _random_rep(q, tuple(rng.randint(0, top) for _ in range(q.n)), field, rng)
    assert d_matrix(x, y) == d_matrix_by_columns(x, y)


def test_d_matrix_with_zero_dimensions():
    for name, q in QUIVERS.items():
        for field in (QQ, PrimeField(101)):
            rng = random.Random(7)
            zero = _random_rep(q, (0,) * q.n, field, rng)
            x = _random_rep(q, tuple(i % 3 for i in range(q.n)), field, rng)
            for a, b in ((zero, zero), (zero, x), (x, zero)):
                d = d_matrix(a, b)
                assert d == d_matrix_by_columns(a, b), name
