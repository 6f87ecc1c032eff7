from fractions import Fraction

import pytest

from quiverglue.linalg import (
    DEFAULT_PRIME,
    Matrix,
    ModulusError,
    PrimeField,
    QQ,
    block_diag,
    hstack,
    is_prime,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
)


def M(rows, field=QQ):
    return Matrix.from_rows(rows, field, cols=len(rows[0]) if rows else 0)


def test_rational_field_arithmetic():
    assert QQ.coerce(2) == Fraction(2)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.coerce(9) == 2
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.format(6) == "6"
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert PrimeField(DEFAULT_PRIME).inv(2) == (DEFAULT_PRIME + 1) // 2


def test_matrix_ops():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a * b)[0, 0] == Fraction(2)
    assert (a + b - b) == a
    assert a.transpose()[0, 1] == Fraction(3)
    assert a.trace() == Fraction(5)
    assert Matrix.identity(2, QQ) * a == a
    assert a.scale(Fraction(2))[1, 1] == Fraction(8)


def test_stack_and_kron():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert hstack([a, b]).cols == 4
    d = block_diag([Matrix.identity(1, QQ), Matrix.identity(2, QQ)], QQ)
    assert d.rows == 3 and d[0, 0] == Fraction(1) and d[0, 1] == Fraction(0)
    k = kron(M([[1, 2]]), M([[1], [1]]))
    assert (k.rows, k.cols) == (2, 2)
    assert k[0, 1] == Fraction(2)


def test_rank_rref_kernel_solve():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(a) == 2
    reduced, pivots = rref(a)
    assert pivots == [0, 1]
    ker = kernel_basis(a)
    assert len(ker) == 1
    assert (a * ker[0]).is_zero()
    sol = solve(M([[1, 1], [0, 1]]), [Fraction(3), Fraction(2)])
    assert sol == [Fraction(1), Fraction(2)]
    assert solve(M([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None


def test_rank_over_prime_field():
    f = PrimeField(5)
    a = Matrix.from_rows([[1, 2], [2, 4]], f)
    assert rank(a) == 1


def test_is_prime_and_non_prime_moduli():
    small = [n for n in range(200) if is_prime(n)]
    assert small == [n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert is_prime(DEFAULT_PRIME) and is_prime(2**61 - 1)
    # strong pseudoprimes to several small bases, and a Carmichael number
    for n in (2047, 3215031751, 3825123056546413051, 561, DEFAULT_PRIME * 65537):
        assert not is_prime(n)
    for p in (-7, 0, 1, 4, 6, 2047):
        with pytest.raises(ModulusError):
            PrimeField(p)
