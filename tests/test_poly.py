"""Differential tests of quiverglue.poly against sympy, which the library no longer imports.

Inputs are products of random factors, some of them repeated, so the
squarefree decomposition (and in characteristic p its p-th-root case),
distinct- and equal-degree factorisation, Hensel lifting and recombination
all run.  The factor lists must equal sympy's entry for entry, order
included, because `reps.indecomposable` and `decompose.generic_summands`
split along the first factor and `indec` prints the witness it gives.
"""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverglue import poly

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")
PRIMES = [2, 3, 5, 101, 2**31 - 1]
MAX_DEGREE = 12


def to_sympy(f, p):
    """f, low degree first, as a sympy Poly over Q (p = 0) or F_p."""
    lead_first = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, reversed(f))]
    if p:
        return sympy.Poly(lead_first or [0], T, modulus=p, symmetric=False)
    return sympy.Poly(lead_first or [0], T, domain="QQ")


def from_sympy(g):
    """A sympy Poly's coefficients, low degree first, as Fractions; [] for zero."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, reversed(g.all_coeffs()))]
    return [] if coeffs == [0] else coeffs


def sympy_factor_list(f, p):
    with warnings.catch_warnings():  # sympy >= 1.13 warns as it sorts F_p factors
        warnings.simplefilter("ignore", DeprecationWarning)
        factors = sympy.factor_list(to_sympy(f, p))[1]
    return [(from_sympy(g), k) for g, k in factors]


def reduced(f, p):
    return [Fraction(c % p) for c in f] if p else [Fraction(c) for c in f]


@st.composite
def products(draw, p):
    """A nonzero constant times random factors, each raised to a random power."""
    coefficient = (
        st.integers(0, p - 1) if p
        else st.fractions(min_value=-4, max_value=4, max_denominator=3)
    )
    exponents = [1, 2, 3] + ([p, p + 1] if p and p <= 5 else [])
    f, degree = [draw(coefficient.filter(bool))], 0  # a nonzero constant: f need not be monic
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 4))
        g = draw(st.lists(coefficient, min_size=d, max_size=d)) + [draw(coefficient.filter(bool))]
        k = draw(st.sampled_from(exponents))
        if degree + d * k > MAX_DEGREE:
            continue
        f = poly.mul(f, poly.power(g, k, p), p)
        degree += d * k
    return f


def check_against_sympy(f, p):
    mine = poly.factor_list(f, p)
    assert [(reduced(g, p), k) for g, k in mine] == sympy_factor_list(f, p)
    if len(mine) >= 2:
        # the split the library makes: a = first factor's power, b = the rest
        a = poly.power(*mine[0], p)
        b = [1]
        for g, k in mine[1:]:
            b = poly.mul(b, poly.power(g, k, p), p)
        u = poly.gcdex(a, b, p)[0]
        s, _, h = to_sympy(a, p).gcdex(to_sympy(b, p))
        assert from_sympy(h) == [1]
        assert reduced(poly.mul(u, a, p), p) == from_sympy(s * to_sympy(a, p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(products(0))
@example([1, 0, 0, 0, 1])  # t^4 + 1: irreducible, but it splits modulo every prime
@example([1, 0, -10, 0, 1])  # t^4 - 10t^2 + 1: the same, with a larger Hensel bound
@example([Fraction(-1, 3), Fraction(1, 6), Fraction(2, 1)])  # 2t^2 + t/6 - 1/3
@example([0, 0, 0, 1])  # t^3
def test_factor_list_over_q_matches_sympy(f):
    check_against_sympy(f, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_factor_list_over_fp_matches_sympy(p):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(products(p))
    def check(f):
        check_against_sympy(f, p)

    check()


@pytest.mark.parametrize("p", [0] + PRIMES)
def test_gcdex_matches_sympy(p):
    rng = random.Random(p)
    for _ in range(60):
        common = [rng.randrange(-4, 5) for _ in range(rng.randint(1, 3))] + [rng.randrange(1, 5)]
        a, b = ([rng.randrange(-9, 10) for _ in range(rng.randint(1, 6))] for _ in "ab")
        if rng.random() < 0.5:  # a common factor in half of the pairs
            a, b = poly.mul(a, common, p), poly.mul(b, common, p)
        a, b = poly._norm(a, p), poly._norm(b, p)  # reduced, no trailing zeros
        if not a or not b:
            continue
        u, v, g = poly.gcdex(a, b, p)
        s, t, h = to_sympy(a, p).gcdex(to_sympy(b, p))
        assert [reduced(x, p) for x in (u, v, g)] == [from_sympy(y) for y in (s, t, h)]
        assert reduced(poly.mul(u, a, p), p) == from_sympy(s * to_sympy(a, p))


@pytest.mark.parametrize("p, g", [(2, [1, 1, 1]), (3, [1, 0, 1])])
def test_squarefree_takes_pth_roots(p, g):
    # t (t + 1)^p g^(p + 1), g irreducible mod p: (t + 1)^p has zero derivative
    f = poly.mul(poly.mul([0, 1], poly.power([1, 1], p, p), p), poly.power(g, p + 1, p), p)
    parts = sorted(poly._squarefree_fp(f, p), key=lambda gk: gk[1])
    assert parts == [([0, 1], 1), ([1, 1], p), (g, p + 1)]
    check_against_sympy(f, p)


def test_factor_list_leaves_the_global_generator_alone():
    state = random.getstate()
    poly.factor_list([3, 0, 1, 0, 1, 0, 1], 101)  # several equal-degree splits
    assert random.getstate() == state
