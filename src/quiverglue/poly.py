"""Dense univariate polynomials over Q and F_p, and their factorisation.

A polynomial is a list of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is [].  Every function takes the
modulus p of the coefficients last: p = 0 means Q, with `Fraction` or int
coefficients, and p > 0 means integers mod p, with residues in [0, p).
Division needs the divisor's leading coefficient to be a unit mod p,
which holds for every nonzero divisor over a prime field and for monic
divisors mod any p (Hensel lifting divides mod p^k).

`factor_list(f, p)` gives the irreducible factors of f and their
multiplicities in the form and order of `sympy.factor_list`: over Q
primitive integer factors with a positive leading coefficient, over F_p
monic ones, sorted by the number of coefficients, then the multiplicity,
then the coefficients leading first.  Callers take the first factor, so
the order is part of the answer.

Over F_p a squarefree decomposition (with a p-th root where a derivative
vanishes) is followed by distinct-degree and Cantor-Zassenhaus
equal-degree factorisation, which uses the trace map for p = 2 and draws
from its own fixed-seed generator.  Over Q, Yun's squarefree
decomposition is followed, for each squarefree part, by a factorisation
modulo a small prime, Hensel lifting past a Mignotte bound and Zassenhaus
recombination.  The reference is von zur Gathen and Gerhard, *Modern
Computer Algebra*, chapters 14 and 15.  Degrees here are at most the
dimension of an endomorphism algebra, so nothing is tuned for large ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm

from .linalg import is_prime


def _norm(a, p):
    """A new list: a's coefficients reduced mod p (when p), trailing zeros removed."""
    a = [c % p for c in a] if p else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _inv(c, p):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def add(a, b, p=0):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _norm(out, p)


def sub(a, b, p=0):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _norm(out, p)


def scale(a, c, p=0):
    return _norm([c * x for x in a], p)


def mul(a, b, p=0):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _norm(out, p)


def quo_rem(a, b, p=0):
    """(q, r) with a = q b + r and deg r < deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _norm(a, p)
    n = len(b) - 1
    if len(r) <= n:
        return [], r
    inv = _inv(b[-1], p)
    q = [0] * (len(r) - n)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] * inv % p if p else r[k + n] * inv
        if c:
            q[k] = c
            for j in range(n):  # r[k + n] cancels; it is cut off below
                r[k + j] = (r[k + j] - c * b[j]) % p if p else r[k + j] - c * b[j]
    return _norm(q, 0), _norm(r[:n], 0)


def power(a, n, p=0):
    out = [1]
    while n:
        if n & 1:
            out = mul(out, a, p)
        n >>= 1
        if n:
            a = mul(a, a, p)
    return out


def _powmod(a, n, f, p):
    """a^n mod f."""
    out = [1]
    a = quo_rem(a, f, p)[1]
    while n:
        if n & 1:
            out = quo_rem(mul(out, a, p), f, p)[1]
        n >>= 1
        if n:
            a = quo_rem(mul(a, a, p), f, p)[1]
    return out


def monic(a, p=0):
    return scale(a, _inv(a[-1], p), p)


def _gcd(a, b, p):
    """The monic gcd of a and b."""
    while b:
        a, b = b, quo_rem(a, b, p)[1]
    return monic(a, p) if a else []


def gcdex(a, b, p=0):
    """(u, v, g): g the monic gcd of a and b, and u a + v b = g with deg u < deg b - deg g."""
    r0, r1 = _norm(a, p), _norm(b, p)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = quo_rem(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if not r0:
        return [], [], []
    inv = _inv(r0[-1], p)
    return scale(u0, inv, p), scale(v0, inv, p), scale(r0, inv, p)


def _diff(a, p):
    return _norm([i * c for i, c in enumerate(a)][1:], p)


# -- squarefree decomposition ---------------------------------------------


def _squarefree_q(f):
    """Yun's algorithm on a monic f."""
    out = []
    d = _diff(f, 0)
    a = _gcd(f, d, 0)
    b, c = quo_rem(f, a)[0], quo_rem(d, a)[0]
    k = 1
    while len(b) > 1:
        d = sub(c, _diff(b, 0))
        a = _gcd(b, d, 0)
        if len(a) > 1:
            out.append((a, k))
        b, c = quo_rem(b, a)[0], quo_rem(d, a)[0]
        k += 1
    return out


def _squarefree_fp(f, p):
    """Squarefree decomposition of a monic f over F_p.

    The loop peels off the factors whose multiplicity p does not divide;
    what is left, c, has zero derivative, so it is a polynomial in t^p, and
    over F_p its p-th root is c with every p-th coefficient kept.
    """
    out = []
    c = _gcd(f, _diff(f, p), p)
    w = quo_rem(f, c, p)[0]
    k = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = quo_rem(w, y, p)[0]
        if len(z) > 1:
            out.append((z, k))
        w, c = y, quo_rem(c, y, p)[0]
        k += 1
    if len(c) > 1:
        out += [(g, j * p) for g, j in _squarefree_fp(c[::p], p)]
    return out


# -- factorisation over F_p -------------------------------------------------


def _distinct_degree(f, p):
    """[(h, d), ...]: h the product of f's irreducible factors of degree d (f squarefree monic)."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)  # t^(p^d) mod f
        g = _gcd(f, sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = quo_rem(f, g, p)[0]
            h = quo_rem(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """The irreducible factors of f, squarefree monic with all of them of degree d.

    A random a of degree below deg f splits f through gcd(a, f) or, when it
    is a unit, through gcd(a^((p^d - 1)/2) - 1, f); for p = 2 through
    gcd(a + a^2 + ... + a^(2^(d-1)), f), the trace to F_2 being 0 or 1 on
    each factor with probability 1/2.
    """
    n = len(f) - 1
    if n <= d:
        return [f]
    while True:
        a = _norm([rng.randrange(p) for _ in range(n)], 0)
        if len(a) < 2:
            continue
        g = _gcd(a, f, p)
        if len(g) == 1:
            if p == 2:
                b = t = a
                for _ in range(d - 1):
                    t = _powmod(t, 2, f, p)
                    b = add(b, t, p)
            else:
                b = sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
            g = _gcd(b, f, p)
        if 1 < len(g) <= n:
            return _equal_degree(g, d, p, rng) + _equal_degree(quo_rem(f, g, p)[0], d, p, rng)


def _factor_fp(f, p):
    rng = random.Random(0)  # only the running time depends on the draws
    return [
        (g, k)
        for s, k in _squarefree_fp(monic(f, p), p)
        for h, d in _distinct_degree(s, p)
        for g in _equal_degree(h, d, p, rng)
    ]


# -- factorisation over Q -----------------------------------------------------


def _primitive(f):
    """f, with int or Fraction coefficients, as a primitive integer polynomial with a
    positive leading coefficient."""
    den = lcm(*(Fraction(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    g = gcd(*ints)
    return [c // (g if ints[-1] > 0 else -g) for c in ints]


def _symmetric(a, m):
    return [c - m if 2 * c > m else c for c in a]


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 mod m, h monic, the same mod m^2 (GvzG 15.10)."""
    mm = m * m
    e = sub(f, mul(g, h), mm)
    q, r = quo_rem(mul(s, e, mm), h, mm)
    g = add(g, add(mul(t, e), mul(q, g)), mm)
    h = add(h, r, mm)
    b = sub(add(mul(s, g), mul(t, h)), [1], mm)
    c, d = quo_rem(mul(s, b, mm), h, mm)
    s = sub(s, d, mm)
    t = sub(t, add(mul(t, b), mul(c, g)), mm)
    return g, h, s, t


def _hensel_lift(f, gs, p, pl):
    """Monic lifts mod pl of gs, pairwise coprime monic factors with f = lc(f) prod gs mod p."""
    if len(gs) == 1:
        return [scale(f, pow(f[-1], -1, pl), pl)]
    k = len(gs) // 2
    g = [f[-1] % p]
    for gi in gs[:k]:
        g = mul(g, gi, p)
    h = [1]
    for gi in gs[k:]:
        h = mul(h, gi, p)
    s, t, _ = gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, gs[:k], p, pl) + _hensel_lift(h, gs[k:], p, pl)


def _zassenhaus(f):
    """The irreducible factors over Z of f, squarefree and primitive with a positive
    leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    b = f[-1]
    p = next(
        q for q in count(3)
        if is_prime(q) and b % q and len(_gcd(_norm(f, q), _diff(f, q), q)) == 1
    )
    gs = [g for g, _ in _factor_fp(f, p)]
    if len(gs) == 1:
        return [f]
    # b times a factor of f, scaled to leading coefficient b, has coefficients below
    # bound / 2 (Mignotte), so it is the symmetric residue mod pl of a product of lifts
    bound = 2 * b * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    pl = p
    while pl <= bound:
        pl *= p
    lifts = _hensel_lift(f, gs, p, pl)
    factors = []
    left = list(range(len(lifts)))
    size = 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            g = [f[-1]]
            for i in subset:
                g = mul(g, lifts[i], pl)
            g = _primitive(_symmetric(g, pl))
            q, r = quo_rem(f, g)
            if not r:
                factors.append(g)
                f = [int(c) for c in q]
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return factors


def _factor_q(f):
    return [
        (g, k)
        for s, k in _squarefree_q(monic(f))
        for g in _zassenhaus(_primitive(s))
    ]


def factor_list(f, p=0):
    """The irreducible factors of a nonzero f with their multiplicities, as sympy lists them."""
    f = _norm(f, p)
    if not f:
        raise ValueError("factor_list of the zero polynomial")
    factors = (_factor_fp(f, p) if p else _factor_q(f)) if len(f) > 1 else []
    return sorted(factors, key=lambda fk: (len(fk[0]), fk[1], fk[0][::-1]))
