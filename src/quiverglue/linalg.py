"""Exact linear algebra over the rationals and prime fields.

Everything upstream (Hom/Ext spaces, coset membership, endomorphism
algebras) reduces to rank / kernel / solve on small matrices, so
plain Gaussian elimination with exact field arithmetic is all we need.
Matrices with zero rows or columns are legal and common (maps in and out
of zero spaces at unsupported vertices).

Elimination takes a matrix as rows of ints, read in a field, and is one
routine for both fields, `echelon`.  Each row is read once into a sparse
{column: int} dict, reduced mod p over F_p, since the `d_{X,Y}` matrices
behind Hom and Ext are mostly zeros; `reduce_row` reduces it against a
table of pivot rows keyed by leading column, deleting entries that cancel,
and stores what is left under its new leading column.  Only two steps
depend on the field: clearing a column (over F_p against a pivot row that
leads with 1, over Q by a fraction-free combination made primitive again)
and normalising a new pivot row (scaled to lead with 1 over F_p, divided
by its gcd over Q).  Over Q only a final pivot division goes back to
`Fraction`s.  `reps` finds minimal polynomials with `reduce_row` too.
Callers that hold integer rows call `echelon`, `kernel_rows` and
`rank_rows`: Hom, Ext and the Ext-class
checks of gluing on the rows of `reps.d_rows`, and the radical of
`end_algebra`.  `rank`, `kernel_basis`, `rref` and `solve` take a `Matrix`
and turn it into int rows through `_rows`.  A rank stops after forward
elimination.  All of it is pure Python: numpy is not a dependency, since
importing it costs more memory and start-up time than the small matrices
here ever win back.  Polynomial arithmetic and factorisation, which the
endomorphism-algebra routines of `reps` also need, live in `poly`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

DEFAULT_PRIME = 2147483647  # prime below 2**31, used for Monte-Carlo sampling


class FieldMismatchError(ValueError):
    """Two operands that must share a field do not; the message names both fields."""

    def __init__(self, first, second):
        super().__init__(f"field mismatch: {first.name} vs {second.name}")
        self.fields = (first, second)


class ModulusError(ValueError):
    """A prime field was asked for with a modulus that is not prime."""


# Miller-Rabin with these bases is exact below 3.3e24 (Sorenson & Webster);
# above that it is a strong probable-prime test, still deterministic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField:
    """The field of arbitrary-precision rationals."""

    name = "Q"
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a, b)

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p with residues stored in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ModulusError(f"modulus {p} is not a prime")
        self.p = p
        self.name = f"F_{p}"
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by modulus")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def format(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def _check_same_field(*mats):
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise FieldMismatchError(field, m.field)
    return field


class Matrix:
    """Immutable dense matrix over QQ or a prime field, row-major entries."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field=QQ):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        entries = [field.coerce(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, rows, cols, entries, field):
        """A matrix from entries already in the field's normal form; no checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(entries))
        object.__setattr__(m, "field", field)
        return m

    @classmethod
    def zeros(cls, rows, cols, field=QQ):
        return cls(rows, cols, [0] * (rows * cols), field)

    @classmethod
    def identity(cls, n, field=QQ):
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(n, n, ent, field)

    @classmethod
    def from_rows(cls, row_lists, field=QQ, cols=None):
        rows = len(row_lists)
        if rows == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, [], field)
        cols = len(row_lists[0])
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat, field)

    @classmethod
    def column(cls, values, field=QQ):
        return cls(len(values), 1, list(values), field)

    # -- access --------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r):
        return list(self.entries[r * self.cols : (r + 1) * self.cols])

    def col(self, c):
        return [self.entries[r * self.cols + c] for r in range(self.rows)]

    def row_lists(self):
        return [self.row(r) for r in range(self.rows)]

    def is_zero(self):
        z = self.field.zero()
        return all(e == z for e in self.entries)

    def is_square(self):
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field, self.entries))

    def __add__(self, other):
        _check_same_field(self, other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        add = self.field.add
        ent = [add(a, b) for a, b in zip(self.entries, other.entries)]
        return Matrix(self.rows, self.cols, ent, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.rows, self.cols, [neg(e) for e in self.entries], self.field)

    def scale(self, c):
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(self.rows, self.cols, [mul(c, e) for e in self.entries], self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        _check_same_field(self, other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [f.zero()] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                av = arow[t]
                if av == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                base = i * m
                for j in range(m):
                    bv = brow[j]
                    if bv != 0:
                        out[base + j] = f.add(out[base + j], f.mul(av, bv))
        return Matrix(n, m, out, f)

    def transpose(self):
        ent = [self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)]
        return Matrix(self.cols, self.rows, ent, self.field)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        t = self.field.zero()
        for i in range(self.rows):
            t = self.field.add(t, self[i, i])
        return t

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in self.row(r)) for r in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} over {self.field.name}: [{body}])"


def hstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("hstack of nothing")
    _check_same_field(*mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    out_rows = []
    for r in range(rows):
        row = []
        for m in mats:
            row.extend(m.row(r))
        out_rows.append(row)
    return Matrix.from_rows(out_rows, mats[0].field, cols=sum(m.cols for m in mats))


def block_diag(mats, field=QQ):
    mats = list(mats)
    if not mats:
        return Matrix.zeros(0, 0, field)
    field = _check_same_field(*mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    ent = [field.zero()] * (rows * cols)
    r0 = c0 = 0
    for m in mats:
        for r in range(m.rows):
            for c in range(m.cols):
                ent[(r0 + r) * cols + (c0 + c)] = m[r, c]
        r0 += m.rows
        c0 += m.cols
    return Matrix(rows, cols, ent, field)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with the A-index-major layout: (A x B)[ap+b, cq+d] = A[a,c]B[b,d]."""
    _check_same_field(a, b)
    f = a.field
    rows, cols = a.rows * b.rows, a.cols * b.cols
    ent = [f.zero()] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            v = a[i, j]
            if v == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    w = b[k, l]
                    if w != 0:
                        ent[(i * b.rows + k) * cols + (j * b.cols + l)] = f.mul(v, w)
    return Matrix(rows, cols, ent, f)


def clear_denominators(seqs):
    """(M, [M * s for s in seqs]): M is the lcm of every denominator in seqs.

    The entries are Fractions or ints, and the products are lists of ints.
    Residues mod p are ints, so over F_p M is 1 and the lists are copies.
    """
    den = lcm(*[v.denominator for s in seqs for v in s])
    return den, [[v.numerator * (den // v.denominator) for v in s] for s in seqs]


def _rows(a: Matrix):
    """The rows of a, one at a time, as sequences of ints: its residues over F_p, its
    entries cleared of denominators over Q (by one common factor, which leaves every
    answer unchanged)."""
    m, e = a.cols, a.entries
    if not a.field.characteristic:
        e = clear_denominators([e])[1][0]
    return (e[i * m : (i + 1) * m] for i in range(a.rows))


def echelon(rows, m, field, reduce_above):
    """Row echelon form of an integer matrix with m columns, read in field.

    The rows may be any iterable of int sequences, each read once and
    dropped, so a caller may pass a generator.  Over F_p the entries may be
    any ints, such as the unreduced sums of `reps.d_rows`; over Q they may
    be cleared of denominators by any factor per row.  Returns (rows,
    pivots): one list of ints per row, the pivot rows first in pivot order,
    then zero rows.  Over Q a pivot row is primitive (its entries have gcd
    1) and is not divided by its pivot; over F_p it leads with 1.  With
    reduce_above every pivot row is also cleared above its pivot, and
    dividing the pivot rows by their pivots gives the reduced row echelon
    form.  Without it only forward elimination runs, which is all a rank
    needs: the pivots are those of the RREF.

    Each row is read into a sparse row, {column: nonzero int}, reduced mod
    p over F_p, and passed to `reduce_row`.  The pivot set depends only on
    the row space, so it is already that of the RREF.  Back-substitution
    runs from the last pivot down; each pivot row it clears against is
    zero at every other pivot column, so it adds entries only at free
    columns.
    """
    p = field.characteristic
    table = {}
    n = 0  # rows read
    for r in rows:
        n += 1
        if p:
            reduce_row({c: y for c, x in enumerate(r) if x and (y := x % p)}, table, p)
        else:
            reduce_row({c: x for c, x in enumerate(r) if x}, table, p)
    pivots = sorted(table)
    if reduce_above:
        for pc in reversed(pivots):
            row = table[pc]
            for c in [c for c in row if c != pc and c in table]:
                _clear(row, c, table[c], p)
    out = []
    for pc in pivots:
        dense = [0] * m
        for c, x in table[pc].items():
            dense[c] = x
        out.append(dense)
    out.extend([0] * m for _ in range(n - len(pivots)))
    return out, pivots


def _elimination(a: Matrix, reduce_above=True):
    """`echelon` of a Matrix; with reduce_above its rows are the RREF's, in the field."""
    rows, pivots = echelon(_rows(a), a.cols, a.field, reduce_above)
    if reduce_above and not a.field.characteristic:
        rows = [[Fraction(x, row[pc]) if x else _ZERO for x in row] for row, pc in zip(rows, pivots)]
        rows.extend([_ZERO] * a.cols for _ in range(a.rows - len(pivots)))
    return rows, pivots


def reduce_row(row, table, p):
    """Reduce a sparse row against table, the pivot rows keyed by leading column.

    row is {column: nonzero int}, residues mod p over F_p (p > 0) and
    integers over Q (p = 0), and is changed in place.  While its leading
    column has a pivot row, that column is cleared (`_clear`).  A row left
    nonzero is normalised, scaled to lead with 1 over F_p and divided by
    the gcd of its entries over Q, stored in table under its leading
    column, and that column is returned; None when the row reduces to 0.
    """
    while row:
        lead = min(row)
        prow = table.get(lead)
        if prow is None:
            if p:
                inv = pow(row[lead], -1, p)
                if inv != 1:
                    for c, x in row.items():
                        row[c] = x * inv % p
            elif (h := gcd(*row.values())) > 1:
                for c, x in row.items():
                    row[c] = x // h
            table[lead] = row
            return lead
        _clear(row, lead, prow, p)
    return None


def _clear(row, c, prow, p):
    """Clear column c of a sparse row against prow, a pivot row leading at c, in place.

    Over F_p prow leads with 1, and row[c] * prow is subtracted.  Over Q,
    with pivot pv = prow[c], f = row[c] and g = gcd(pv, f), row becomes
    (pv/g)*row - (f/g)*prow and is made primitive again, so entries grow no
    more than the row needs (integer-preserving elimination in the spirit
    of Bareiss, 1968).  Entries that cancel are deleted.
    """
    f = row[c]
    if p:
        g = p - f
        for k, y in prow.items():
            x = (row.get(k, 0) + g * y) % p
            if x:
                row[k] = x
            else:
                del row[k]
        return
    g = gcd(prow[c], f)
    s, t = prow[c] // g, f // g
    if s != 1:
        for k, x in row.items():
            row[k] = s * x
    for k, y in prow.items():
        x = row.get(k, 0) - t * y
        if x:
            row[k] = x
        else:
            del row[k]
    if (h := gcd(*row.values())) > 1:
        for k, x in row.items():
            row[k] = x // h


def kernel_rows(rows, m, field):
    """Basis of the right null space of an integer matrix with m columns, read in field.

    One vector per free column, 1 there and 0 at the other free columns, as
    lists of field elements (Fractions over Q, residues over F_p).
    """
    reduced, pivots = echelon(rows, m, field, True)
    pivot_set = set(pivots)
    zero, one, div = field.zero(), field.one(), field.div
    basis = []
    for fc in range(m):
        if fc in pivot_set:
            continue
        v = [zero] * m
        v[fc] = one
        for row, pc in zip(reduced, pivots):
            x = row[fc]
            if x:
                v[pc] = div(-x, row[pc])
        basis.append(v)
    return basis


def rank_rows(rows, m, field) -> int:
    """Rank in field of an integer matrix with m columns, given as rows of ints."""
    return len(echelon(rows, m, field, False)[1])


def rref(a: Matrix):
    rows, pivots = _elimination(a)
    return Matrix.from_rows(rows, a.field, cols=a.cols), pivots


def rank(a: Matrix) -> int:
    return rank_rows(_rows(a), a.cols, a.field)


def kernel_basis(a: Matrix):
    """Basis of the right null space, as a list of column vectors (n x 1 matrices)."""
    return [Matrix._trusted(a.cols, 1, v, a.field) for v in kernel_rows(_rows(a), a.cols, a.field)]


def inverse(a: Matrix) -> Matrix:
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    aug = hstack([a, Matrix.identity(a.rows, a.field)])
    reduced, pivots = rref(aug)
    if pivots[: a.rows] != list(range(a.rows)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows(
        [reduced.row(r)[a.rows :] for r in range(a.rows)], a.field, cols=a.rows
    )


def solve(a: Matrix, b) -> list | None:
    """Some x with A x = b, or None when the system is inconsistent."""
    if isinstance(b, Matrix):
        if b.cols != 1:
            raise ValueError("right-hand side must be a column vector")
        b = b.col(0)
    if len(b) != a.rows:
        raise ValueError("dimension mismatch in solve")
    f = a.field
    aug = Matrix.from_rows(
        [a.row(r) + [f.coerce(b[r])] for r in range(a.rows)], f, cols=a.cols + 1
    )
    reduced, pivots = _elimination(aug)
    if a.cols in pivots:
        return None
    x = [f.zero()] * a.cols
    for pr, pc in enumerate(pivots):
        x[pc] = reduced[pr][a.cols]
    return x
