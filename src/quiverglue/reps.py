"""Representations, morphisms, Hom/Ext spaces and endomorphism analysis.

Hom and Ext are computed from the single linear map

    d : (+)_q Hom(X_q, Y_q)  ->  (+)_{rho: q -> q'} Hom(X_q, Y_{q'})
    d(f)_rho = Y_rho f_q - f_{q'} X_rho

whose kernel is Hom(X, Y) and whose cokernel is Ext(X, Y) (path algebras
are hereditary, so there is nothing beyond Ext^1).  The flattening of the
Hom blocks is fixed once and for all: vertex blocks in declaration order,
arrow blocks in declaration order, column-major inside each block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import (
    QQ,
    FieldMismatchError,
    Matrix,
    PrimeField,
    block_diag,
    clear_denominators,
    kernel_rows,
    rank_rows,
    reduce_row,
)
from .quiver import Quiver
from .textfmt import (
    ParseError, check_quiver, directives, expect, format_header, format_matrix, header,
    matrix_directive, nat,
)


class RepError(ValueError):
    pass


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    field: object
    dims: tuple
    maps: tuple  # one Matrix per arrow, in quiver arrow order
    name: str = ""

    def __post_init__(self):
        q = self.quiver
        object.__setattr__(self, "dims", q.check_dimvector(self.dims))
        if len(self.maps) != len(q.arrows):
            raise RepError("one matrix per arrow expected")
        for arrow, (s, t), m in zip(q.arrows, q.arrow_indices, self.maps):
            if m.field != self.field:
                raise FieldMismatchError(self.field, m.field)
            want = (self.dims[t], self.dims[s])
            if (m.rows, m.cols) != want:
                raise RepError(
                    f"map for arrow {arrow.name} has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}"
                )

    def map_for(self, arrow_name: str) -> Matrix:
        for arrow, m in zip(self.quiver.arrows, self.maps):
            if arrow.name == arrow_name:
                return m
        raise RepError(f"unknown arrow {arrow_name!r}")

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim() == 0

    @classmethod
    def zero_rep(cls, quiver, dims, field=QQ, name=""):
        dims = quiver.check_dimvector(dims)
        maps = tuple(
            Matrix.zeros(dims[quiver.index(a.target)], dims[quiver.index(a.source)], field)
            for a in quiver.arrows
        )
        return cls(quiver, field, dims, maps, name)

    @classmethod
    def simple(cls, quiver, vertex, field=QQ):
        return cls.zero_rep(quiver, quiver.unit_vector(vertex), field, name=f"S_{vertex}")


def _check_pair(x: Representation, y: Representation):
    if x.quiver != y.quiver:
        raise RepError("representations live on different quivers")
    if x.field != y.field:
        raise FieldMismatchError(x.field, y.field)


@dataclass(frozen=True)
class Morphism:
    source: Representation
    target: Representation
    blocks: tuple  # one Matrix per vertex, in quiver vertex order

    def __post_init__(self):
        x, y = self.source, self.target
        _check_pair(x, y)
        q = x.quiver
        if len(self.blocks) != q.n:
            raise RepError("one block per vertex expected")
        for i, (v, b) in enumerate(zip(q.vertices, self.blocks)):
            if (b.rows, b.cols) != (y.dims[i], x.dims[i]):
                raise RepError(f"block at vertex {v} has the wrong shape")
            if b.field != x.field:
                raise FieldMismatchError(x.field, b.field)
        for arrow, (s, t), xm, ym in zip(q.arrows, q.arrow_indices, x.maps, y.maps):
            if ym * self.blocks[s] != self.blocks[t] * xm:
                raise RepError(f"intertwining law fails at arrow {arrow.name}")

    @classmethod
    def _trusted(cls, source, target, blocks):
        """A morphism from blocks known to have the right shapes and to intertwine; no checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "source", source)
        object.__setattr__(f, "target", target)
        object.__setattr__(f, "blocks", blocks)
        return f

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def __add__(self, other):
        return Morphism(
            self.source, self.target, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def scale(self, c):
        return Morphism(self.source, self.target, tuple(b.scale(c) for b in self.blocks))


def identity_morphism(x: Representation) -> Morphism:
    return Morphism(x, x, tuple(Matrix.identity(d, x.field) for d in x.dims))


def zero_morphism(x: Representation, y: Representation) -> Morphism:
    _check_pair(x, y)
    return Morphism(x, y, tuple(Matrix.zeros(dy, dx, x.field) for dy, dx in zip(y.dims, x.dims)))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g."""
    if g.target is not f.source and g.target != f.source:
        raise RepError("morphisms are not composable")
    return Morphism(g.source, f.target, tuple(a * b for a, b in zip(f.blocks, g.blocks)))


# -- flattening and the d matrix ---------------------------------------


def bundle_space_dim(x: Representation, y: Representation) -> int:
    xd, yd = x.dims, y.dims
    return sum(xd[s] * yd[t] for s, t in x.quiver.arrow_indices)


def d_rows(x: Representation, y: Representation):
    """d_{X,Y} on integers: (cod, dom, rows), the rows yielded one at a time.

    X's and Y's maps are cleared of denominators together over Q (by the lcm
    of all of them, which scales d_{X,Y} and changes neither its kernel nor
    its rank) and read as residues over F_p.  Column (v; r, c) is the unit
    block E(r, c) at vertex v.  For an arrow rho: s -> t, E(r, c) at s adds
    Y_rho[i, r] at entry (i, c) of the rho block, and E(r, c) at t subtracts
    X_rho[c, j] at entry (r, j).  The entries are the plain sums of the map
    entries, so over F_p they are not reduced: `linalg.echelon` reads them
    in the field.
    """
    _check_pair(x, y)
    _, maps = clear_denominators([m.entries for m in x.maps + y.maps])
    xd, yd, k = x.dims, y.dims, len(x.maps)
    col0 = []
    dom = 0
    for dx, dy in zip(xd, yd):
        col0.append(dom)
        dom += dx * dy
    cod = bundle_space_dim(x, y)
    ent = [0] * (cod * dom)
    row0 = 0
    for (s, t), xe, ye in zip(x.quiver.arrow_indices, maps[:k], maps[k:]):
        dxs, dys, dxt, dyt = xd[s], yd[s], xd[t], yd[t]
        for c in range(dxs):
            base = (row0 + c * dyt) * dom
            for r in range(dys):
                col = base + col0[s] + c * dys + r
                for i in range(dyt):
                    v = ye[i * dys + r]
                    if v:
                        ent[col + i * dom] += v
        for c in range(dxt):
            xrow = xe[c * dxs : (c + 1) * dxs]
            for r in range(dyt):
                col = (row0 + r) * dom + col0[t] + c * dyt + r
                for j, v in enumerate(xrow):
                    if v:
                        ent[col + j * dyt * dom] -= v
        row0 += dyt * dxs
    return cod, dom, (ent[i * dom : (i + 1) * dom] for i in range(cod))


def bundle_coordinate(x: Representation, y: Representation, arrow_name, row, col):
    """Position of E(row, col) at one arrow in the codomain flattening of d_{X,Y}.

    Row and column are zero-based; None for an unknown arrow or an entry
    outside the arrow's Y_t x X_s block.
    """
    pos = 0
    for arrow, (s, t) in zip(x.quiver.arrows, x.quiver.arrow_indices):
        rows, cols = y.dims[t], x.dims[s]
        if arrow.name == arrow_name:
            return pos + col * rows + row if 0 <= row < rows and 0 <= col < cols else None
        pos += rows * cols
    return None


def hom_space(x: Representation, y: Representation):
    """Basis of Hom(X, Y) as a list of morphisms: the kernel of `d_rows(x, y)`.

    One morphism per free column of d_{X,Y}, as `kernel_rows` gives them: 1
    there and 0 at the other free columns.
    """
    _, dom, rows = d_rows(x, y)
    field = x.field
    basis = []
    for vec in kernel_rows(rows, dom, field):
        # d(f) = 0 is the intertwining law, so each kernel vector is a morphism
        pos, blocks = 0, []
        for dx, dy in zip(x.dims, y.dims):
            seg = vec[pos : pos + dx * dy]  # column-major: row r is seg[r::dy]
            blocks.append(Matrix._trusted(dy, dx, [v for r in range(dy) for v in seg[r::dy]], field))
            pos += dx * dy
        basis.append(Morphism._trusted(x, y, tuple(blocks)))
    return basis


def hom_dim(x: Representation, y: Representation) -> int:
    _, dom, rows = d_rows(x, y)
    return dom - rank_rows(rows, dom, x.field)


def check_ext_pair(x: Representation, y: Representation):
    """`_check_pair`, and Ext is computed only on loop-free quivers."""
    _check_pair(x, y)
    if not x.quiver.is_loop_free():
        raise RepError("ext_dim requires a loop-free quiver")


def ext_dim(x: Representation, y: Representation) -> int:
    check_ext_pair(x, y)
    cod, dom, rows = d_rows(x, y)
    return cod - rank_rows(rows, dom, x.field)


# -- direct sums -------------------------------------------------------


def direct_sum(x: Representation, y: Representation, name="") -> Representation:
    _check_pair(x, y)
    dims = tuple(a + b for a, b in zip(x.dims, y.dims))
    maps = tuple(block_diag([xa, ya], x.field) for xa, ya in zip(x.maps, y.maps))
    return Representation(x.quiver, x.field, dims, maps, name)


# -- endomorphism algebras ---------------------------------------------


@dataclass(frozen=True)
class EndAlgebra:
    rep: Representation
    basis: tuple  # morphisms X -> X
    structure: tuple  # structure[i][j] = coords of basis[i] o basis[j]
    identity_coords: tuple
    radical_dim: int | None  # None over finite fields

    @property
    def dim(self):
        return len(self.basis)

    def mul(self, a, b):
        """Coordinates of a o b, from the coordinates of a and of b."""
        out = [0] * len(a)
        for ai, row in zip(a, self.structure):
            if ai:
                for bj, prod in zip(b, row):
                    if bj:
                        c = ai * bj
                        for k, s in enumerate(prod):
                            if s:
                                out[k] += c * s
        coerce = self.rep.field.coerce
        return [coerce(v) for v in out]

    def element(self, coords) -> Morphism:
        """The endomorphism with these coordinates, as one validated Morphism."""
        x = self.rep
        blocks = _combination(coords, [[m.entries for m in b.blocks] for b in self.basis], x.dims)
        return Morphism(x, x, tuple(Matrix(d, d, e, x.field) for d, e in zip(x.dims, blocks)))


def _combination(coords, basis_blocks, dims):
    """sum_k coords[k] * basis_blocks[k], per vertex on row-major entry lists."""
    out = [[0] * (d * d) for d in dims]
    for c, blocks in zip(coords, basis_blocks):
        if c:
            for acc, ent in zip(out, blocks):
                for i, v in enumerate(ent):
                    if v:
                        acc[i] += c * v
    return out


def _identity_blocks(dims):
    return [[int(r == c) for r in range(d) for c in range(d)] for d in dims]


def _block_products(a_blocks, b_blocks, dims):
    """Per-vertex products a_v b_v of square row-major entry lists."""
    out = []
    for ae, be, d in zip(a_blocks, b_blocks, dims):
        p = [0] * (d * d)
        for r in range(d):
            base = r * d
            for t in range(d):
                av = ae[base + t]
                if av:
                    brow = t * d
                    for c in range(d):
                        bv = be[brow + c]
                        if bv:
                            p[base + c] += av * bv
        out.append(p)
    return out


def end_algebra(x: Representation) -> EndAlgebra:
    """End(X) with its structure constants in the coordinates of hom_space(X, X).

    A `kernel_basis` vector is 1 at its own free column, 0 at the other free
    columns and at every column after its own, so the coordinates of any Hom
    vector are its entries at the free columns: the last nonzero column of
    each basis vector.  Products are per-vertex block products read at those
    positions; a guard checks that each product, and the identity, is the
    combination of basis vectors its coordinates claim.

    All of this runs on integers, for both fields.  Each basis vector b_k is
    stored as the integer blocks B_k = M b_k, M the lcm of the basis'
    denominators (1 over F_p), so B_k is M at its free column.  A product
    P = B_i B_j is M^2 b_i b_j, its coordinates are P[pos_k] / M^2 in the
    field, and the guard checks that sum_k P[pos_k] B_k - M P is zero in
    the field.  Over Q the trace form, whose kernel is the radical, is taken
    on the integer numerators: scaling does not change its rank.
    """
    basis = hom_space(x, x)
    field = x.field
    dims = x.dims
    n, nv = len(basis), len(dims)
    scale, flat = clear_denominators([m.entries for b in basis for m in b.blocks])
    blocks = [flat[k * nv : (k + 1) * nv] for k in range(n)]
    positions = []  # (vertex, row-major index) of each basis vector's free column
    for b in blocks:
        # the last nonzero entry in the column-major flattening of the blocks
        v = max(i for i, ent in enumerate(b) if any(ent))
        d = dims[v]
        c, r = max((i % d, i // d) for i, e in enumerate(b[v]) if e)
        positions.append((v, r * d + c))
    coerce, div, zero = field.coerce, field.div, field.zero()

    def coords_of(prod, den):
        """Coordinates of prod / den, checked against the basis."""
        ints = [prod[v][i] for v, i in positions]
        comb = _combination(ints, blocks, dims)
        want = [[scale * e for e in b] for b in prod] if scale != 1 else prod
        # over F_p the two sides are unreduced: they need only agree mod p
        if comb != want and any(
            coerce(a - w) for cb, wb in zip(comb, want) for a, w in zip(cb, wb)
        ):
            raise RepError("morphism does not lie in the computed Hom space")
        return tuple(div(c, den) if c else zero for c in ints)

    products = [[_block_products(bi, bj, dims) for bj in blocks] for bi in blocks]
    square = scale * scale
    structure = tuple(tuple(coords_of(prod, square) for prod in row) for row in products)
    ident = coords_of(_identity_blocks(dims), 1)
    radical_dim = None
    if field == QQ:
        # radical = kernel of the trace form of the left regular representation:
        # L_i has columns structure[i][j], trace(L_i L_j) = sum s[i][l][k] s[j][k][l],
        # here on the numerators s * scale^2 of the structure constants
        nums = [[[prod[v][i] for v, i in positions] for prod in row] for row in products]
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            terms = [(k, l, s) for l, prod in enumerate(nums[i]) for k, s in enumerate(prod) if s]
            for j in range(i, n):
                sj = nums[j]
                gram[i][j] = gram[j][i] = sum(s * sj[k][l] for k, l, s in terms)
        radical_dim = n - rank_rows(gram, n, field)
    return EndAlgebra(x, tuple(basis), structure, ident, radical_dim)


def is_schurian(x: Representation) -> bool:
    return hom_dim(x, x) == 1


# -- indecomposability -------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    tag: str  # indecomposable | decomposable | unknown
    witness: Morphism | None = None


def _minimal_polynomial_coords(end: EndAlgebra, one, g):
    """Monic minimal polynomial of g in the corner algebra one End(X) one, low degree
    first, and the powers of g below its degree, power 0 being `one`.

    `one` is an idempotent of End(X) and g = one g one.  The corner algebra
    is End(one X): unital with unit `one`, acting faithfully on one X, so
    this is the minimal polynomial of g's action there (of g's action
    matrix on X when `one` is the identity).  One incremental elimination
    finds it: power k of g, cleared of denominators by M (1 over F_p),
    becomes the sparse row [M power_k | M at column n + k], which
    `linalg.reduce_row` reduces against the pivot rows of the lower powers.
    Every row then carries in its columns from n on the combination of
    powers it stands for.  The first power whose first n columns reduce to
    zero gives the dependency: its row then leads from column n on, where no
    pivot row leads.
    """
    n = end.dim
    field = end.rep.field
    p = field.characteristic
    powers = []
    table = {}
    power = list(one)
    while True:
        k = len(powers)
        den, (ints,) = clear_denominators([power])
        row = {c: x for c, x in enumerate(ints) if x}
        row[n + k] = den
        if reduce_row(row, table, p) >= n:
            dep = [row.get(n + j, 0) for j in range(k + 1)]
            return [field.div(c, dep[k]) for c in dep[:k]] + [field.one()], powers
        powers.append(power)
        power = end.mul(power, g)


def _splitting_coords(end: EndAlgebra, one, g, powers, factors):
    """Coordinates of u(g)a(g), where minpoly = a*b with a the first factor's power,
    a and b coprime and ua + vb = 1.

    None unless it is an idempotent other than 0 and `one`, checked in End(X)
    coordinates.
    """
    from . import poly

    field = end.rep.field
    p = field.characteristic
    f, k = factors[0]
    a, b = poly.power(f, k, p), [1]
    for f, k in factors[1:]:
        b = poly.mul(b, poly.power(f, k, p), p)
    u = poly.gcdex(a, b, p)[0]
    coeffs = [field.coerce(c) for c in poly.mul(u, a, p)]
    while len(powers) < len(coeffs):
        powers.append(end.mul(powers[-1], g))
    e = [0] * end.dim
    for c, power in zip(coeffs, powers):
        if c:
            e = [x + c * y for x, y in zip(e, power)]
    e = [field.coerce(x) for x in e]
    if not any(e) or e == list(one) or end.mul(e, e) != e:
        return None
    return e


def _spectral_split(end: EndAlgebra, one, g):
    """The irreducible factors of the minimal polynomial of g in one End(X) one, as
    `poly.factor_list` gives them, and the coordinates of the idempotent other than
    0 and `one` they give (None when they give none).

    `poly` is imported here, on first use, so that commands which factor
    nothing do not pay for loading it at start-up.
    """
    from . import poly

    coeffs, powers = _minimal_polynomial_coords(end, one, g)
    factors = poly.factor_list(coeffs, end.rep.field.characteristic)
    e = _splitting_coords(end, one, g, powers, factors) if len(factors) >= 2 else None
    return factors, e


MAX_WITNESS_ATTEMPTS = 32


def _candidates(end: EndAlgebra, seed):
    """The unit coordinate vectors, then MAX_WITNESS_ATTEMPTS seeded random ones, then
    for each basis vector v of X a basis of its annihilator {phi : phi(v) = 0}.

    An annihilator element is not invertible, so unless it is nilpotent its
    Fitting decomposition splits X, and its minimal polynomial t^k h(t),
    h(0) != 0, has two coprime factors over any field (the MeatAxe's
    null-space idea, Holt and Rees 1994).  The annihilator is the exact
    kernel of phi -> phi(v), so it needs no splitting field.
    """
    dim = end.dim
    for k in range(dim):
        yield [int(i == k) for i in range(dim)]
    rng = random.Random(seed)
    for _ in range(MAX_WITNESS_ATTEMPTS):
        yield [rng.randint(-3, 3) for _ in range(dim)]
    x = end.rep
    for vertex, d in enumerate(x.dims):
        entries = [b.blocks[vertex].entries for b in end.basis]
        for i in range(d):
            # phi(e_i) at this vertex is column i of phi's block
            _, rows = clear_denominators([[e[r * d + i] for e in entries] for r in range(d)])
            yield from kernel_rows(rows, dim, x.field)


def indecomposable(x: Representation, seed=0) -> Verdict:
    """Decide indecomposability over Q via the local-endomorphism test.

    The representation is decomposable exactly when End(X) contains a
    nontrivial idempotent, i.e. when End/rad is not a division algebra.
    If End/rad is one-dimensional the verdict is immediate; otherwise
    idempotents are sought by minimal-polynomial splitting of algebra
    elements.  A candidate whose minimal polynomial is a power of a single
    irreducible of degree dim(End/rad) certifies that End/rad is a field,
    hence indecomposability over Q even when End/rad is larger than Q.

    All of this runs on coordinate vectors with the structure constants of
    `end_algebra`.  Candidates are generated lazily, the basis first, then
    seeded random combinations, and usually the first one or two decide.
    When none does, as with End(X) = M_2(Q), whose random elements rarely
    have a minimal polynomial that splits over Q, the annihilators of the
    basis vectors of X are tried last (`_candidates`).  Only a returned
    witness becomes a `Morphism`, validated on construction.
    """
    if x.field != QQ:
        return Verdict("unknown")
    if x.is_zero():
        return Verdict("decomposable")
    end = end_algebra(x)
    semisimple_dim = end.dim - end.radical_dim
    if semisimple_dim == 1:
        return Verdict("indecomposable")
    for g in _candidates(end, seed):
        factors, e = _spectral_split(end, end.identity_coords, g)
        if e is not None:
            return Verdict("decomposable", witness=end.element(e))
        if len(factors) == 1 and len(factors[0][0]) - 1 == semisimple_dim:
            # the image of g generates End/rad, which is then Q[t]/(p),
            # a field: no nontrivial idempotents exist
            return Verdict("indecomposable")
    return Verdict("unknown")


# -- random sampling ----------------------------------------------------


def _derive_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index * 7919 + 12345


def random_rep(quiver: Quiver, dims, prime: int, seed: int, name="") -> Representation:
    dims = quiver.check_dimvector(dims)
    field = PrimeField(prime)
    rng = random.Random(_derive_seed(seed, 0))
    maps = []
    for s, t in quiver.arrow_indices:
        rows, cols = dims[t], dims[s]
        maps.append(
            Matrix._trusted(rows, cols, [rng.randrange(prime) for _ in range(rows * cols)], field)
        )
    return Representation(quiver, field, dims, tuple(maps), name)


# -- text format --------------------------------------------------------


def parse_rep(text: str, quiver: Quiver) -> Representation:
    name = field = None
    dims = {}
    maps = {}
    lines = directives(text)
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "rep":
            name, field = header(parts, lineno)
        elif kind == "quiver":
            check_quiver(parts, lineno, quiver, "representation")
        elif kind == "dim":
            expect(len(parts) == 3, lineno, "dim <vertex> <nat>")
            if parts[1] not in quiver.vertices:
                raise ParseError(f"line {lineno}: unknown vertex {parts[1]!r}")
            dims[parts[1]] = nat(parts[2], lineno)
        elif kind == "map":
            maps[parts[1]] = matrix_directive(
                lines, parts, lineno, [a.name for a in quiver.arrows], "arrow", field, "rep"
            )
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if field is None:
        raise ParseError("missing 'rep' header")
    dim_vec = tuple(dims.get(v, 0) for v in quiver.vertices)
    map_list = tuple(
        maps.get(arrow.name) or Matrix.zeros(dim_vec[t], dim_vec[s], field)
        for arrow, (s, t) in zip(quiver.arrows, quiver.arrow_indices)
    )
    try:
        return Representation(quiver, field, dim_vec, map_list, name)
    except RepError as exc:
        raise ParseError(str(exc)) from exc


def format_rep(x: Representation, name=None) -> str:
    lines = [format_header("rep", name or x.name or "rep", x.field), f"quiver {x.quiver.name}"]
    lines.extend(f"dim {v} {d}" for v, d in zip(x.quiver.vertices, x.dims))
    for arrow, m in zip(x.quiver.arrows, x.maps):
        lines.extend(format_matrix(f"map {arrow.name}", m))
    return "\n".join(lines) + "\n"


def parse_morphism(text: str, source: Representation, target: Representation) -> Morphism:
    field = None
    blocks = {}
    quiver = source.quiver
    lines = directives(text)
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "morphism":
            field = header(parts, lineno)[1]
        elif kind == "quiver":
            check_quiver(parts, lineno, quiver, "morphism")
        elif kind == "block":
            blocks[parts[1]] = matrix_directive(
                lines, parts, lineno, quiver.vertices, "vertex", field, "morphism"
            )
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if field is None:
        raise ParseError("missing 'morphism' header")
    block_list = tuple(
        blocks.get(v) or Matrix.zeros(target.dims[i], source.dims[i], field)
        for i, v in enumerate(quiver.vertices)
    )
    try:
        return Morphism(source, target, block_list)
    except RepError as exc:
        raise ParseError(str(exc)) from exc


def format_morphism(f: Morphism, name="morphism") -> str:
    lines = [format_header("morphism", name, f.source.field), f"quiver {f.source.quiver.name}"]
    for v, m in zip(f.source.quiver.vertices, f.blocks):
        lines.extend(format_matrix(f"block {v}", m))
    return "\n".join(lines) + "\n"
