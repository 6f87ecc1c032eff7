"""Independent brute-force oracles used to cross-check library verdicts."""

import itertools
import random
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from quiverglue.decompose import (
    MAX_SEARCH_NODES,
    DecomposeError,
    Oracle,
    SamplingError,
    _group_summands,
)
from quiverglue.linalg import (
    FieldMismatchError, Matrix, QQ, block_diag, hstack, inverse, kernel_basis, kron, rank, rank_rows,
    rref, solve,
)
from quiverglue.quiver import (
    QuiverError,
    RootClass,
    euler_form,
    reflect,
    support_connected,
    symmetrized_form,
)
from quiverglue.gluing import ExtBasisElement, arrow_name, build_gluing, glued_dims
from quiverglue.reps import (
    MAX_WITNESS_ATTEMPTS,
    EndAlgebra,
    Morphism,
    RepError,
    Representation,
    Verdict,
    _block_products,
    _check_pair,
    _combination,
    _derive_seed,
    _identity_blocks,
    _spectral_split,
    bundle_space_dim,
    compose,
    end_algebra,
    hom_dim,
    hom_space,
    identity_morphism,
    zero_morphism,
)

GRID_SMALL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
GRID_TINY = [Fraction(0), Fraction(1), Fraction(-1)]


def grid_has_idempotent(x):
    """Brute-force enumeration of idempotent endomorphisms on a coefficient grid.

    Finding one certifies decomposability; the grid is dense enough that on
    the small desk-scale inputs it is used for, finding none certifies
    indecomposability (validated against the field certificate in
    indecomposable()).
    """
    end = end_algebra(x)
    d = end.dim
    if d == 0:
        return False
    grid = GRID_SMALL if d <= 4 else GRID_TINY
    ident = identity_morphism(x)
    for coords in itertools.product(grid, repeat=d):
        e = end.element(coords)
        if e.is_zero() or e.blocks == ident.blocks:
            continue
        if compose(e, e).blocks == e.blocks:
            return True
    return False


def all_k2_reps(quiver, max_dim=2):
    """Every K(2) representation over Q with dims <= (max_dim, max_dim) and 0/1 entries."""
    for da, db in itertools.product(range(max_dim + 1), repeat=2):
        if da == 0 and db == 0:
            continue
        cells = da * db
        for bits in itertools.product([0, 1], repeat=2 * cells):
            a = Matrix(db, da, [QQ.coerce(v) for v in bits[:cells]], QQ)
            b = Matrix(db, da, [QQ.coerce(v) for v in bits[cells:]], QQ)
            yield Representation(quiver, QQ, (da, db), (a, b))


FRACTIONAL_PIVOTS = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2, 3))
FRACTIONAL_ENTRIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3))


def fractional_base_change(d, rng):
    """An invertible d x d matrix L D U over Q: D diagonal with pivots such as 2,
    3, 1/2 and -2/3, L and U unit triangular with entries such as 1/2 and -2/3."""
    lower = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    upper = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    for r in range(d):
        for c in range(r):
            lower[r][c] = rng.choice(FRACTIONAL_ENTRIES)
            upper[c][r] = rng.choice(FRACTIONAL_ENTRIES)
    diag = [rng.choice(FRACTIONAL_PIVOTS) for _ in range(d)]
    ent = [
        sum(lower[r][k] * diag[k] * upper[k][c] for k in range(d)) for r in range(d) for c in range(d)
    ]
    return Matrix(d, d, ent, QQ)


def fractional_conjugate(x, rng):
    """x over Q carried along a `fractional_base_change` P_v at every vertex:
    the map of rho: s -> t becomes P_t X_rho P_s^-1."""
    q = x.quiver
    base = [fractional_base_change(d, rng) for d in x.dims]
    maps = tuple(
        base[t] * m * (inverse(base[s]) if x.dims[s] else base[s])
        for (s, t), m in zip(q.arrow_indices, x.maps)
    )
    return Representation(q, QQ, x.dims, maps, x.name)


def k2_root_table(max_entry=4):
    """The expected root set on K(2) with entries <= max_entry."""
    roots = set()
    for n in range(max_entry + 1):
        for v in ((n, n), (n, n + 1), (n + 1, n)):
            if 0 < max(v) and max(v) <= max_entry:
                roots.add(v)
    roots.discard((0, 0))
    return roots


# -- per-arrow map families as dense validated matrices, before Ext classes
# -- became coordinates of d_{X,Y}


def unit_matrix(rows, cols, r, c, field=QQ):
    """Elementary matrix E(r, c), zero-based indices."""
    ent = [0] * (rows * cols)
    ent[r * cols + c] = 1
    return Matrix(rows, cols, ent, field)


def vstack(mats):
    mats = [m for m in mats]
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    flat = []
    for m in mats:
        flat.extend(m.entries)
    return Matrix(sum(m.rows for m in mats), cols, flat, mats[0].field)


def hom_block_dim(x, y):
    return sum(dx * dy for dx, dy in zip(x.dims, y.dims))


def blocks_to_vector(blocks):
    """The blocks of a morphism or a bundle as one vector: block by block, column-major inside."""
    return [m.entries[r * m.cols + c] for m in blocks for c in range(m.cols) for r in range(m.rows)]


@dataclass(frozen=True)
class MapBundle:
    """A raw per-arrow map family g_rho in Hom(X_q, Y_{q'}); an Ext(X, Y) cocycle."""

    source: Representation
    target: Representation
    blocks: tuple  # one Matrix per arrow, shaped Y_{q'} x X_q

    def __post_init__(self):
        x, y = self.source, self.target
        _check_pair(x, y)
        q = x.quiver
        if len(self.blocks) != len(q.arrows):
            raise RepError("one block per arrow expected")
        for arrow, b in zip(q.arrows, self.blocks):
            want = (y.dims[q.index(arrow.target)], x.dims[q.index(arrow.source)])
            if (b.rows, b.cols) != want:
                raise RepError(f"bundle block at arrow {arrow.name} has the wrong shape")
            if b.field != x.field:
                raise FieldMismatchError(x.field, b.field)


def elementary_bundle(x, y, arrow_name, row, col):
    """Bundle that is E(row, col) at one arrow and zero elsewhere (zero-based)."""
    q = x.quiver
    blocks = []
    for a in q.arrows:
        rows = y.dims[q.index(a.target)]
        cols = x.dims[q.index(a.source)]
        if a.name == arrow_name:
            blocks.append(unit_matrix(rows, cols, row, col, x.field))
        else:
            blocks.append(Matrix.zeros(rows, cols, x.field))
    return MapBundle(x, y, tuple(blocks))


def apply_d(x, y, blocks):
    """Evaluate d_{X,Y} on a per-vertex block family (not necessarily a morphism)."""
    q = x.quiver
    out = []
    for arrow in q.arrows:
        s, t = q.index(arrow.source), q.index(arrow.target)
        out.append(y.map_for(arrow.name) * blocks[s] - blocks[t] * x.map_for(arrow.name))
    return MapBundle(x, y, tuple(out))


def d_matrix_by_columns(x, y):
    """d_{X,Y} by definition: column j is apply_d on the j-th unit block family."""
    q = x.quiver
    field = x.field
    dom = hom_block_dim(x, y)
    cod = bundle_space_dim(x, y)
    cols = []
    for vi in range(q.n):
        dx, dy = x.dims[vi], y.dims[vi]
        for c in range(dx):
            for r in range(dy):
                blocks = [Matrix.zeros(y.dims[i], x.dims[i], field) for i in range(q.n)]
                blocks[vi] = unit_matrix(dy, dx, r, c, field)
                cols.append(blocks_to_vector(apply_d(x, y, blocks).blocks))
    ent = [field.zero()] * (cod * dom)
    for j, colvec in enumerate(cols):
        for i, val in enumerate(colvec):
            ent[i * dom + j] = val
    return Matrix(cod, dom, ent, field)


# -- elimination as one loop over the field's methods, before Q and F_p got
# -- their own kernels


def field_elimination(a, reduce_above=True):
    """`linalg._elimination` through the field's add/mul/inv: the reduced row
    echelon form and its pivots.  It always reduces fully, so with
    reduce_above=False only its pivots match the kernels'."""
    f = a.field
    rows = [a.row(r) for r in range(a.rows)]
    pivots = []
    pr = 0
    for pc in range(a.cols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                factor = rows[r][pc]
                rows[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def reference_kernel_basis(a):
    """The entries of `kernel_basis(a)`, read off `field_elimination`: one vector
    per free column, 1 there, 0 at the other free columns."""
    f = a.field
    reduced, pivots = field_elimination(a)
    basis = []
    for fc in (c for c in range(a.cols) if c not in pivots):
        v = [f.zero()] * a.cols
        v[fc] = f.one()
        for row, pc in zip(reduced, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(tuple(v))
    return basis


def reference_hom_space(x, y):
    """The `hom_space` basis as block entry tuples, from the kernel of the
    column-by-column d_{X,Y}."""
    out = []
    for vec in reference_kernel_basis(d_matrix_by_columns(x, y)):
        blocks, pos = [], 0
        for dx, dy in zip(x.dims, y.dims):
            seg = vec[pos : pos + dx * dy]
            blocks.append(tuple(seg[c * dy + r] for r in range(dy) for c in range(dx)))
            pos += dx * dy
        out.append(tuple(blocks))
    return out


# -- F_p elimination on dense rows, before it moved to sparse rows


def dense_elimination_fp(a, reduce_above):
    """`linalg.echelon` over F_p on the dense int rows of a matrix,
    with inline modular arithmetic.

    Left of the pivot column, the pivot row and every row still to be
    cleared are zero, so each row operation starts at the pivot column.
    """
    p = a.field.p
    n, m = a.rows, a.cols
    e = a.entries
    rows = [list(e[i * m : (i + 1) * m]) for i in range(n)]
    pivots = []
    pr = 0
    for pc in range(m):
        if pr == n:
            break
        for r in range(pr, n):
            if rows[r][pc]:
                break
        else:
            continue
        prow = rows[r]
        rows[r] = rows[pr]
        inv = pow(prow[pc], -1, p)
        tail = [x * inv % p for x in prow[pc:]]
        prow[pc:] = tail
        rows[pr] = prow
        for i in range(0 if reduce_above else pr + 1, n):
            row = rows[i]
            factor = row[pc]
            if factor and i != pr:
                g = p - factor
                row[pc:] = [(x + g * y) % p for x, y in zip(row[pc:], tail)]
        pivots.append(pc)
        pr += 1
    return rows, pivots


# -- the step-2 search and root classification before their pruning and inlining


def classify_root_by_reflection(q, a):
    """classify_root as it was first written: one reflect/symmetrized_form per step."""
    if not q.is_loop_free():
        raise QuiverError("root classification is unsupported on quivers with loops")
    a = q.check_dimvector(a)
    if any(x < 0 for x in a) or all(x == 0 for x in a):
        raise QuiverError("expected a nonzero non-negative dimension vector")
    word = []
    current = a
    while True:
        if sum(current) == 1:
            return RootClass("real", tuple(word), current)
        pairings = [symmetrized_form(q, current, q.unit_vector(v)) for v in q.vertices]
        pos = [i for i, p in enumerate(pairings) if p > 0]
        if not pos:
            if support_connected(q, current):
                return RootClass("imaginary", tuple(word), current)
            return RootClass("not_root", tuple(word), current)
        vertex = q.vertices[pos[0]]
        word.append(vertex)
        current = reflect(q, vertex, current)
        if any(x < 0 for x in current):
            return RootClass("not_root", tuple(word), current)


def sampled_schurian(oracle, a):
    """Schur test by sampling: the least dim End(X) over `oracle.config.samples`
    sampled modules X of dimension a is 1.

    One module with End(X) = k bounds the generic End by 1, so True is a
    certificate; over a small field every sample may miss the generic
    module, so False is not.  `Oracle.schurian` reads the canonical
    decomposition instead; this is its differential reference.
    """
    best = None
    for k in range(oracle.config.samples):
        x = oracle.sample(a, 3 * k + 7)
        h = hom_dim(x, x)
        best = h if best is None else min(best, h)
        if best == 1:
            break
    return best == 1


def reference_candidate_roots(quiver, a):
    """Exceptional-root candidates fitting under a componentwise."""
    out = []
    for cand in itertools.product(*[range(v + 1) for v in a]):
        if sum(cand) == 0 or cand == a:
            continue
        if euler_form(quiver, cand, cand) != 1:
            continue
        if not classify_root_by_reflection(quiver, cand).is_root():
            continue
        out.append(cand)
    out.sort(key=lambda v: (-sum(v), v))
    return out


def _compositions(total, parts):
    """All tuples of `parts` non-negative ints summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def reference_perp_candidates(quiver, bound):
    """The vectors `perp_simples` examined before its real-root walk, in its order:
    every composition of total 1 to `bound` with <v, v> = 1 that classifies as a root."""
    return [
        cand
        for total in range(1, bound + 1)
        for cand in _compositions(total, quiver.n)
        if euler_form(quiver, cand, cand) == 1
        and classify_root_by_reflection(quiver, cand).is_root()
    ]


def reference_search_reduced_sequence(quiver, oracle, a):
    """The unpruned step-2 search: every child is visited that passes the pair checks."""
    roots_sorted = reference_candidate_roots(quiver, a)
    pair_ok = {}
    schur = {}
    nodes = [0]

    def compatible(p, r):
        key = (p, r)
        cached = pair_ok.get(key)
        if cached is not None:
            return cached
        ok = euler_form(quiver, p, r) == 0 and euler_form(quiver, r, p) <= 0
        if ok:
            ok = oracle.hom(p, r) == 0 and oracle.hom(r, p) == 0
        pair_ok[key] = ok
        return ok

    def rec(remainder, start, seq, coeffs):
        nodes[0] += 1
        if nodes[0] > MAX_SEARCH_NODES:
            raise DecomposeError("search budget exhausted")
        if all(x == 0 for x in remainder):
            if not any(sum(r) > 1 for r in seq):
                return None
            for r in seq:
                if r not in schur:
                    schur[r] = oracle.schurian(r)
                if not schur[r]:
                    return None
            return (tuple(seq), tuple(coeffs))
        for idx in range(start, len(roots_sorted)):
            r = roots_sorted[idx]
            if schur.get(r) is False:
                continue
            if any(x > y for x, y in zip(r, remainder)):
                continue
            if not all(compatible(p, r) for p in seq):
                continue
            cmax = min(y // x for x, y in zip(r, remainder) if x > 0)
            for c in range(cmax, 0, -1):
                rem = tuple(y - c * x for x, y in zip(r, remainder))
                found = rec(rem, idx + 1, seq + [r], coeffs + [c])
                if found is not None:
                    return found
        return None

    try:
        return rec(a, 0, [], [])
    finally:
        del rec


# -- End(X) and the indecomposability decision on validated Morphisms, before
# -- they moved to coordinate vectors


def reference_element(end, coords):
    """sum coords[k] * basis[k], one validated Morphism per partial sum."""
    m = zero_morphism(end.rep, end.rep)
    for c, b in zip(coords, end.basis):
        if c != 0:
            m = m + b.scale(c)
    return m


def _morphism_coords(kernel_cols, m):
    coords = solve(kernel_cols, blocks_to_vector(m.blocks))
    if coords is None:
        raise RepError("morphism does not lie in the computed Hom space")
    return tuple(coords)


def reference_end_algebra(x):
    """End(X): each product composed as a Morphism, its coordinates by `solve`."""
    basis = hom_space(x, x)
    if not basis:
        return EndAlgebra(x, (), (), (), 0 if x.field == QQ else None)
    kernel_cols = hstack([Matrix.column(blocks_to_vector(b.blocks), x.field) for b in basis])
    n = len(basis)
    structure = tuple(
        tuple(_morphism_coords(kernel_cols, compose(bi, bj)) for bj in basis) for bi in basis
    )
    ident = _morphism_coords(kernel_cols, identity_morphism(x))
    radical_dim = None
    if x.field == QQ:
        # L_i has columns structure[i][j]; radical = kernel of trace(L_i L_j)
        left = [
            Matrix(n, n, [structure[i][j][r] for r in range(n) for j in range(n)], QQ)
            for i in range(n)
        ]
        gram = Matrix(n, n, [(left[i] * left[j]).trace() for i in range(n) for j in range(n)], QQ)
        radical_dim = n - rank(gram)
    return EndAlgebra(x, tuple(basis), structure, ident, radical_dim)


def minimal_polynomial_of_matrix(g):
    """Monic minimal polynomial of a square matrix over its field, low degree first."""
    f = g.field
    n = g.rows
    powers = [Matrix.identity(n, f)]
    while True:
        powers.append(powers[-1] * g)
        cols = hstack([Matrix.column(list(p.entries), f) for p in powers[:-1]])
        dep = solve(cols, list(powers[-1].entries))
        if dep is not None:
            return [f.neg(c) for c in dep] + [f.one()]


def _poly_eval_morphism(coeffs, g):
    x = g.source
    acc = zero_morphism(x, x)
    power = identity_morphism(x)
    for c in coeffs:
        if c != 0:
            acc = acc + power.scale(c)
        power = compose(power, g)
    return acc


def _sympy_factors_over_q(coeffs):
    """(t, sympy's irreducible factors over Q) of a polynomial given low degree first."""
    import sympy

    t = sympy.Symbol("t")
    lead_first = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return t, sympy.factor_list(sympy.Poly(lead_first, t))[1]


def _idempotent_from_minpoly(coeffs, g):
    import sympy

    t, factors = _sympy_factors_over_q(coeffs)
    if len(factors) < 2:
        return None
    a = factors[0][0] ** factors[0][1]
    b = sympy.prod(f ** e for f, e in factors[1:])
    u, _v, gcd = sympy.gcdex(sympy.Poly(a, t), sympy.Poly(b, t))
    if not sympy.Poly(gcd, t).is_one:
        return None
    ua = (sympy.Poly(u, t) * sympy.Poly(a, t)).all_coeffs()
    frac_coeffs = [Fraction(c.p, c.q) for c in [sympy.Rational(x) for x in reversed(ua)]]
    e = _poly_eval_morphism(frac_coeffs, g)
    if compose(e, e).blocks != e.blocks:
        return None
    if e.is_zero() or e.blocks == identity_morphism(g.source).blocks:
        return None
    return e


def reference_indecomposable(x, seed=0):
    """indecomposable() on Morphisms: all candidates built up front, action-matrix minpolys."""
    if x.field != QQ:
        return Verdict("unknown")
    if x.is_zero():
        return Verdict("decomposable")
    end = reference_end_algebra(x)
    semisimple_dim = end.dim - end.radical_dim
    if semisimple_dim == 1:
        return Verdict("indecomposable")
    rng = random.Random(seed)
    candidates = list(end.basis)
    for _ in range(MAX_WITNESS_ATTEMPTS):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(end.dim)]
        candidates.append(reference_element(end, coords))
    for g in candidates:
        coeffs = minimal_polynomial_of_matrix(block_diag(g.blocks, QQ))
        _, factors = _sympy_factors_over_q(coeffs)
        if len(factors) >= 2:
            e = _idempotent_from_minpoly(coeffs, g)
            if e is not None:
                return Verdict("decomposable", witness=e)
        elif factors[0][0].degree() == semisimple_dim:
            return Verdict("indecomposable")
    return Verdict("unknown")


# -- the sampled canonical decomposition: the verified summand type of sampled
# -- modules over F_p, which the library computed on oriented cycles before
# -- the exact recursion, and the reference its exact paths are tested against

SPLIT_ATTEMPTS = 16
MAX_ESCALATIONS = 4


class OracleUnstableError(SamplingError):
    def __init__(self, prime):
        super().__init__(f"oracle unstable over F_{prime}, increase samples; try a larger prime")


def generic_summands(x: Representation, seed=0):
    """Dimension vectors of the indecomposable summands of a sampled module.

    Runs in one End(X), on coordinate vectors: the summands of X are the
    images eX of the primitive idempotents e of a splitting of 1 into
    orthogonal idempotents (Krull-Schmidt), and nothing splits the module
    itself.  The corner algebra e End(X) e is End(eX), spanned by the
    e b_k e over the basis b_k.  When it is the scalars, eX is
    indecomposable with dimension vector the per-vertex ranks of e's
    blocks.  Otherwise e = f + (e - f) by the spectral idempotent f of
    g = e r e, r one draw mod p per basis element (so g is uniform in
    e End(X) e), with the same routine that decides indecomposability
    over Q.
    """
    if x.is_zero():
        return []
    rng = random.Random(seed)
    field = x.field
    p = field.characteristic
    end = end_algebra(x)
    n = end.dim
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    out = []
    stack = [list(end.identity_coords)]
    while stack:
        e = stack.pop()
        corner = [end.mul(e, end.mul(u, e)) for u in units]
        if rank_rows(corner, n, field) == 1:
            out.append(tuple(rank(b) for b in end.element(e).blocks))
            continue
        for _ in range(SPLIT_ATTEMPTS):
            g = end.mul(e, end.mul([rng.randrange(p) for _ in range(n)], e))
            _, f = _spectral_split(end, e, g)
            if f is not None:
                break
        else:
            raise OracleUnstableError(p)
        stack.append(f)
        stack.append([field.sub(a, b) for a, b in zip(e, f)])
    return out


def verify_canonical(oracle, a, summands) -> bool:
    """Sum identity and vanishing sampled ext; each summand eX has End(eX) = k, so is Schurian."""
    q = oracle.quiver
    total = [0] * q.n
    for root, mult in summands:
        for i, v in enumerate(root):
            total[i] += mult * v
    if tuple(total) != tuple(a):
        return False
    # Kac: ext = 0 between distinct summands, and ext(r, r) = 0 for a
    # repeated one (a real or isotropic Schur root)
    for i, (ri, mult) in enumerate(summands):
        for j, (rj, _) in enumerate(summands):
            if (i != j or mult > 1) and oracle.ext(ri, rj) != 0:
                return False
    return True


def sampled_canonical_decomposition(quiver, a, config):
    """The verified summand type of sampled modules of dimension a, a nonzero.

    The defining properties checked by `verify_canonical` determine the
    canonical decomposition uniquely (Kac), so a verified split is a
    certificate whatever the draws.  Draw k and its seed do not depend on
    the sample count, so each is split once; on failure the sample count
    doubles, up to MAX_ESCALATIONS times, and the splits are verified again.
    """
    cfg = config
    splits = []  # per draw k: its grouped summands, None where it did not split
    for _ in range(MAX_ESCALATIONS + 1):
        oracle = Oracle(quiver, cfg)
        for k in range(cfg.samples):
            if k == len(splits):
                x, seed = oracle.sample(a, 101 + 5 * k), _derive_seed(cfg.seed, 37 + k)
                try:
                    summands = _group_summands(generic_summands(x, seed=seed))
                except OracleUnstableError:
                    summands = None
                splits.append(summands)
            if splits[k] is not None and verify_canonical(oracle, a, splits[k]):
                return splits[k]
        cfg = replace(cfg, samples=cfg.samples * 2)
    raise OracleUnstableError(cfg.prime)


# -- the F_p splitting of sampled modules on raw block matrices, before it
# -- moved to End(X) coordinates and the routine `indecomposable` uses


def reference_splitting_idempotent(x, basis, rng):
    """A nontrivial idempotent of X from the minimal polynomial of g's action matrix."""
    import sympy

    f = x.field
    p = f.characteristic
    dims = x.dims
    t = sympy.Symbol("t")
    entries = [[m.entries for m in b.blocks] for b in basis]

    def mod(blocks):
        return [[v % p for v in b] for b in blocks]

    for _ in range(SPLIT_ATTEMPTS):
        g = mod(_combination([rng.randrange(p) for _ in basis], entries, dims))
        coeffs = minimal_polynomial_of_matrix(
            block_diag([Matrix._trusted(d, d, gv, f) for d, gv in zip(dims, g)], f)
        )
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], t, modulus=p, symmetric=False)
        with warnings.catch_warnings():  # sympy >= 1.13 warns as it sorts F_p factors
            warnings.simplefilter("ignore", DeprecationWarning)
            factors = sympy.factor_list(poly)[1]
        if len(factors) < 2:
            continue
        a = factors[0][0] ** factors[0][1]
        b = poly.one
        for fac, e in factors[1:]:
            b = b * fac**e
        s, _t2, h = sympy.Poly(a, t, modulus=p, symmetric=False).gcdex(
            sympy.Poly(b, t, modulus=p, symmetric=False)
        )
        if not h.is_one:
            continue
        ua = (s * sympy.Poly(a, t, modulus=p, symmetric=False)).all_coeffs()
        lift = [int(c) % p for c in reversed(ua)]
        powers = [_identity_blocks(dims)]
        while len(powers) < len(lift):
            powers.append(mod(_block_products(powers[-1], g, dims)))
        e = mod(_combination(lift, powers, dims))
        if mod(_block_products(e, e, dims)) != e:
            continue
        if e == powers[0] or not any(any(ev) for ev in e):
            continue
        return Morphism(x, x, tuple(Matrix._trusted(d, d, ev, f) for d, ev in zip(dims, e)))
    return None


def _column_space_basis(m: Matrix):
    _, pivots = rref(m)
    return [Matrix.column(m.col(c), m.field) for c in pivots]


def split_by_idempotent(x: Representation, e: Morphism):
    """Split X along an idempotent endomorphism into (image part, kernel part).

    Returns (X_im, X_ker, base_change) where base_change is the per-vertex
    invertible matrix whose leading columns span im(e_q).
    """
    if e.source != x or e.target != x:
        raise RepError("idempotent must be an endomorphism of X")
    q = x.quiver
    field = x.field
    bases = []
    im_dims = []
    for v in range(q.n):
        ev = e.blocks[v]
        if ev * ev != ev:
            raise RepError(f"not an idempotent: e o e differs from e at vertex {q.vertices[v]}")
        im = _column_space_basis(ev)
        cols = im + kernel_basis(ev)
        if cols:
            p = hstack(cols)
        else:
            p = Matrix.zeros(x.dims[v], 0, field)
        bases.append(p)
        im_dims.append(len(im))
    im_dims = tuple(im_dims)
    ker_dims = tuple(x.dims[v] - im_dims[v] for v in range(q.n))
    maps_im, maps_ker = [], []
    for arrow in q.arrows:
        s, t = q.index(arrow.source), q.index(arrow.target)
        pt_inv = inverse(bases[t]) if x.dims[t] else Matrix.zeros(0, 0, field)
        conj = pt_inv * x.map_for(arrow.name) * bases[s]
        a, b = im_dims[t], im_dims[s]
        top = Matrix.from_rows([conj.row(r)[:b] for r in range(a)], field, cols=b)
        bot = Matrix.from_rows(
            [conj.row(r)[b:] for r in range(a, conj.rows)], field, cols=conj.cols - b
        )
        off1 = Matrix.from_rows([conj.row(r)[b:] for r in range(a)], field, cols=conj.cols - b)
        off2 = Matrix.from_rows([conj.row(r)[:b] for r in range(a, conj.rows)], field, cols=b)
        if not (off1.is_zero() and off2.is_zero()):
            raise RepError("conjugated maps are not block diagonal; not a splitting idempotent")
        maps_im.append(top)
        maps_ker.append(bot)
    x_im = Representation(q, field, im_dims, tuple(maps_im))
    x_ker = Representation(q, field, ker_dims, tuple(maps_ker))
    return x_im, x_ker, bases


def reference_generic_summands(x, seed=0):
    """generic_summands on raw blocks: one draw mod p per Hom basis element and attempt,
    splitting the module itself along each idempotent and rebuilding Hom for each part."""
    rng = random.Random(seed)
    out = []
    stack = [x]
    while stack:
        y = stack.pop()
        if y.is_zero():
            continue
        basis = hom_space(y, y)
        if len(basis) == 1:
            out.append(y.dims)
            continue
        e = reference_splitting_idempotent(y, basis, rng)
        if e is None:
            raise OracleUnstableError(x.field.p)
        y1, y2, _ = split_by_idempotent(y, e)
        stack.append(y1)
        stack.append(y2)
    return out


# -- Ext-class independence by incremental row reduction, before it became the
# -- pivot columns of [d | V]


class IncrementalRank:
    """Tracks the row space of added vectors; used for greedy independence tests."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []  # reduced rows
        self.pivots = []  # pivot column of each row

    def rank(self):
        return len(self.rows)

    def add(self, vec) -> bool:
        """Add the vector; returns True when it enlarged the span."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                factor = v[p]
                v = [f.sub(x, f.mul(factor, y)) for x, y in zip(v, row)]
        for p in range(self.dim):
            if v[p] != 0:
                inv = f.inv(v[p])
                v = [f.mul(inv, x) for x in v]
                # keep stored rows mutually reduced
                for i, row in enumerate(self.rows):
                    if row[p] != 0:
                        factor = row[p]
                        self.rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(p)
                return True
        return False


def _image_tracker(x, y):
    """Im(d_{X,Y}) in an IncrementalRank, from the column-by-column d; its
    dim minus its rank is dim Ext(X, Y)."""
    d = d_matrix_by_columns(x, y)
    inc = IncrementalRank(x.field, d.rows)
    for c in range(d.cols):
        inc.add(d.col(c))
    return inc


def reference_tree_shaped_ext_basis(x, y):
    inc = _image_tracker(x, y)
    n = inc.dim - inc.rank()
    out = []
    if n == 0:
        return out
    q = x.quiver
    for arrow in q.arrows:
        for r in range(y.dims[q.index(arrow.target)]):
            for c in range(x.dims[q.index(arrow.source)]):
                elem = ExtBasisElement(arrow.name, r, c)
                if inc.add(blocks_to_vector(elementary_bundle(x, y, arrow.name, r, c).blocks)):
                    out.append(elem)
                    if len(out) == n:
                        return out
    raise RepError("elementary bundles failed to span Ext")


def reference_basis_is_independent(x, y, elements):
    inc = _image_tracker(x, y)
    return all(
        inc.add(blocks_to_vector(elementary_bundle(x, y, e.arrow, e.row, e.col).blocks))
        for e in elements
    )


def reference_check_theta_iso(g, x):
    """check_theta_iso with hand-embedded blocks and an incremental rank."""
    if x.dims[0] != 1:
        raise RepError("check_theta_iso requires dim X_{m_1} = 1")
    if g.r == 1:
        return True
    g2, x2 = reference_restrict_to_tail(g, x)
    fx2 = reference_apply_F(g2, x2)
    m1 = g.reps[0]
    q = g.quiver
    field = g.field
    inc = _image_tracker(fx2, m1)
    base_rank = inc.rank()
    count = 0
    independent = True
    offsets = []
    for vq in range(q.n):
        off = [0]
        for i, m in enumerate(g2.reps):
            off.append(off[-1] + m.dims[vq] * x2.dims[i])
        offsets.append(off)
    for i in range(2, g.r + 1):
        xi = x.dims[i - 1]
        for e in g.basis_for(i, 1):
            for t in range(xi):
                blocks = []
                for arrow in q.arrows:
                    s, tt = q.index(arrow.source), q.index(arrow.target)
                    rows, cols = m1.dims[tt], fx2.dims[s]
                    block = Matrix.zeros(rows, cols, field)
                    if arrow.name == e.arrow:
                        chi = unit_matrix(rows, g.reps[i - 1].dims[s], e.row, e.col, field)
                        piece = kron(chi, unit_matrix(1, xi, 0, t, field))
                        off = offsets[s][i - 2]
                        ent = [field.zero()] * (rows * cols)
                        for rr in range(piece.rows):
                            for cc in range(piece.cols):
                                ent[rr * cols + (off + cc)] = piece[rr, cc]
                        block = Matrix(rows, cols, ent, field)
                    blocks.append(block)
                count += 1
                if not inc.add(blocks_to_vector(MapBundle(fx2, m1, tuple(blocks)).blocks)):
                    independent = False
    target_dim = inc.dim - base_rank
    return independent and count == target_dim and inc.rank() - base_rank == target_dim


# -- the gluing functor as a grid of dense Kronecker blocks, and the loop
# -- functor as a separate routine, before both became one entry-writing apply_F


def _block_matrix(blocks, field):
    """Assemble a matrix from a 2D grid of blocks; degenerate rows/cols allowed."""
    rows = [hstack(row) if row else Matrix.zeros(0, 0, field) for row in blocks]
    return vstack(rows)


def reference_apply_F(g, x):
    if x.quiver != g.qm:
        raise RepError("representation does not live on the glued quiver Q(M)")
    if x.field != g.field:
        raise FieldMismatchError(g.field, x.field)
    q = g.quiver
    field = g.field
    r = g.r
    dims = glued_dims(g, x.dims)
    maps = []
    for arrow in q.arrows:
        s, t = q.index(arrow.source), q.index(arrow.target)
        grid = []
        for i in range(r):  # target block row: summand M_{i+1}
            row = []
            for j in range(r):  # source block column: summand M_{j+1}
                rows_b = g.reps[i].dims[t] * x.dims[i]
                cols_b = g.reps[j].dims[s] * x.dims[j]
                if i == j:
                    block = kron(
                        g.reps[i].map_for(arrow.name), Matrix.identity(x.dims[i], field)
                    )
                else:
                    block = Matrix.zeros(rows_b, cols_b, field)
                    # arrows m_{j+1} -> m_{i+1} of Q(M): classes in Ext(M_{j+1}, M_{i+1})
                    for e in g.basis_for(j + 1, i + 1):
                        if e.arrow != arrow.name:
                            continue
                        chi = unit_matrix(
                            g.reps[i].dims[t], g.reps[j].dims[s], e.row, e.col, field
                        )
                        block = block + kron(chi, x.map_for(arrow_name(e.i, e.j, e.l)))
                row.append(block)
            grid.append(row)
        maps.append(_block_matrix(grid, field))
    return Representation(g.quiver, field, dims, tuple(maps))


def reference_apply_loop_F(g, x):
    """The loop functor of the one-member gluing g = build_loop_gluing(M)."""
    m = g.reps[0]
    q = m.quiver
    field = m.field
    d = x.dims[0]
    dims = tuple(mq * d for mq in m.dims)
    maps = []
    for arrow in q.arrows:
        s, t = q.index(arrow.source), q.index(arrow.target)
        acc = kron(m.map_for(arrow.name), Matrix.identity(d, field))
        for k, e in enumerate(g.bases, start=1):
            if e.arrow != arrow.name:
                continue
            chi = unit_matrix(m.dims[t], m.dims[s], e.row, e.col, field)
            acc = acc + kron(chi, x.map_for(f"l{k}"))
        maps.append(acc)
    return Representation(q, field, dims, tuple(maps))


def _parse_arrow_name(name):
    body = name[1:]
    i, j, l = body.split("_")
    return int(i), int(j), int(l)


def reference_restrict_to_tail(g, x):
    """Sub-gluing over M_2..M_r and the restriction of X to m_2..m_r, maps found by name."""
    tail = [e.relabel(e.i - 1, e.j - 1, e.l) for e in g.bases if e.i >= 2 and e.j >= 2]
    g2 = build_gluing(g.reps[1:], tail, name=g.qm.name + "_tail")
    dims2 = x.dims[1:]
    maps2 = []
    for arrow in g2.qm.arrows:
        # arrow x{i}_{j}_{l} of the tail corresponds to x{i+1}_{j+1}_{l} upstairs
        i, j, l = _parse_arrow_name(arrow.name)
        maps2.append(x.map_for(arrow_name(i + 1, j + 1, l)))
    x2 = Representation(g2.qm, x.field, dims2, tuple(maps2))
    return g2, x2
