"""Tree-shaped Ext bases, the glued quiver Q(M), the functor F_M, and checkers.

Given a sequence M = (M_1, ..., M_r) of representations of Q, the glued
quiver Q(M) has one vertex m_i per member and dim Ext(M_i, M_j) arrows
m_i -> m_j.  A representation X of Q(M) is turned into a representation
F_M(X) of Q whose map at an arrow rho has the r x r block structure

    diagonal (i, i):      (M_i)_rho (x) id
    off-diagonal (i, j):  sum_l (chi^{ji}_l)_rho (x) X_{chi^{ji}_l}

where chi^{ji}_l runs over the chosen basis of Ext(M_j, M_i).  Tensor
products are laid out with the M-index major, so the q-th space of F_M(X)
is ordered by member index, then by basis vector of (M_i)_q, then by
basis vector of X_{m_i}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, block_diag, hstack, kron, rref, vstack
from .quiver import Arrow, ParseError, Quiver
from .reps import (
    MapBundle,
    Morphism,
    RepError,
    Representation,
    _check_pair,
    blocks_to_vector,
    d_matrix,
    elementary_bundle,
    ext_dim,
    hom_dim,
    is_schurian,
)


@dataclass(frozen=True)
class ExtBasisElement:
    """A tree-shaped Ext class: the elementary bundle E(row, col) at one arrow.

    Row and column indices are zero-based; the serialized form is 1-based.
    The pair indices (i, j) and the label l are 1-based positions in the
    glued sequence and are zero for a standalone basis.
    """

    arrow: str
    row: int
    col: int
    i: int = 0
    j: int = 0
    l: int = 0

    def bundle(self, x: Representation, y: Representation) -> MapBundle:
        return elementary_bundle(x, y, self.arrow, self.row, self.col)

    def relabel(self, i, j, l):
        return ExtBasisElement(self.arrow, self.row, self.col, i, j, l)


def _new_classes(d: Matrix, vectors):
    """Indices of the vectors a greedy pass keeps, in order, modulo the column space of d.

    A vector is kept when its class is independent of the classes kept
    before it: these are the pivot columns of [d | V] that fall in V.
    """
    aug = Matrix.from_rows(
        [d.row(r) + [v[r] for v in vectors] for r in range(d.rows)],
        d.field,
        cols=d.cols + len(vectors),
    )
    return [c - d.cols for c in rref(aug)[1] if c >= d.cols]


def _bundle_vectors(x: Representation, y: Representation, elements):
    return [blocks_to_vector(e.bundle(x, y).blocks) for e in elements]


def tree_shaped_ext_basis(x: Representation, y: Representation):
    """Greedy tree-shaped basis of Ext(X, Y) in (arrow, row, col) lex order."""
    _check_pair(x, y)
    n = ext_dim(x, y)
    if n == 0:
        return []
    q = x.quiver
    elements = [
        ExtBasisElement(arrow.name, r, c)
        for arrow in q.arrows
        for r in range(y.dims[q.index(arrow.target)])
        for c in range(x.dims[q.index(arrow.source)])
    ]
    kept = _new_classes(d_matrix(x, y), _bundle_vectors(x, y, elements))
    if len(kept) != n:
        raise RepError("elementary bundles failed to span Ext; this cannot happen")
    return [elements[k] for k in kept]


def basis_is_independent(x: Representation, y: Representation, elements) -> bool:
    """True when the classes of the elements are independent mod Im(d_{X,Y})."""
    elements = list(elements)
    kept = _new_classes(d_matrix(x, y), _bundle_vectors(x, y, elements))
    return len(kept) == len(elements)


def arrow_name(i, j, l):
    return f"x{i}_{j}_{l}"


@dataclass(frozen=True)
class GluingData:
    reps: tuple  # M_1 .. M_r
    bases: tuple  # flat tuple of ExtBasisElement, aligned with qm.arrows
    qm: Quiver

    @property
    def r(self):
        return len(self.reps)

    @property
    def quiver(self):
        return self.reps[0].quiver

    @property
    def field(self):
        return self.reps[0].field

    def basis_for(self, i, j):
        return tuple(e for e in self.bases if (e.i, e.j) == (i, j))


def build_gluing(reps, bases=None, name="QM") -> GluingData:
    reps = tuple(reps)
    if not reps:
        raise RepError("empty gluing sequence")
    for m in reps[1:]:
        _check_pair(reps[0], m)
    if not reps[0].quiver.is_loop_free():
        raise RepError("gluing requires a loop-free base quiver")
    r = len(reps)
    supplied = {}
    if bases is not None:
        for e in bases:
            supplied.setdefault((e.i, e.j), []).append(e)
    vertices = tuple(f"m{i}" for i in range(1, r + 1))
    arrows = []
    flat = []
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            x, y = reps[i - 1], reps[j - 1]
            n = ext_dim(x, y)
            if bases is None:
                chosen = tree_shaped_ext_basis(x, y)
            else:
                chosen = supplied.get((i, j), [])
                if len(chosen) != n or not basis_is_independent(x, y, chosen):
                    raise RepError(f"supplied Ext basis for pair ({i},{j}) is not a basis")
            for l, e in enumerate(chosen, start=1):
                e = e.relabel(i, j, l)
                flat.append(e)
                arrows.append(Arrow(arrow_name(i, j, l), f"m{i}", f"m{j}"))
    qm = Quiver(name, vertices, tuple(arrows))
    return GluingData(reps, tuple(flat), qm)


def glued_dims(g: GluingData, x_dims):
    q = g.quiver
    return tuple(
        sum(m.dims[vq] * x_dims[i] for i, m in enumerate(g.reps)) for vq in range(q.n)
    )


def _block_matrix(blocks, field):
    """Assemble a matrix from a 2D grid of blocks; degenerate rows/cols allowed."""
    rows = [hstack(row) if row else Matrix.zeros(0, 0, field) for row in blocks]
    return vstack(rows)


def apply_F(g: GluingData, x: Representation) -> Representation:
    if x.quiver != g.qm:
        raise RepError("representation does not live on the glued quiver Q(M)")
    if x.field != g.field:
        raise RepError("field mismatch")
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
                        chi = Matrix.unit(
                            g.reps[i].dims[t], g.reps[j].dims[s], e.row, e.col, field
                        )
                        block = block + kron(chi, x.map_for(arrow_name(e.i, e.j, e.l)))
                row.append(block)
            grid.append(row)
        maps.append(_block_matrix(grid, field))
    return Representation(g.quiver, field, dims, tuple(maps))


def apply_F_mor(g: GluingData, f: Morphism) -> Morphism:
    if f.source.quiver != g.qm:
        raise RepError("morphism does not live on the glued quiver Q(M)")
    fx = apply_F(g, f.source)
    fy = apply_F(g, f.target)
    blocks = tuple(
        block_diag(
            [kron(Matrix.identity(m.dims[vq], g.field), f.blocks[i]) for i, m in enumerate(g.reps)],
            g.field,
        )
        for vq in range(g.quiver.n)
    )
    return Morphism(fx, fy, blocks)


# -- hypothesis checkers -----------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    failures: tuple  # (label, detail) pairs

    def lines(self):
        out = [f"ok: {'yes' if self.ok else 'no'}"]
        for label, detail in self.failures:
            out.append(f"fail {label}: {detail}")
        return out


def check_elementary(reps) -> ConditionReport:
    """Elementary sequence: each member Schurian, Hom(M_i, M_j) = 0 for i != j."""
    reps = tuple(reps)
    failures = []
    for i, m in enumerate(reps, start=1):
        if not is_schurian(m):
            failures.append((f"schurian {i}", f"dim End(M_{i}) = {hom_dim(m, m)}"))
    for i, mi in enumerate(reps, start=1):
        for j, mj in enumerate(reps, start=1):
            if i != j:
                h = hom_dim(mi, mj)
                if h != 0:
                    failures.append((f"hom {i} {j}", f"dim Hom(M_{i},M_{j}) = {h}"))
    return ConditionReport(not failures, tuple(failures))


@dataclass(frozen=True)
class Theorem36Report:
    cond1: ConditionReport  # M_j Schurian for j >= 2
    cond2: ConditionReport  # Hom(M_i,M_j) = Ext(M_i,M_j) = 0 for i < j
    cond3: ConditionReport  # Hom(M_j,M_i) = 0 for i, j >= 2, i != j
    theta_conditions: tuple  # subset of ("a", "b", "c", "d") that hold

    @property
    def ok(self):
        return self.cond1.ok and self.cond2.ok and self.cond3.ok

    def lines(self):
        out = [f"conditions: {'pass' if self.ok else 'fail'}"]
        for tag, rep in (("1", self.cond1), ("2", self.cond2), ("3", self.cond3)):
            out.append(f"condition {tag}: {'pass' if rep.ok else 'fail'}")
            for label, detail in rep.failures:
                out.append(f"fail {label}: {detail}")
        out.append(
            "theta sufficient conditions: "
            + (" ".join(self.theta_conditions) if self.theta_conditions else "none")
        )
        return out


def _theta_condition_b(hom1, extm, r):
    """Search a partition {2..r} = I1 | I2 with Hom(M_i, M_1) = 0 on I2 and
    Ext(M_i, M_j) = 0 whenever i or j lies in I1 (i != j, i, j >= 2)."""
    from itertools import combinations

    idx = list(range(2, r + 1))
    for size in range(len(idx) + 1):
        for i1 in combinations(idx, size):
            s1 = set(i1)
            if any(hom1[i] != 0 for i in idx if i not in s1):
                continue
            if any(
                extm[(i, j)] != 0
                for i in idx
                for j in idx
                if i != j and (i in s1 or j in s1)
            ):
                continue
            return True
    return False


def check_theorem36(reps) -> Theorem36Report:
    reps = tuple(reps)
    r = len(reps)
    f1, f2, f3 = [], [], []
    for j in range(2, r + 1):
        if not is_schurian(reps[j - 1]):
            f1.append((f"schurian {j}", f"dim End(M_{j}) = {hom_dim(reps[j-1], reps[j-1])}"))
    homs = {}
    exts = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i != j:
                homs[(i, j)] = hom_dim(reps[i - 1], reps[j - 1])
                exts[(i, j)] = ext_dim(reps[i - 1], reps[j - 1])
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            if homs[(i, j)] != 0:
                f2.append((f"hom {i} {j}", f"dim Hom(M_{i},M_{j}) = {homs[(i, j)]}"))
            if exts[(i, j)] != 0:
                f2.append((f"ext {i} {j}", f"dim Ext(M_{i},M_{j}) = {exts[(i, j)]}"))
    for i in range(2, r + 1):
        for j in range(2, r + 1):
            if i != j and homs[(j, i)] != 0:
                f3.append((f"hom {j} {i}", f"dim Hom(M_{j},M_{i}) = {homs[(j, i)]}"))
    theta = []
    hom1 = {i: homs[(i, 1)] for i in range(2, r + 1)}
    extm = {k: v for k, v in exts.items() if k[0] >= 2 and k[1] >= 2}
    if all(v == 0 for v in hom1.values()):
        theta.append("a")
    if _theta_condition_b(hom1, extm, r):
        theta.append("b")
    if r == 2:
        theta.append("c")
    if all(v == 0 for v in extm.values()):
        theta.append("d")
    return Theorem36Report(
        ConditionReport(not f1, tuple(f1)),
        ConditionReport(not f2, tuple(f2)),
        ConditionReport(not f3, tuple(f3)),
        tuple(theta),
    )


def restrict_to_tail(g: GluingData, x: Representation):
    """Sub-gluing over M_2..M_r and the restriction of X to m_2..m_r."""
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


def _parse_arrow_name(name):
    body = name[1:]
    i, j, l = body.split("_")
    return int(i), int(j), int(l)


def check_theta_iso(g: GluingData, x: Representation) -> bool:
    """Honest rank check that Theta^1_X is an isomorphism onto Ext(FX_2, M_1)."""
    if x.dims[0] != 1:
        raise RepError("check_theta_iso requires dim X_{m_1} = 1")
    if g.r == 1:
        return True
    g2, x2 = restrict_to_tail(g, x)
    fx2 = apply_F(g2, x2)
    m1 = g.reps[0]
    q = g.quiver
    field = g.field
    # offsets of the summand blocks of (FX_2)_q per vertex
    offsets = []
    for vq in range(q.n):
        off = [0]
        for i, m in enumerate(g2.reps):
            off.append(off[-1] + m.dims[vq] * x2.dims[i])
        offsets.append(off)
    vectors = []
    for i in range(2, g.r + 1):
        basis_i1 = g.basis_for(i, 1)
        xi = x.dims[i - 1]
        for e in basis_i1:
            for t in range(xi):
                blocks = []
                for arrow in q.arrows:
                    s, tt = q.index(arrow.source), q.index(arrow.target)
                    rows = m1.dims[tt]
                    cols = fx2.dims[s]
                    block = Matrix.zeros(rows, cols, field)
                    if arrow.name == e.arrow:
                        chi = Matrix.unit(rows, g.reps[i - 1].dims[s], e.row, e.col, field)
                        proj = Matrix.unit(1, xi, 0, t, field)
                        piece = kron(chi, proj)
                        off = offsets[s][i - 2]
                        block = hstack(
                            [
                                Matrix.zeros(rows, off, field),
                                piece,
                                Matrix.zeros(rows, cols - off - piece.cols, field),
                            ]
                        )
                    blocks.append(block)
                vectors.append(blocks_to_vector(MapBundle(fx2, m1, tuple(blocks)).blocks))
    # every Theta vector must be a new class, and together they must span Ext
    kept = _new_classes(d_matrix(fx2, m1), vectors)
    return len(kept) == len(vectors) == ext_dim(fx2, m1)


# -- the paragraph-5 loop functor --------------------------------------


def loop_quiver(n: int, name=None) -> Quiver:
    name = name or f"L{n}"
    arrows = tuple(Arrow(f"l{k}", "m", "m") for k in range(1, n + 1))
    return Quiver(name, ("m",), arrows, allows_loops=True)


@dataclass(frozen=True)
class LoopGluingData:
    rep: Representation
    basis: tuple  # ExtBasisElement self-extension coordinates
    ln: Quiver

    @property
    def n(self):
        return len(self.basis)


def build_loop_gluing(m: Representation, basis=None) -> LoopGluingData:
    if not is_schurian(m):
        raise RepError("loop gluing requires a Schurian representation")
    if basis is None:
        basis = tree_shaped_ext_basis(m, m)
    else:
        basis = list(basis)
        if len(basis) != ext_dim(m, m) or not basis_is_independent(m, m, basis):
            raise RepError("supplied self-extension basis is not a basis")
    basis = tuple(e.relabel(1, 1, l) for l, e in enumerate(basis, start=1))
    return LoopGluingData(m, basis, loop_quiver(len(basis)))


def apply_loop_F(lg: LoopGluingData, x: Representation) -> Representation:
    if x.quiver != lg.ln:
        raise RepError(f"representation does not live on L({lg.n})")
    if x.field != lg.rep.field:
        raise RepError("field mismatch")
    m = lg.rep
    q = m.quiver
    field = m.field
    d = x.dims[0]
    dims = tuple(mq * d for mq in m.dims)
    maps = []
    for arrow in q.arrows:
        s, t = q.index(arrow.source), q.index(arrow.target)
        acc = kron(m.map_for(arrow.name), Matrix.identity(d, field))
        for k, e in enumerate(lg.basis, start=1):
            if e.arrow != arrow.name:
                continue
            chi = Matrix.unit(m.dims[t], m.dims[s], e.row, e.col, field)
            acc = acc + kron(chi, x.map_for(f"l{k}"))
        maps.append(acc)
    return Representation(q, field, dims, tuple(maps))


# -- serialization ------------------------------------------------------


def format_bases(elements) -> str:
    lines = []
    for e in elements:
        lines.append(f"extbasis {e.i} {e.j} {e.l} {e.arrow} {e.row + 1} {e.col + 1}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_bases(text: str):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "extbasis":
            continue
        if len(parts) != 7:
            raise ParseError(f"line {lineno}: expected 'extbasis <i> <j> <l> <arrow> <row> <col>'")
        try:
            i, j, l = int(parts[1]), int(parts[2]), int(parts[3])
            row, col = int(parts[5]), int(parts[6])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in extbasis line") from None
        if row < 1 or col < 1:
            raise ParseError(f"line {lineno}: extbasis rows/cols are 1-based")
        out.append(ExtBasisElement(parts[4], row - 1, col - 1, i, j, l))
    return out


def format_gluing(g: GluingData) -> str:
    from .quiver import format_quiver

    return format_quiver(g.qm) + format_bases(g.bases)
