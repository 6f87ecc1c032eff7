"""Tree-shaped Ext bases, the glued quiver Q(M), the functor F_M, and checkers.

Given a sequence M = (M_1, ..., M_r) of representations of Q, the glued
quiver Q(M) has one vertex m_i per member and dim Ext(M_i, M_j) arrows
m_i -> m_j.  A representation X of Q(M) is turned into a representation
F_M(X) of Q whose map at an arrow rho has the r x r block structure

    block (i, j):  delta_ij (M_i)_rho (x) id  +  sum_l (chi^{ji}_l)_rho (x) X_{chi^{ji}_l}

where chi^{ji}_l runs over the chosen basis of Ext(M_j, M_i).  Tensor
products are laid out with the M-index major, so the q-th space of F_M(X)
is ordered by member index, then by basis vector of (M_i)_q, then by
basis vector of X_{m_i}.

The paper's two constructions are this one functor.  `build_gluing` glues
a loop-free sequence along Ext(M_i, M_j) for i != j.  The paragraph-5 loop
functor (`build_loop_gluing`) is the one-member case M = (M) glued along
Ext(M, M): its classes are the loops of L(n), and the sum above runs over
them in the diagonal block i = j = 1.  Each class is an elementary bundle
E(row, col) at one arrow, addressed by its coordinate in the codomain of
d_{X,Y} (`reps.bundle_coordinate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import FieldMismatchError, Matrix, block_diag, echelon, kron
from .quiver import Arrow, Quiver, format_quiver
from .reps import (
    Morphism,
    RepError,
    Representation,
    _check_pair,
    bundle_coordinate,
    check_ext_pair,
    d_rows,
    ext_dim,
    hom_dim,
    is_schurian,
)
from .textfmt import ParseError, directives, expect, integer


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

    def relabel(self, i, j, l):
        return ExtBasisElement(self.arrow, self.row, self.col, i, j, l)


def _ext_classes(x: Representation, y: Representation, coords):
    """(dim Ext(X, Y), the indices into coords of the unit vectors a greedy pass keeps).

    One forward elimination of [d_{X,Y} | unit columns at coords]: Ext, the
    cokernel of d, has dimension cod minus the pivots in d's columns, and a
    unit column is a pivot, so kept, when its class is independent of Im(d)
    and of the classes kept before it.  Forward pivots are the RREF's.
    """
    cod, dom, rows = d_rows(x, y)
    aug = (row + [int(c == r) for c in coords] for r, row in enumerate(rows))
    pivots = echelon(aug, dom + len(coords), x.field, False)[1]
    kept = [pc - dom for pc in pivots if pc >= dom]
    return cod - (len(pivots) - len(kept)), kept


def _is_basis(x: Representation, y: Representation, coords):
    """True when the unit vectors at coords map to a basis of Ext(X, Y)."""
    n, kept = _ext_classes(x, y, coords)
    return len(kept) == len(coords) == n


def _coordinates(x: Representation, y: Representation, elements):
    return [bundle_coordinate(x, y, e.arrow, e.row, e.col) for e in elements]


def tree_shaped_ext_basis(x: Representation, y: Representation):
    """Greedy tree-shaped basis of Ext(X, Y) in (arrow, row, col) lex order."""
    check_ext_pair(x, y)
    q = x.quiver
    elements = [
        ExtBasisElement(arrow.name, r, c)
        for arrow in q.arrows
        for r in range(y.dims[q.index(arrow.target)])
        for c in range(x.dims[q.index(arrow.source)])
    ]
    n, kept = _ext_classes(x, y, _coordinates(x, y, elements))
    if len(kept) != n:
        raise RepError("elementary bundles failed to span Ext; this cannot happen")
    return [elements[k] for k in kept]


def basis_is_independent(x: Representation, y: Representation, elements) -> bool:
    """True when the classes of the elements are independent mod Im(d_{X,Y}).

    An element at an unknown arrow or outside its arrow's block is no class,
    so it makes the answer False.
    """
    coords = _coordinates(x, y, elements)
    return None not in coords and len(_ext_classes(x, y, coords)[1]) == len(coords)


def _ext_basis(x: Representation, y: Representation, supplied, label):
    """The tree-shaped basis of Ext(X, Y), or the supplied elements once checked to be a basis."""
    if supplied is None:
        return tree_shaped_ext_basis(x, y)
    supplied = list(supplied)
    check_ext_pair(x, y)
    coords = _coordinates(x, y, supplied)
    if None in coords or not _is_basis(x, y, coords):
        raise RepError(f"supplied {label} is not a basis")
    return supplied


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
            chosen = None if bases is None else supplied.get((i, j), [])
            chosen = _ext_basis(reps[i - 1], reps[j - 1], chosen, f"Ext basis for pair ({i},{j})")
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


def _summand_starts(g: GluingData, x_dims, v):
    """First index of each summand M_i (x) X_{m_i} in the space of F_M(X) at vertex v."""
    out, pos = [], 0
    for m, d in zip(g.reps, x_dims):
        out.append(pos)
        pos += m.dims[v] * d
    return out


def apply_F(g: GluingData, x: Representation) -> Representation:
    if x.quiver != g.qm:
        raise RepError("representation does not live on the glued quiver Q(M)")
    if x.field != g.field:
        raise FieldMismatchError(g.field, x.field)
    q = g.quiver
    field = g.field
    add = field.add
    dims = glued_dims(g, x.dims)
    maps = []
    for k, (arrow, (s, t)) in enumerate(zip(q.arrows, q.arrow_indices)):
        row0, col0 = _summand_starts(g, x.dims, t), _summand_starts(g, x.dims, s)
        cols = dims[s]
        ent = [field.zero()] * (dims[t] * cols)
        for i, (m, d) in enumerate(zip(g.reps, x.dims)):  # (M_i)_rho (x) id on the diagonal
            mr, mc, me = m.dims[t], m.dims[s], m.maps[k].entries
            for a in range(mr):
                for c in range(mc):
                    for u in range(d):
                        pos = (row0[i] + a * d + u) * cols + col0[i] + c * d + u
                        ent[pos] = add(ent[pos], me[a * mc + c])
        # g.bases is aligned with the arrows of Q(M), so X_e is x.maps at the same position
        for e, xe in zip(g.bases, x.maps):
            if e.arrow != arrow.name:
                continue
            i, j = e.i - 1, e.j - 1  # E(row, col) (x) X_e: m_i -> m_j goes in block (j, i)
            di, dj = x.dims[i], x.dims[j]
            for u in range(dj):
                for w in range(di):
                    pos = (row0[j] + e.row * dj + u) * cols + col0[i] + e.col * di + w
                    ent[pos] = add(ent[pos], xe.entries[u * di + w])
        maps.append(Matrix(dims[t], cols, ent, field))
    return Representation(q, field, dims, tuple(maps))


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
    tail = [(k, e) for k, e in enumerate(g.bases) if e.i >= 2 and e.j >= 2]
    bases = [e.relabel(e.i - 1, e.j - 1, e.l) for _, e in tail]
    g2 = build_gluing(g.reps[1:], bases, name=g.qm.name + "_tail")
    # build_gluing keeps the (i, j)-lex order of the tail classes, so X's maps follow by position
    x2 = Representation(g2.qm, x.field, x.dims[1:], tuple(x.maps[k] for k, _ in tail))
    return g2, x2


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
    coords = []
    for i in range(2, g.r + 1):
        xi = x.dims[i - 1]
        for e in g.basis_for(i, 1):
            s = q.index(q.arrow(e.arrow).source)
            # E(row, col) (x) (t-th coordinate of X_{m_i}) on the summand M_i (x) X_{m_i} of FX_2
            off = _summand_starts(g2, x2.dims, s)[i - 2]
            coords.extend(
                bundle_coordinate(fx2, m1, e.arrow, e.row, off + e.col * xi + t) for t in range(xi)
            )
    # every Theta vector must be a new class, and together they must span Ext
    return _is_basis(fx2, m1, coords)


# -- the paragraph-5 loop functor --------------------------------------


def loop_quiver(n: int, name=None) -> Quiver:
    name = name or f"L{n}"
    arrows = tuple(Arrow(f"l{k}", "m", "m") for k in range(1, n + 1))
    return Quiver(name, ("m",), arrows, allows_loops=True)


def build_loop_gluing(m: Representation, basis=None) -> GluingData:
    """M glued to itself along a basis of Ext(M, M): the one-member gluing on L(n)."""
    if not is_schurian(m):
        raise RepError("loop gluing requires a Schurian representation")
    basis = _ext_basis(m, m, basis, "self-extension basis")
    bases = tuple(e.relabel(1, 1, l) for l, e in enumerate(basis, start=1))
    return GluingData((m,), bases, loop_quiver(len(bases)))


# -- serialization ------------------------------------------------------


def format_bases(elements) -> str:
    return "".join(
        f"extbasis {e.i} {e.j} {e.l} {e.arrow} {e.row + 1} {e.col + 1}\n" for e in elements
    )


def parse_bases(text: str):
    out = []
    for lineno, parts in directives(text):
        if parts[0] != "extbasis":
            continue
        expect(len(parts) == 7, lineno, "extbasis <i> <j> <l> <arrow> <row> <col>")
        fields = [integer(parts[k]) for k in (1, 2, 3, 5, 6)]
        if None in fields:
            raise ParseError(f"line {lineno}: non-integer field in extbasis line")
        i, j, l, row, col = fields
        if row < 1 or col < 1:
            raise ParseError(f"line {lineno}: extbasis rows/cols are 1-based")
        out.append(ExtBasisElement(parts[4], row - 1, col - 1, i, j, l))
    return out


def format_gluing(g: GluingData) -> str:
    return format_quiver(g.qm) + format_bases(g.bases)
