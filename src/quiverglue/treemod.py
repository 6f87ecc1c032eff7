"""Coefficient quivers, tree-module checks and universal-cover push-down."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, QQ, inverse
from .quiver import Arrow, Quiver, QuiverError
from .reps import Representation, RepError
from .textfmt import (
    ParseError, directives, expect, format_header, format_matrix, header, nat, read_matrix, shape,
)


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class CoefficientQuiver:
    """The coefficient digraph of a representation relative to a basis.

    Vertices are the basis elements (vertex name, index) with 1-based index;
    arrows are (arrow name, source basis element, target basis element,
    coefficient) for every nonzero matrix entry.
    """

    rep_name: str
    vertices: tuple  # ((q, i), ...) in vertex declaration order
    arrows: tuple  # ((rho, (q, i), (q', j), value), ...)

    @property
    def arrow_count(self):
        return len(self.arrows)

    def is_connected(self):
        if not self.vertices:
            return False
        adj = {v: set() for v in self.vertices}
        for _, b, b2, _ in self.arrows:
            adj[b].add(b2)
            adj[b2].add(b)
        seen = set()
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v] - seen)
        return len(seen) == len(self.vertices)

    def is_tree(self):
        return self.is_connected() and self.arrow_count == len(self.vertices) - 1


def _basis_matrices(x: Representation, basis):
    """Per-vertex basis-change matrices; identity when basis is None."""
    out = {}
    for v in x.quiver.vertices:
        d = x.dims[x.quiver.index(v)]
        if basis is None or v not in basis:
            out[v] = Matrix.identity(d, x.field)
        else:
            b = basis[v]
            if b.rows != d or b.cols != d:
                raise TreeError(f"basis at {v} has shape {b.rows}x{b.cols}, expected {d}x{d}")
            out[v] = b
    return out


def coefficient_quiver(x: Representation, basis=None) -> CoefficientQuiver:
    """Coefficient quiver of x with respect to a per-vertex basis.

    basis maps vertex names to invertible matrices whose columns are the new
    basis vectors; omitted vertices use the standard coordinate basis.
    """
    mats = _basis_matrices(x, basis)
    try:
        invs = {v: inverse(m) for v, m in mats.items()}
    except (RepError, ValueError) as exc:
        raise TreeError(str(exc)) from exc
    vertices = []
    for v in x.quiver.vertices:
        d = x.dims[x.quiver.index(v)]
        vertices.extend((v, i) for i in range(1, d + 1))
    arrows = []
    for a in x.quiver.arrows:
        m = invs[a.target] * x.map_for(a.name) * mats[a.source]
        for j in range(m.rows):
            for i in range(m.cols):
                val = m[j, i]
                if val != x.field.zero():
                    arrows.append((a.name, (a.source, i + 1), (a.target, j + 1), val))
    return CoefficientQuiver(x.name, tuple(vertices), tuple(arrows))


def arrow_count(x: Representation, basis=None) -> int:
    return coefficient_quiver(x, basis).arrow_count


def is_tree_basis(x: Representation, basis=None) -> bool:
    return coefficient_quiver(x, basis).is_tree()


def format_dot(gamma: CoefficientQuiver) -> str:
    """DOT-compatible text; vertices named `<q>_<index>`."""
    lines = [f"digraph {gamma.rep_name or 'coefficient_quiver'} {{"]
    for q, i in gamma.vertices:
        lines.append(f"  {q}_{i};")
    for rho, (q, i), (q2, j), val in gamma.arrows:
        lines.append(f'  {q}_{i} -> {q2}_{j} [label="{rho}:{val}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- universal cover fragments -------------------------------------------


@dataclass(frozen=True)
class CoverFragment:
    """A finite piece of the universal cover carrying a representation.

    Fragment vertices are opaque ids with labels (q, w): the Q-vertex they
    project to and an opaque word label.  Fragment arrows carry a Q-arrow
    label consistent with the endpoint labels.  dims/maps define a
    representation of the fragment quiver.
    """

    name: str
    quiver: Quiver  # base quiver Q
    vertex_ids: tuple  # fragment vertex ids in declaration order
    labels: dict  # id -> (q, w)
    arrows: tuple  # (id, src id, dst id, rho)
    dims: dict  # id -> nat
    maps: dict  # fragment arrow id -> Matrix
    field: object = QQ

    def __post_init__(self):
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise TreeError("duplicate fragment vertex ids")
        for vid in self.vertex_ids:
            q, _ = self.labels[vid]
            self.quiver.index(q)  # validates
            if self.dims.get(vid, 0) < 0:
                raise TreeError(f"negative dimension at fragment vertex {vid}")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise TreeError("duplicate fragment arrow ids")
        for aid, src, dst, rho in self.arrows:
            base = self.quiver.arrow(rho)
            if self.labels[src][0] != base.source or self.labels[dst][0] != base.target:
                raise TreeError(
                    f"fragment arrow {aid} labeled {rho} does not match its endpoint labels"
                )
            m = self.maps[aid]
            if m.rows != self.dims[dst] or m.cols != self.dims[src]:
                raise TreeError(f"map for fragment arrow {aid} has the wrong shape")

    def fragment_quiver(self) -> Quiver:
        return Quiver(
            self.name or "fragment",
            self.vertex_ids,
            tuple(Arrow(aid, src, dst) for aid, src, dst, _ in self.arrows),
        )

    def fragment_rep(self) -> Representation:
        fq = self.fragment_quiver()
        dims = tuple(self.dims[v] for v in self.vertex_ids)
        maps = tuple(self.maps[aid] for aid, _, _, _ in self.arrows)
        return Representation(fq, self.field, dims, maps, name=self.name)

    def is_tree_shaped(self) -> bool:
        fq = self.fragment_quiver()
        return fq.is_connected() and len(fq.arrows) == fq.n - 1


def push_down(fragment: CoverFragment) -> Representation:
    """Project a cover fragment down to a representation of the base quiver.

    X_q is the direct sum of the fragment spaces at vertices labeled q (in
    fragment declaration order); each fragment arrow labeled rho contributes
    its map as a block of X_rho, all other blocks are zero.
    """
    q = fragment.quiver
    field = fragment.field
    # per base vertex: ordered fragment vertices above it with block offsets
    offsets = {}
    dims = [0] * q.n
    for vid in fragment.vertex_ids:
        base = fragment.labels[vid][0]
        i = q.index(base)
        offsets[vid] = dims[i]
        dims[i] += fragment.dims[vid]
    maps = []
    for a in q.arrows:
        rows = [
            [field.zero()] * dims[q.index(a.source)] for _ in range(dims[q.index(a.target)])
        ]
        for aid, src, dst, rho in fragment.arrows:
            if rho != a.name:
                continue
            m = fragment.maps[aid]
            ro, co = offsets[dst], offsets[src]
            for r in range(m.rows):
                for c in range(m.cols):
                    rows[ro + r][co + c] = m[r, c]
        maps.append(Matrix.from_rows(rows, field, cols=dims[q.index(a.source)]))
    return Representation(q, field, tuple(dims), tuple(maps), name=fragment.name)


def fragment_from_coefficient_quiver(x: Representation, basis=None) -> CoverFragment:
    """Read a coefficient quiver back as a cover fragment (one line per basis element)."""
    gamma = coefficient_quiver(x, basis)
    ids = tuple(f"{q}_{i}" for q, i in gamma.vertices)
    labels = {f"{q}_{i}": (q, str(i)) for q, i in gamma.vertices}
    dims = {vid: 1 for vid in ids}
    arrows = []
    maps = {}
    for k, (rho, (q, i), (q2, j), val) in enumerate(gamma.arrows, start=1):
        aid = f"a{k}"
        arrows.append((aid, f"{q}_{i}", f"{q2}_{j}", rho))
        maps[aid] = Matrix.from_rows([[val]], x.field, cols=1)
    return CoverFragment(
        x.name or "fragment", x.quiver, ids, labels, tuple(arrows), dims, maps, x.field
    )


# -- text format ----------------------------------------------------------


def format_fragment(f: CoverFragment) -> str:
    lines = [format_header("fragment", f.name, f.field)]
    lines.extend(f"vertex {vid} label {' '.join(f.labels[vid])}" for vid in f.vertex_ids)
    lines.extend(f"arrow {aid} {src} {dst} label {rho}" for aid, src, dst, rho in f.arrows)
    lines.extend(f"dim {vid} {f.dims[vid]}" for vid in f.vertex_ids)
    for aid, _, _, _ in f.arrows:
        lines.extend(format_matrix(f"map {aid}", f.maps[aid]))
    return "\n".join(lines) + "\n"


def parse_fragment(text: str, quiver: Quiver) -> CoverFragment:
    name = None
    field = QQ
    vertex_ids = []
    labels = {}
    arrows = []
    dims = {}
    maps = {}
    references = []  # (line, "vertex" or "arrow", id) of each dim and map line
    lines = directives(text)
    for lineno, parts in lines:
        kind = parts[0]
        if kind == "fragment":
            name, field = header(parts, lineno)
        elif kind == "vertex":
            expect(len(parts) == 5 and parts[2] == "label", lineno, "vertex <id> label <q> <w>")
            vertex_ids.append(parts[1])
            labels[parts[1]] = (parts[3], parts[4])
        elif kind == "arrow":
            ok = len(parts) == 6 and parts[4] == "label"
            expect(ok, lineno, "arrow <id> <src> <dst> label <rho>")
            arrows.append((parts[1], parts[2], parts[3], parts[5]))
        elif kind == "dim":
            expect(len(parts) == 3, lineno, "dim <vertex> <n>")
            dims[parts[1]] = nat(parts[2], lineno)
            references.append((lineno, "vertex", parts[1]))
        elif kind == "map":
            expect(len(parts) == 3, lineno, "map <arrow> <rows>x<cols>")
            rows, cols = shape(parts[2], lineno)
            maps[parts[1]] = read_matrix(lines, rows, cols, field, f"fragment arrow {parts[1]}")
            references.append((lineno, "arrow", parts[1]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {kind!r} in fragment")
    if name is None:
        raise ParseError("missing 'fragment <name> over <field>' line")
    declared = {"vertex": set(vertex_ids), "arrow": {a[0] for a in arrows}}
    for lineno, what, ident in references:
        if ident not in declared[what]:
            raise ParseError(f"line {lineno}: unknown fragment {what} {ident!r}")
    for vid in vertex_ids:
        dims.setdefault(vid, 0)
    for aid, src, dst, _ in arrows:
        maps.setdefault(aid, Matrix.zeros(dims.get(dst, 0), dims.get(src, 0), field))
    try:
        return CoverFragment(
            name, quiver, tuple(vertex_ids), labels, tuple(arrows), dims, maps, field
        )
    except (TreeError, QuiverError, KeyError) as exc:
        raise ParseError(str(exc)) from exc
