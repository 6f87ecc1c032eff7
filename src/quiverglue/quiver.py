"""Quivers, dimension vectors, the Euler form, reflections and root classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .textfmt import ParseError, directives, expect, integer


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str

    def is_loop(self):
        return self.source == self.target


@dataclass(frozen=True)
class Quiver:
    name: str
    vertices: tuple
    arrows: tuple
    allows_loops: bool = False
    # derived in __post_init__: vertex -> index, and (source, target) index per arrow
    _index: dict = field(init=False, repr=False, compare=False)
    arrow_indices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise QuiverError(f"arrow {a.name} refers to an undeclared vertex")
            if a.is_loop() and not self.allows_loops:
                raise QuiverError(f"arrow {a.name} is a loop but allows_loops is not set")
        index = {v: i for i, v in enumerate(self.vertices)}
        object.__setattr__(self, "_index", index)
        object.__setattr__(
            self, "arrow_indices", tuple((index[a.source], index[a.target]) for a in self.arrows)
        )

    # -- basic structure ----------------------------------------------

    @property
    def n(self):
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except (KeyError, TypeError):
            raise QuiverError(f"unknown vertex {vertex!r}") from None

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise QuiverError(f"unknown arrow {name!r}")

    def is_loop_free(self):
        return all(not a.is_loop() for a in self.arrows)

    def has_loop_at(self, vertex: str):
        return any(a.is_loop() and a.source == vertex for a in self.arrows)

    def unit_vector(self, vertex: str):
        e = [0] * self.n
        e[self.index(vertex)] = 1
        return tuple(e)

    def is_connected(self):
        return support_connected(self, tuple([1] * self.n))

    def check_dimvector(self, a):
        if len(a) != self.n:
            raise QuiverError(
                f"dimension vector of length {len(a)} for a quiver with {self.n} vertices"
            )
        return tuple(map(int, a))


def opposite(q: Quiver) -> Quiver:
    arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
    return Quiver(q.name + "_op", q.vertices, arrows, q.allows_loops)


# -- dimension vector helpers ------------------------------------------


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k, a):
    return tuple(k * x for x in a)


def parse_dimvector(text: str):
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    elif t.startswith("(") or t.endswith(")"):
        raise ParseError(f"unbalanced parentheses in dimension vector {text!r}")
    parts = tuple(integer(p) for p in t.split(",")) if t.strip() else ()
    if None in parts:
        raise ParseError(f"non-integer entry in dimension vector {text!r}")
    return parts


def format_dimvector(a):
    return "(" + ",".join(str(x) for x in a) + ")"


# -- forms and reflections ---------------------------------------------


def euler_form(q: Quiver, a, b) -> int:
    return euler_form_unchecked(q, q.check_dimvector(a), q.check_dimvector(b))


def euler_form_unchecked(q: Quiver, a, b) -> int:
    """euler_form on int tuples of length q.n, without validating them."""
    total = sum(map(mul, a, b))
    for s, t in q.arrow_indices:
        total -= a[s] * b[t]
    return total


def symmetrized_form(q: Quiver, a, b) -> int:
    return euler_form(q, a, b) + euler_form(q, b, a)


def reflect(q: Quiver, vertex: str, a):
    """Simple reflection s_q(a) = a - (a, e_q) e_q."""
    if q.has_loop_at(vertex):
        raise QuiverError("reflection undefined at loop vertex")
    a = q.check_dimvector(a)
    i = q.index(vertex)
    pairing = symmetrized_form(q, a, q.unit_vector(vertex))
    out = list(a)
    out[i] -= pairing
    return tuple(out)


def support_connected(q: Quiver, a) -> bool:
    a = q.check_dimvector(a)
    supp = {v for v in q.vertices if a[q.index(v)] > 0}
    if not supp:
        return False
    adj = {v: set() for v in supp}
    for arr in q.arrows:
        if arr.source in supp and arr.target in supp:
            adj[arr.source].add(arr.target)
            adj[arr.target].add(arr.source)
    seen = set()
    stack = [next(iter(supp))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == supp


@dataclass(frozen=True)
class RootClass:
    tag: str  # real | imaginary | not_root
    word: tuple = field(default_factory=tuple)  # reflection word, vertex names
    terminal: tuple = field(default_factory=tuple)

    def is_root(self):
        return self.tag in ("real", "imaginary")


def classify_root(q: Quiver, a) -> RootClass:
    """Classify a nonzero non-negative vector by reflecting it down.

    Repeatedly applies the simple reflection at the smallest vertex index
    with positive symmetrized pairing; each such step strictly decreases
    the vector, so the walk terminates at a unit vector (real), inside the
    fundamental domain (imaginary) or with a negative entry (not a root).
    """
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
        # (current, e_v) = 2 current_v - sum of current over the other ends of the arrows at v
        pairings = [2 * x for x in current]
        for s, t in q.arrow_indices:
            pairings[s] -= current[t]
            pairings[t] -= current[s]
        i = next((i for i, p in enumerate(pairings) if p > 0), None)
        if i is None:
            if support_connected(q, current):
                return RootClass("imaginary", tuple(word), current)
            return RootClass("not_root", tuple(word), current)
        word.append(q.vertices[i])
        current = current[:i] + (current[i] - pairings[i],) + current[i + 1 :]
        if current[i] < 0:
            return RootClass("not_root", tuple(word), current)


# -- text format --------------------------------------------------------


def parse_quiver(text: str) -> Quiver:
    name = None
    vertices = []
    arrows = []
    allows_loops = False
    for lineno, parts in directives(text):
        kind = parts[0]
        if kind == "quiver":
            expect(len(parts) == 2, lineno, "quiver <name>")
            name = parts[1]
        elif kind == "vertex":
            expect(len(parts) == 2, lineno, "vertex <id>")
            vertices.append(parts[1])
        elif kind == "arrow":
            expect(len(parts) == 4, lineno, "arrow <id> <src> <dst>")
            arrows.append(Arrow(*parts[1:]))
        elif kind == "allows_loops":
            allows_loops = True
        elif kind != "extbasis":  # provenance lines emitted alongside glued quivers
            raise ParseError(f"line {lineno}: unknown directive {kind!r}")
    if name is None:
        raise ParseError("missing 'quiver <name>' line")
    if not vertices:
        raise ParseError("quiver has no vertices")
    try:
        return Quiver(name, tuple(vertices), tuple(arrows), allows_loops)
    except QuiverError as exc:
        raise ParseError(str(exc)) from exc


def format_quiver(q: Quiver) -> str:
    lines = [f"quiver {q.name}"]
    lines.extend(f"vertex {v}" for v in q.vertices)
    lines.extend(f"arrow {a.name} {a.source} {a.target}" for a in q.arrows)
    if q.allows_loops:
        lines.append("allows_loops")
    return "\n".join(lines) + "\n"
