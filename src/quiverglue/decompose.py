"""Canonical decomposition, perpendicular-category simples, and the
root-decomposition algorithm into reduced exceptional sequences.

Generic hom is exact at every prime: a Hom between sampled modules bounds
it above and max(0, <a, b>) below, so a sample that meets that floor
settles it, and otherwise it is <a, b> + ext(a, b) by Schofield's recursion
(`GenericExt`).  Schur-ness is read off the canonical decomposition: by
Kac, a vector is a Schur root iff its canonical decomposition is a x1.

The canonical decomposition depends only on the Euler form, on any quiver,
and is computed exactly, with no sampling, on one of two paths picked by
the quiver.  Without an oriented cycle it merges Kronecker pairs in a
sequence of Schur roots (Derksen-Weyman, "On the canonical decomposition of
quiver representations", 2002), which is fast.  With one it splits a at a
b with ext(b, a - b) = ext(a - b, b) = 0, as a general module of a is then
a general one of b plus one of a - b (Kac, "Infinite root systems,
representations of graphs and invariant theory II", 1982), and recurses on
both parts, by the same generic ext.  Schofield's recursion is exponential
in general, so it has a budget.

One `Oracle` serves a whole command: `exceptional_sequence_decomposition`,
`perp_simples`, the step-2 search and `verify_reduced_sequence` (and its
`sample_exceptional_rep`) take the caller's Oracle, so no answer is computed
twice, nor is a sampled module drawn twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import le, mul

from .linalg import DEFAULT_PRIME, Matrix, PrimeField, QQ, rank, solve
from .quiver import (
    Quiver,
    classify_root,
    euler_form,
    euler_form_unchecked,
    format_dimvector,
    vec_scale,
    vec_sub,
)
from .reps import Representation, _derive_seed, hom_dim, random_rep


class DecomposeError(ValueError):
    pass


class SamplingError(DecomposeError):
    """Sampling over F_p found no answer, which over a larger prime it may."""


class BoundExhaustedError(DecomposeError):
    """A search ran out of its bound or budget undecided."""


class MergeDefectError(DecomposeError):
    """The exact canonical decomposition reached a state its theory rules out."""


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 5
    prime: int = DEFAULT_PRIME
    seed: int = 0
    bound: int | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise DecomposeError(f"samples must be at least 1, got {self.samples}")
        if self.bound is not None and self.bound < 1:
            raise DecomposeError(f"bound must be at least 1, got {self.bound}")
        PrimeField(self.prime)  # a non-prime modulus raises ModulusError before any work


class Oracle:
    """Cached generic hom/ext and canonical-decomposition queries on one quiver, all exact.

    A sampled module is a function of (quiver, config, vector, index), so one
    Oracle draws each of them once and hands the same object to every later
    query that samples it; the cache, and the `GenericExt`, go with the Oracle.
    """

    def __init__(self, quiver: Quiver, config: OracleConfig):
        self.quiver = quiver
        self.config = config
        self._hom = {}
        self._canonical = {}  # vector -> CanonicalDecomposition
        self._samples = {}  # (vector, index) -> the module drawn there

    def sample(self, a, index) -> Representation:
        key = (tuple(a), index)
        x = self._samples.get(key)
        if x is None:
            x = self._samples[key] = random_rep(
                self.quiver, a, self.config.prime, _derive_seed(self.config.seed, index)
            )
        return x

    def hom(self, a, b) -> int:
        key = (tuple(a), tuple(b))
        if key not in self._hom:
            form = euler_form(self.quiver, a, b)
            floor = max(0, form)
            # a sampled Hom bounds generic hom above, and the floor below
            draws = range(1, 2 * self.config.samples, 2)
            if any(hom_dim(self.sample(a, i), self.sample(b, i + 1)) == floor for i in draws):
                self._hom[key] = floor
            else:
                self._hom[key] = form + self._generic.ext(*key)
        return self._hom[key]

    @cached_property
    def _generic(self) -> GenericExt:
        return GenericExt(self.quiver)

    def ext(self, a, b) -> int:
        return self.hom(a, b) - euler_form(self.quiver, a, b)

    def canonical(self, a) -> CanonicalDecomposition:
        """`canonical_decomposition` of a, computed once; exact, so the config is not read."""
        key = tuple(a)
        if key not in self._canonical:
            self._canonical[key] = canonical_decomposition(self.quiver, key)
        return self._canonical[key]

    def schurian(self, a) -> bool:
        return self.canonical(a).is_schur()

    def known_non_schur(self, a) -> bool:
        """True when the cache already rules a out as a Schur root; computes nothing."""
        decomp = self._canonical.get(tuple(a))
        return decomp is not None and not decomp.is_schur()

    def exceptional_root(self, a) -> bool:
        return euler_form(self.quiver, a, a) == 1 and self.schurian(a)


# -- canonical decomposition --------------------------------------------


@dataclass(frozen=True)
class CanonicalDecomposition:
    quiver: Quiver
    vector: tuple
    summands: tuple  # (root, multiplicity) pairs, deterministic order

    def lines(self):
        return [f"summand {format_dimvector(r)} x{m}" for r, m in self.summands]

    def is_schur(self) -> bool:
        # a is a Schur root iff its canonical decomposition is a x1 (Kac)
        return self.summands == ((self.vector, 1),)


def _group_summands(vectors):
    counts = {}
    for v in vectors:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: (-sum(kv[0]), kv[0])))


def _kronecker_summands(r, a, b):
    """Canonical decomposition of (a, b) on the r-arrow Kronecker quiver, a at the source.

    (root, multiplicity) pairs with roots as (source, sink) pairs, in the
    order the merge inserts them.  Off the imaginary cone a^2 + b^2 - rab <= 0,
    (a, b) lies in the cone of two consecutive real Schur roots (c_{n-1}, c_n),
    (c_n, c_{n+1}) or their transposes, c_0 = 0, c_1 = 1, c_{k+1} = r c_k - c_{k-1}.
    """
    if b == 0:
        return [((1, 0), a)]
    if a == 0:
        return [((0, 1), b)]
    if r == 1:
        out = [((1, 0), a - b), ((1, 1), b)] if a > b else [((1, 1), a), ((0, 1), b - a)]
    elif a * a + b * b - r * a * b <= 0:
        out = [((1, 1), a)] if r == 2 else [((a, b), 1)]
    else:
        c = [0, 1, r]
        n = 1
        while True:
            if b > a:
                x, y = b * c[n] - a * c[n + 1], a * c[n] - b * c[n - 1]
                out = [((c[n], c[n + 1]), y), ((c[n - 1], c[n]), x)]
            else:
                x, y = a * c[n] - b * c[n + 1], b * c[n] - a * c[n - 1]
                out = [((c[n], c[n - 1]), x), ((c[n + 1], c[n]), y)]
            if x >= 0 and y >= 0:
                break
            n += 1
            c.append(r * c[-1] - c[-2])
    return [(root, m) for root, m in out if m > 0]


def _merged_summands(quiver: Quiver, simples, coeffs):
    """The canonical decomposition of sum c_i s_i, from the Euler form alone (Derksen-Weyman).

    Keeps a sequence of (Schur root, multiplicity) entries, starting from the
    simples s_i in an order with every arrow's target before its source, each
    with its coefficient c_i; every such order gives the same result.  While
    some i < j has <b_j, b_i> < 0 (the closest such pair, then the leftmost),
    the entries strictly between them move out of the way, to the left when
    orthogonal to b_i and to the right when b_j is orthogonal to them, and
    the pair becomes the canonical decomposition of (m_j, m_i) on the
    Kronecker quiver with -<b_j, b_i> arrows, its root (x, y) read as
    x b_j + y b_i.  A new root g of multiplicity m > 1 is kept as m g when
    <g, g> < 0 and as m entries of multiplicity 1 when <g, g> = 0.
    """

    def form(x, y):
        return euler_form_unchecked(quiver, x, y)

    seq = list(zip(simples, coeffs))
    while True:
        pair = next(
            (
                (i, i + d)
                for d in range(1, len(seq))
                for i in range(len(seq) - d)
                if form(seq[i + d][0], seq[i][0]) < 0
            ),
            None,
        )
        if pair is None:
            break
        i, j = pair
        (bi, mi), (bj, mj) = seq[i], seq[j]
        left, right = [], []
        for entry in seq[i + 1 : j]:
            if form(entry[0], bi) == 0:
                left.append(entry)
            elif form(bj, entry[0]) == 0:
                right.append(entry)
            else:
                raise MergeDefectError(
                    f"no merge order for {format_dimvector(bi)} x{mi} and "
                    f"{format_dimvector(bj)} x{mj} past {format_dimvector(entry[0])}; "
                    "this is a program defect"
                )
        merged = []
        for (x, y), m in _kronecker_summands(-form(bj, bi), mj, mi):
            g = tuple(x * u + y * w for u, w in zip(bj, bi))
            norm = form(g, g)
            if m > 1 and norm < 0:
                merged.append((vec_scale(m, g), 1))
            elif m > 1 and norm == 0:
                merged.extend([(g, 1)] * m)
            else:
                merged.append((g, m))
        seq[i : j + 1] = left + merged + right
    return _group_summands([root for root, m in seq for _ in range(m)])


class GenericExt:
    """Generic ext on one quiver by Schofield's recursion, memoised, under one node budget.

    ext(x, y) is the largest -<s, y> over the subvectors s of x that a general
    module of x has, 0 and x included, and s is one iff ext(s, x - s) = 0
    ("General representations of quivers", 1992; in every characteristic by
    Crawley-Boevey, 1996).  They are tried in decreasing -<s, y>, down to the
    floor max(0, -<x, y>) that 0 and x give; the first general one sets the
    value.  Every subvector examined counts against MAX_SEARCH_NODES; past it
    this raises BoundExhaustedError.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self._memo = {}
        self._nodes = 0

    def examine(self):
        self._nodes += 1
        if self._nodes > MAX_SEARCH_NODES:
            raise BoundExhaustedError(
                f"search budget exhausted: over {MAX_SEARCH_NODES} subvectors"
            )

    def ext(self, x: tuple, y: tuple) -> int:
        key = (x, y)
        if key not in self._memo:
            # -<s, y> = s . w, linear in s; reach[i]: the most coordinates i, ... add
            w = [-v for v in y]
            for s, t in self.quiver.arrow_indices:
                w[s] += y[t]
            floor = max(0, sum(map(mul, x, w)))
            reach = [0] * (len(x) + 1)
            for i in reversed(range(len(x))):
                reach[i] = reach[i + 1] + max(0, w[i]) * x[i]

            def above(i, partial):
                """(s . w, s) for s <= x with s . w > floor, from coordinate i, each examined."""
                if partial + reach[i] <= floor:
                    return
                if i == len(x):
                    self.examine()
                    yield partial, ()
                    return
                for v in range(x[i] + 1):
                    for value, rest in above(i + 1, partial + v * w[i]):
                        yield value, (v, *rest)

            values = sorted(above(0, 0), reverse=True)
            self._memo[key] = next((v for v, s in values if self.ext(s, vec_sub(x, s)) == 0), floor)
        return self._memo[key]


def _split_summands(quiver: Quiver, a):
    """The canonical decomposition of a nonzero a, from the Euler form alone, on any quiver.

    A general module of a is a general one of b plus a general one of a - b
    exactly when ext(b, a - b) = ext(a - b, b) = 0 (Kac), so a splits at the
    first nonzero proper b <= a with both, and each part splits in turn; a
    vector with no such b is a Schur root.  Each b tried counts against the
    budget of the call's `GenericExt` too.
    """
    generic = GenericExt(quiver)
    out, stack = [], [tuple(a)]
    while stack:
        x = stack.pop()
        for b in product(*(range(v + 1) for v in x)):
            if not any(b) or b == x:
                continue
            generic.examine()
            c = vec_sub(x, b)
            # ext >= -<,>, so a negative form rules b out before any walk
            if (
                euler_form_unchecked(quiver, b, c) >= 0
                and euler_form_unchecked(quiver, c, b) >= 0
                and generic.ext(b, c) == 0
                and generic.ext(c, b) == 0
            ):
                stack += [b, c]
                break
        else:
            out.append(x)
    return _group_summands(out)


def canonical_decomposition(quiver: Quiver, a, config: OracleConfig = OracleConfig()):
    """The canonical decomposition of a, as (Schur root, multiplicity) pairs, exactly.

    On a quiver without an oriented cycle it is Derksen-Weyman's merge
    (`_merged_summands`), which is fast; on one with an oriented cycle it is
    Kac's splitting with Schofield's generic ext (`_split_summands`).  No
    path samples, and `config` is read by none: it stays only because
    callers such as `perfbench/make_candecomp_table.py` pass one.  The
    summands are ordered by decreasing total dimension, then by vector.
    """
    if not quiver.is_loop_free():
        raise DecomposeError("canonical decomposition requires a loop-free quiver")
    a = quiver.check_dimvector(a)
    if any(v < 0 for v in a):
        raise DecomposeError("expected a non-negative dimension vector")
    if all(v == 0 for v in a):
        return CanonicalDecomposition(quiver, a, ())
    try:
        start = _trivial_sequence(quiver, a)
    except DecomposeError:  # an oriented cycle
        summands = _split_summands(quiver, a)
    else:
        summands = _merged_summands(quiver, *start)
    return CanonicalDecomposition(quiver, a, summands)


# -- perpendicular-category simples --------------------------------------


def _nonneg_combination(vec, vectors):
    """Non-negative integer coefficients of vec in the given vectors, or None.

    The solution over Q that `solve` returns when it has them; otherwise,
    with dependent vectors, the first that `_nonneg_search` finds.
    """
    if not vectors:
        return None if any(vec) else []
    cols = Matrix.from_rows(
        [[v[i] for v in vectors] for i in range(len(vec))], QQ, cols=len(vectors)
    )
    x = solve(cols, list(vec))
    if x is None:
        return None
    if all(c.denominator == 1 and c >= 0 for c in x):
        return [int(c) for c in x]
    if rank(cols) == len(vectors):
        # independent vectors: x is the only solution
        return None
    return _nonneg_search(tuple(vec), vectors)


def _nonneg_search(vec, vectors):
    """Exhaustive search over non-negative integer coefficients, vectors all non-negative.

    The coefficient of a vector a is at most min vec[i] // a[i] over its support.
    """
    if not any(vec):
        return [0] * len(vectors)
    if not vectors:
        return None
    head, rest = vectors[0], vectors[1:]
    top = min((v // a for v, a in zip(vec, head) if a), default=0)
    for k in range(top + 1):
        found = _nonneg_search(tuple(v - k * a for v, a in zip(vec, head)), rest)
        if found is not None:
            return [k] + found
    return None


def _topo_order_by_ext(ext, roots):
    """Order roots so that ext(r_i, r_j) = 0 for i < j, ext(a, b) giving generic ext."""
    remaining = list(range(len(roots)))
    ordered = []
    while remaining:
        for idx in remaining:
            if all(
                ext(roots[idx], roots[j]) == 0 for j in remaining if j != idx
            ):
                ordered.append(idx)
                remaining.remove(idx)
                break
        else:
            raise DecomposeError("generic ext pattern has an oriented cycle")
    return [roots[i] for i in ordered]


def perp_simples(oracle: Oracle, roots, side="right"):
    """Simple objects of the perpendicular category of an exceptional sequence.

    The candidates are the positive real roots of total at most the bound,
    in (total, vector) order: `_real_roots` under (bound, ..., bound) up to
    the first larger total, as such a root and every root it reflects down
    through lie in that box.  Accepts those in the perpendicular lattice
    that are not non-negative integer combinations of accepted ones, until
    n - r are found; returned in an order with vanishing forward generic ext.
    Every filter is exact (the Euler form, the combination test, generic
    hom and the Schur test), so running out of the bound, or the walk
    passing MAX_CANDIDATE_ROOTS, raises BoundExhaustedError at every prime.
    A quiver with a loop has no reflection at its loop vertex: rejected first.
    """
    if side not in ("right", "left"):
        raise DecomposeError("side must be 'right' or 'left'")
    quiver = oracle.quiver
    if not quiver.is_loop_free():
        raise DecomposeError("perpendicular simples require a loop-free quiver")
    roots = [quiver.check_dimvector(r) for r in roots]
    needed = quiver.n - len(roots)
    if needed < 0:
        raise DecomposeError(
            f"{len(roots)} roots on a quiver with {quiver.n} vertices; "
            "an exceptional sequence has at most one root per vertex"
        )
    # the roots of an exceptional sequence are real Schur roots: nonzero,
    # non-negative, <r,r> = 1; nothing below is meaningful for other vectors
    for r in roots:
        if any(v < 0 for v in r) or not any(r):
            raise DecomposeError(f"{format_dimvector(r)} is not a nonzero non-negative vector")
        norm = euler_form(quiver, r, r)
        if norm != 1:
            raise DecomposeError(
                f"{format_dimvector(r)} has <r,r> = {norm}, not 1, "
                "so it is not in an exceptional sequence"
            )
    if needed == 0:
        return []
    bound = oracle.config.bound
    if bound is None:
        bound = max(sum(r) for r in roots) + quiver.n if roots else quiver.n
    accepted = []
    for cand in _real_roots(quiver, (bound,) * quiver.n):
        if sum(cand) > bound:
            break
        pairs = [(r, cand) if side == "right" else (cand, r) for r in roots]
        if (
            any(euler_form(quiver, x, y) != 0 for x, y in pairs)
            or _nonneg_combination(cand, accepted) is not None
            or any(oracle.hom(x, y) != 0 for x, y in pairs)
            or not oracle.schurian(cand)
            or any(oracle.hom(cand, acc) != 0 or oracle.hom(acc, cand) != 0 for acc in accepted)
        ):
            continue
        accepted.append(cand)
        if len(accepted) == needed:
            return _topo_order_by_ext(oracle.ext, accepted)
    raise BoundExhaustedError(f"perp search bound {bound} exhausted; try a larger --bound")


# -- reduced exceptional sequences ---------------------------------------

SAMPLE_RETRIES = 24


def sample_exceptional_rep(oracle: Oracle, a, salt=0) -> Representation:
    """A representation of dimension a verified exceptional (Schurian, Ext=0), drawn by oracle."""
    # hom - ext = <a, a>, so End = k and Ext = 0 need <a, a> = 1 at every prime,
    # and given <a, a> = 1, End = k alone gives Ext = 0
    norm = euler_form(oracle.quiver, a, a)
    if norm != 1:
        raise DecomposeError(
            f"no representation of dimension {format_dimvector(a)} is exceptional: <a,a> = {norm}, not 1"
        )
    for k in range(SAMPLE_RETRIES):
        x = oracle.sample(a, 911 + salt * 31 + k)
        if hom_dim(x, x) == 1:
            return x
    raise SamplingError(
        f"failed to sample an exceptional representation at {format_dimvector(a)}"
        f" over F_{oracle.config.prime}; try a larger prime"
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple  # (label, passed: bool, detail) triples

    def lines(self):
        out = []
        for label, passed, detail in self.checks:
            out.append(f"check {label}: {'pass' if passed else 'fail'}{detail}")
        out.append(f"verification: {'pass' if self.ok else 'fail'}")
        return out


def _generic_reduced_checks(oracle, roots):
    """A (label, passed, detail) check per pair i < j: generic hom, ext and backhom vanish."""
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            h_f = oracle.hom(roots[i], roots[j])
            e_f = oracle.ext(roots[i], roots[j])
            h_b = oracle.hom(roots[j], roots[i])
            ok = h_f == 0 and e_f == 0 and h_b == 0
            yield (f"generic-reduced {i + 1} {j + 1}", ok, f" hom={h_f} ext={e_f} backhom={h_b}")


def verify_reduced_sequence(oracle: Oracle, roots, coeffs, target):
    """Full verifier for a claimed reduced exceptional sequence decomposition.

    Checks the sum identity, exceptionality of every root, the reduced
    exceptional sequence conditions at the generic (oracle) level and on
    sampled exceptional representatives, and the root correspondence over
    the glued quiver Q(E).
    """
    from .gluing import build_gluing

    quiver = oracle.quiver
    if not quiver.is_loop_free():
        raise DecomposeError("reduced exceptional sequences require a loop-free quiver")
    roots = [quiver.check_dimvector(r) for r in roots]
    for r in roots:
        if any(v < 0 for v in r):
            raise DecomposeError(f"{format_dimvector(r)} has a negative entry; it is not a root")
    coeffs = [int(c) for c in coeffs]
    target = quiver.check_dimvector(target)
    checks = []

    total = tuple(sum(c * r[i] for r, c in zip(roots, coeffs)) for i in range(quiver.n))
    ok_sum = total == target and all(c > 0 for c in coeffs) and len(roots) == len(coeffs)
    checks.append(("sum-identity", ok_sum, ""))

    for idx, r in enumerate(roots, start=1):
        ok = oracle.exceptional_root(r)
        checks.append((f"exceptional {idx}", ok, f" {format_dimvector(r)}"))

    checks.extend(_generic_reduced_checks(oracle, roots))

    try:
        reps = [sample_exceptional_rep(oracle, r, salt=i) for i, r in enumerate(roots)]
    except DecomposeError as exc:
        checks.append(("representatives", False, f" {exc}"))
    else:
        # hom - ext = <r_i, r_j>, so with hom 0 the ext is 0 iff the form is
        ok_rep = all(
            hom_dim(reps[i], reps[j]) == 0
            and euler_form(quiver, roots[i], roots[j]) == 0
            and hom_dim(reps[j], reps[i]) == 0
            for i in range(len(reps))
            for j in range(i + 1, len(reps))
        )
        checks.append(("representatives", ok_rep, ""))
        try:
            glue = build_gluing(reps, name="QE")
            cls = classify_root(glue.qm, tuple(coeffs))
            checks.append(("root-correspondence", cls.is_root(), f" {cls.tag}"))
        except Exception as exc:  # pragma: no cover - diagnostic path
            checks.append(("root-correspondence", False, f" {exc}"))

    ok = all(passed for _, passed, _ in checks)
    return VerificationReport(ok, tuple(checks))


@dataclass(frozen=True)
class DecompositionReport:
    quiver: Quiver
    vector: tuple
    result: str  # "trivial" | "sequence" | "unknown" (step-2 budget exhausted)
    roots: tuple
    coeffs: tuple
    canonical: CanonicalDecomposition
    audit: tuple  # lines
    iterations: int
    verification: VerificationReport | None

    def lines(self):
        out = list(self.canonical.lines())
        out.extend(self.audit)
        out.append(f"result {self.result}")
        for r, c in zip(self.roots, self.coeffs):
            out.append(f"coeff {format_dimvector(r)} {c}")
        if self.verification is not None:
            out.extend(self.verification.lines())
        return out


MAX_SEARCH_NODES = 500_000
MAX_CANDIDATE_ROOTS = 100_000


@lru_cache(maxsize=64)
def _sink_first_simples(quiver):
    """The simples with vanishing forward ext, once per quiver; a cycle raises DecomposeError."""
    # distinct simples have hom 0, so on a loop-free quiver their generic
    # ext is exactly -<e_i, e_j>, the number of arrows i -> j
    units = [quiver.unit_vector(v) for v in quiver.vertices]
    return tuple(_topo_order_by_ext(lambda x, y: -euler_form(quiver, x, y), units))


def _trivial_sequence(quiver, a):
    """`_sink_first_simples` and a's coordinates on them, those with coordinate 0 left out."""
    terms = [(r, sum(x * y for x, y in zip(r, a))) for r in _sink_first_simples(quiver)]
    return [r for r, c in terms if c > 0], [c for _, c in terms if c > 0]


def _real_roots(quiver, box):
    """The positive real roots below box componentwise, lazily, in (total dimension, vector) order.

    They are the Weyl-group orbit of the simples (Kac): a positive real root
    r other than a simple has a vertex i with (r, e_i) > 0, and
    s_i(r) = r - (r, e_i) e_i is a smaller positive real root below r.  So
    the walk rises from the simples e_i with box_i > 0 by each reflection
    s_i(v) with (v, e_i) < 0 that stays below box, none classified.  That
    raises the total, so the roots of total t are all found once those below
    t are reflected: one bucket per total, sorted, yielded, then reflected.
    Past MAX_CANDIDATE_ROOTS roots found it raises BoundExhaustedError.
    """
    n = quiver.n
    # ends[i]: the other end of each arrow at i
    ends = [[t if s == i else s for s, t in quiver.arrow_indices if i in (s, t)] for i in range(n)]
    levels = {1: {tuple(int(j == i) for j in range(n)) for i in range(n) if box[i] > 0}}
    found, total = len(levels[1]), 0
    while levels:
        total += 1
        level = sorted(levels.pop(total, ()))
        yield from level
        for v in level:
            for i in range(n):
                # s_i(v)_i = v_i - (v, e_i), and (v, e_i) = 2 v_i - sum of v over ends[i]
                wi = sum(map(v.__getitem__, ends[i])) - v[i]
                if v[i] < wi <= box[i]:
                    w = v[:i] + (wi,) + v[i + 1 :]
                    bucket = levels.setdefault(total + wi - v[i], set())
                    if w not in bucket:
                        bucket.add(w)
                        found += 1
        if found > MAX_CANDIDATE_ROOTS:
            raise BoundExhaustedError(f"search budget exhausted: over {MAX_CANDIDATE_ROOTS} roots")


def _candidate_roots(quiver, a):
    """The step-2 candidates: `_real_roots` below a, a left out, by (-total, vector).

    Every root below a, a included, counts against MAX_CANDIDATE_ROOTS.
    """
    return sorted((v for v in _real_roots(quiver, a) if v != a), key=lambda v: (-sum(v), v))


def _search_reduced_sequence(oracle: Oracle, a):
    """Bounded exhaustive search for a non-trivial reduced exceptional sequence.

    Explores ordered decompositions a = sum c_i r_i (c_i >= 1) over the
    `_candidate_roots` with Euler-form pruning first, generic Hom vanishing
    second and Schur certification of completed solutions last; a candidate
    the oracle already knows to be no Schur root is skipped.

    A root r' placed after the roots p already in the sequence must satisfy
    <p, r'> = 0 and <r', p> <= 0, so a nonzero remainder rho = sum c' r'
    (c' >= 1) of a partial sequence must satisfy <p, rho> = 0 and
    <rho, p> <= 0 for every placed root p.  A child breaking this is skipped
    before any Hom query; its subtree holds no solution, so the first
    sequence found is the one the unpruned search finds.  For the root r
    just placed this forces the coefficient: <r, r> = 1, so
    <r, rho - c r> = 0 gives c = <r, rho> = r . u, where u_i = rho_i minus
    rho summed over the targets of the arrows out of i.  A candidate with
    some r_i > rho_i is screened out before that dot product: with c >= 1,
    rho - c r would be negative at i, so it is never a child.

    Returns (roots, coeffs), or None when the search space is exhausted;
    raises DecomposeError when the node budget (MAX_SEARCH_NODES) or the
    candidate budget (MAX_CANDIDATE_ROOTS) runs out first.
    """
    quiver = oracle.quiver
    roots_sorted = _candidate_roots(quiver, a)
    nodes = [0]

    def euler(x, y):
        return euler_form_unchecked(quiver, x, y)

    def fits(rem, placed):
        return not any(rem) or all(euler(p, rem) == 0 and euler(rem, p) <= 0 for p in placed)

    def compatible(p, r):
        return (
            euler(p, r) == 0
            and euler(r, p) <= 0
            and oracle.hom(p, r) == 0
            and oracle.hom(r, p) == 0
        )

    def rec(remainder, start, seq, coeffs):
        nodes[0] += 1
        if nodes[0] > MAX_SEARCH_NODES:
            raise DecomposeError("search budget exhausted")
        if all(x == 0 for x in remainder):
            if not any(sum(r) > 1 for r in seq) or not all(oracle.schurian(r) for r in seq):
                return None
            return (tuple(seq), tuple(coeffs))
        u = list(remainder)
        for s, t in quiver.arrow_indices:
            u[s] -= remainder[t]
        for idx in range(start, len(roots_sorted)):
            r = roots_sorted[idx]
            if not all(map(le, r, remainder)):
                continue
            c = sum(map(mul, r, u))
            if c < 1 or oracle.known_non_schur(r):
                continue
            rem = tuple(y - c * x for x, y in zip(r, remainder))
            if min(rem) < 0 or not fits(rem, seq + [r]) or not all(compatible(p, r) for p in seq):
                continue
            found = rec(rem, idx + 1, seq + [r], coeffs + [c])
            if found is not None:
                return found
        return None

    try:
        return rec(a, 0, [], [])
    finally:
        # rec reaches itself through its closure; break that cycle so the
        # oracle is freed now, not at the next gc pass
        del rec


def exceptional_sequence_decomposition(oracle: Oracle, a):
    quiver = oracle.quiver
    a = quiver.check_dimvector(a)
    if not classify_root(quiver, a).is_root():
        raise DecomposeError(f"{format_dimvector(a)} is not a root")
    canonical = oracle.canonical(a)
    if canonical.is_schur():
        raise DecomposeError(
            f"{format_dimvector(a)} is a Schur root; the algorithm handles non-Schur roots"
        )
    audit = []

    def report(result, iterations, roots=(), coeffs=()):
        verification = (
            verify_reduced_sequence(oracle, roots, coeffs, a) if result == "sequence" else None
        )
        return DecompositionReport(
            quiver, a, result, tuple(roots), tuple(coeffs), canonical, tuple(audit), iterations,
            verification,
        )

    # canonical summands are Schur roots, so the real ones are exceptional
    exceptional = [
        (root, mult) for root, mult in canonical.summands if euler_form(quiver, root, root) == 1
    ]
    if not exceptional:
        audit.append("step 0 no exceptional canonical summand")
        return report("trivial", 0, *_trivial_sequence(quiver, a))
    eps, k_eps = min(exceptional, key=lambda rm: sum(rm[0]))

    # step 1: the exceptional canonical summand first, the remainder expressed
    # over the simple objects of its right perpendicular category
    beta = vec_sub(a, vec_scale(k_eps, eps))
    simples = perp_simples(oracle, [eps], side="right")
    audit.append("step 1 perp " + " ".join(format_dimvector(s) for s in simples))
    coeffs_beta = _nonneg_combination(beta, simples)
    if coeffs_beta is not None:
        candidate = [(eps, k_eps)] + [
            (s, c) for s, c in zip(simples, coeffs_beta) if c > 0
        ]
        roots = [rc[0] for rc in candidate]
        if any(sum(r) > 1 for r in roots) and all(
            passed for _, passed, _ in _generic_reduced_checks(oracle, roots)
        ):
            return report("sequence", 1, roots, [rc[1] for rc in candidate])

    # step 2: the perpendicular decomposition is not reduced; search the
    # bounded space of alternative decompositions into exceptional roots
    audit.append("step 2 search")
    try:
        found = _search_reduced_sequence(oracle, a)
    except DecomposeError:
        # an unfinished search certifies neither a sequence nor its absence
        audit.append("step 2 budget exhausted")
        return report("unknown", 2)
    if found is None:
        return report("trivial", 2, *_trivial_sequence(quiver, a))
    return report("sequence", 2, *found)
