"""Seeded job lists for the benchmark workloads, and the check of every job's output.

A job is one `quiverglue` command line, run in-process through `cli.main`
with stdout captured.  A workload builds its jobs from a program seed and a
scratch directory (for representation files); the same seed gives the same
jobs.  Checks never trust the program: decompositions are compared with a
stored table, verdicts with the ground truth of how the input was built, and
idempotent witnesses are re-checked here in plain `Fraction` arithmetic.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

TABLE_PATH = Path(__file__).resolve().parent / "candecomp_table.json"


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> failure reason or None


def fmt_vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def parse_vec(text):
    return tuple(int(x) for x in text.strip("()").split(","))


# -- reproduce pipelines ------------------------------------------------


def check_reproduce(rc, out):
    if rc != 0:
        return f"exit code {rc}"
    if "status: ok" not in out.splitlines():
        return "no 'status: ok' line"
    return None


def reproduce_jobs(ids, seed):
    return [
        Job(f"reproduce {rid}", ("reproduce", rid, "--seed", str(seed)), check_reproduce)
        for rid in ids
    ]


PAPER_FP_IDS = ("sub4-excseq", "sub5-candecomp", "sub8-realroot")
INDEC_Q_IDS = ("k2-jordan", "sub4-glue", "loop-counterexample")


def paper_fp(seed, workdir):
    return reproduce_jobs(PAPER_FP_IDS, seed)


# -- candecomp-sweep ----------------------------------------------------

# Every nonzero vector of these boxes; the box is sized by run length only.
SWEEP_BOXES = (("K3", (4, 4)), ("S4", (2, 2, 2, 2, 2)))


def sweep_vectors():
    return [
        (quiver, v)
        for quiver, box in SWEEP_BOXES
        for v in itertools.product(*(range(b + 1) for b in box))
        if any(v)
    ]


def load_table():
    with open(TABLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def parse_summands(out):
    """(root, multiplicity) pairs from `summand (r) xm` lines, sorted."""
    found = []
    for line in out.splitlines():
        if line.startswith("summand "):
            _, root, mult = line.split()
            found.append((parse_vec(root), int(mult.lstrip("x"))))
    return sorted(found)


def check_candecomp(vector, expected, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    found = parse_summands(out)
    if any(len(r) != len(vector) for r, _ in found):
        return "summand of the wrong length"
    total = [sum(m * r[i] for r, m in found) for i in range(len(vector))]
    if tuple(total) != vector:
        return f"summands do not add up to {fmt_vec(vector)}"
    if found != expected:
        return f"summands {found} differ from the table's {expected}"
    return None


def candecomp_sweep(seed, workdir):
    table = load_table()
    vectors = sweep_vectors()
    random.Random(seed).shuffle(vectors)
    jobs = []
    for quiver, v in vectors:
        expected = sorted((parse_vec(r), m) for r, m in table[quiver][fmt_vec(v)])
        jobs.append(
            Job(
                f"candecomp {quiver} {fmt_vec(v)}",
                ("candecomp", "-q", quiver, fmt_vec(v), "--seed", str(seed)),
                lambda rc, out, v=v, e=expected: check_candecomp(v, e, rc, out),
            )
        )
    return jobs


# -- indec-q: representations with a known answer ------------------------
#
# A representation here is (quiver, dims, maps): `quiver` a quiverglue Quiver,
# `dims` a tuple, `maps` a tuple of row lists of Fractions in arrow order.


def _identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def _matmul(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum((a[r][k] * b[k][c] for k in range(inner)), Fraction(0)) for c in range(cols)] for r in range(len(a))]


def _inverse(a):
    """Gauss-Jordan inverse of an invertible square Fraction matrix."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, _identity(n))]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _small_invertible(n, rng):
    """Unit lower times unit upper triangular, entries in {-1, 0, 1}."""
    lower = _identity(n)
    upper = _identity(n)
    for r in range(n):
        for c in range(n):
            if r > c:
                lower[r][c] = Fraction(rng.randint(-1, 1))
            elif r < c:
                upper[r][c] = Fraction(rng.randint(-1, 1))
    return _matmul(lower, upper, n)


def conjugate(rep, rng):
    """The same module in a seeded random basis: X_rho -> P_t X_rho P_s^-1."""
    quiver, dims, maps = rep
    base = [_small_invertible(d, rng) for d in dims]
    inverse = [_inverse(p) for p in base]
    out = []
    for arrow, m in zip(quiver.arrows, maps):
        s, t = quiver.index(arrow.source), quiver.index(arrow.target)
        out.append(_matmul(_matmul(base[t], m, dims[t]), inverse[s], dims[s]))
    return quiver, dims, tuple(out)


def direct_sum(x, y):
    quiver, dx, mx = x
    _, dy, my = y
    maps = []
    for arrow, a, b in zip(quiver.arrows, mx, my):
        s, t = quiver.index(arrow.source), quiver.index(arrow.target)
        rows = [list(r) + [Fraction(0)] * dy[s] for r in a]
        rows += [[Fraction(0)] * dx[s] + list(r) for r in b]
        maps.append(rows)
    return quiver, tuple(p + q for p, q in zip(dx, dy)), tuple(maps)


def _jordan(n, lam):
    return [[Fraction(lam if r == c else int(c == r + 1)) for c in range(n)] for r in range(n)]


def kronecker_modules(k2):
    """Indecomposable Kronecker modules: regular Jordan blocks, preprojectives, preinjectives."""
    mods = []
    for n in (1, 2, 3):
        for lam in (0, 1, -1, 2):
            mods.append((k2, (n, n), (_identity(n), _jordan(n, lam))))
        mods.append((k2, (n, n), (_jordan(n, 0), _identity(n))))  # eigenvalue infinity
    for n in range(4):
        emb_top = [[Fraction(int(r == c)) for c in range(n)] for r in range(n + 1)]
        emb_bot = [[Fraction(int(r == c + 1)) for c in range(n)] for r in range(n + 1)]
        mods.append((k2, (n, n + 1), (emb_top, emb_bot)))
        proj_left = [[Fraction(int(r == c)) for c in range(n + 1)] for r in range(n)]
        proj_right = [[Fraction(int(c == r + 1)) for c in range(n + 1)] for r in range(n)]
        mods.append((k2, (n + 1, n), (proj_left, proj_right)))
    return mods


def string_modules(max_length):
    """Uniserial modules of Q(Malpha, Mbeta) pushed through F, as S4 modules.

    The glued quiver has one arrow each way between m1 and m2; the string
    module of length L starting at m_s has basis e_0..e_{L-1} with e_i at
    vertex (s + i) mod 2 and each arrow sending e_i to e_{i+1}.
    """
    from quiverglue import fixtures
    from quiverglue.gluing import apply_F, build_gluing
    from quiverglue.linalg import QQ, Matrix
    from quiverglue.reps import Representation

    g = build_gluing([fixtures.load_rep("Malpha"), fixtures.load_rep("Mbeta")])
    qm = g.qm
    mods = []
    for length in range(1, max_length + 1):
        for start in (0, 1):
            at = [(start + i) % 2 for i in range(length)]
            dims = tuple(at.count(v) for v in range(2))
            maps = []
            for arrow in qm.arrows:
                s, t = qm.index(arrow.source), qm.index(arrow.target)
                ent = [0] * (dims[t] * dims[s])
                for i in range(length - 1):
                    if at[i] == s and at[i + 1] == t:
                        ent[(i + 1) // 2 * dims[s] + i // 2] = 1
                maps.append(Matrix(dims[t], dims[s], ent, QQ))
            fx = apply_F(g, Representation(qm, QQ, dims, tuple(maps)))
            rows = tuple([list(m.row(r)) for r in range(m.rows)] for m in fx.maps)
            mods.append((fx.quiver, fx.dims, rows))
    return mods


def rep_text(rep, name="X"):
    quiver, dims, maps = rep
    lines = [f"rep {name} over Q", f"quiver {quiver.name}"]
    lines += [f"dim {v} {d}" for v, d in zip(quiver.vertices, dims)]
    for arrow, m in zip(quiver.arrows, maps):
        s, t = quiver.index(arrow.source), quiver.index(arrow.target)
        lines.append(f"map {arrow.name} {dims[t]}x{dims[s]}")
        lines += [" ".join(str(x) for x in row) for row in m if dims[s]]
    return "\n".join(lines) + "\n"


def parse_witness(out, rep):
    """Per-vertex blocks of the printed `witness` morphism, as Fraction rows."""
    quiver, dims, _ = rep
    blocks = {v: [[Fraction(0)] * d for _ in range(d)] for v, d in zip(quiver.vertices, dims)}
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("block "):
            _, v, shape = line.split()
            rows, cols = (int(x) for x in shape.split("x"))
            if rows and cols:
                blocks[v] = [[Fraction(x) for x in lines[i + 1 + r].split()] for r in range(rows)]
    return [blocks[v] for v in quiver.vertices]


def witness_failure(rep, e):
    """Why e is not a nonzero, non-identity idempotent endomorphism of rep, or None."""
    quiver, dims, maps = rep
    for v, d in enumerate(dims):
        if len(e[v]) != d or any(len(row) != d for row in e[v]):
            return f"witness block at vertex {quiver.vertices[v]} has the wrong shape"
    for arrow, m in zip(quiver.arrows, maps):
        s, t = quiver.index(arrow.source), quiver.index(arrow.target)
        if _matmul(m, e[s], dims[s]) != _matmul(e[t], m, dims[t]):
            return f"witness does not commute with arrow {arrow.name}"
    if any(_matmul(b, b, d) != b for b, d in zip(e, dims)):
        return "witness is not idempotent"
    if all(x == 0 for b in e for row in b for x in row):
        return "witness is zero"
    if all(b == _identity(d) for b, d in zip(e, dims)):
        return "witness is the identity"
    return None


def check_indec(rep, expected, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    verdict = next((ln.split(": ", 1)[1] for ln in out.splitlines() if ln.startswith("verdict: ")), None)
    if verdict != expected:
        return f"verdict {verdict!r}, expected {expected!r}"
    if verdict == "decomposable":
        return witness_failure(rep, parse_witness(out, rep))
    return None


# Every catalogue module, INDEC_COPIES times, and every direct sum of two of
# them up to MAX_SUM_DIM: the seed picks the bases, the order and the
# witness-search seed, never the mix, so a pass costs about the same on
# every seed.
INDEC_COPIES = 4
MAX_STRING_LENGTH = 5
MAX_SUM_DIM = 6  # total dimension of a direct sum, keeps End(X + Y) small


def indec_q(seed, workdir):
    from quiverglue import fixtures

    rng = random.Random(seed)
    catalogue = kronecker_modules(fixtures.load_quiver("K2")) + string_modules(MAX_STRING_LENGTH)
    inputs = [(m, "indecomposable") for m in catalogue for _ in range(INDEC_COPIES)]
    inputs += [
        (direct_sum(x, y), "decomposable")
        for x, y in itertools.combinations_with_replacement(catalogue, 2)
        if x[0] == y[0] and sum(x[1]) + sum(y[1]) <= MAX_SUM_DIM
    ]
    rng.shuffle(inputs)
    jobs = reproduce_jobs(INDEC_Q_IDS, seed)
    for i, (rep, expected) in enumerate(inputs):
        rep = conjugate(rep, rng)
        path = Path(workdir) / f"indec-{i}.rep"
        path.write_text(rep_text(rep), encoding="utf-8")
        jobs.append(
            Job(
                f"indec {rep[0].name} {fmt_vec(rep[1])} ({expected})",
                ("indec", "-q", rep[0].name, str(path), "--seed", str(seed)),
                lambda rc, out, rep=rep, e=expected: check_indec(rep, e, rc, out),
            )
        )
    return jobs


WORKLOADS = {
    "paper-fp": paper_fp,
    "indec-q": indec_q,
    "candecomp-sweep": candecomp_sweep,
}
