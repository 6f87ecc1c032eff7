"""Parser outcomes pinned on fixture texts and seeded single-line mutations.

tests/golden/parse_outcomes.json maps each case to `<exception type>:
<message>` or to a summary of the parsed object.  The texts are every
fixture quiver and representation, one representation over F_101, the glued
quivers and Ext bases of the fixture gluings, the `hom_space` morphisms of
the fixture representations (one of them headed `over F 101` while the
representations are over Q), and the cover fragments read off their
coefficient quivers.  Each text is followed by MUTATIONS seeded edits of one
line: delete it, duplicate it, replace one of its tokens, truncate the text
there, or append a token.  The golden was recorded before the five parsers
moved onto one reader; `python tests/test_parse_outcomes.py` records it
again.  Since then only the 17 morphism cases whose `quiver` line names
another quiver changed: they parsed before morphisms checked that line as
representations do, and now record its ParseError.  Later 26 messages moved
and were recorded again: the 17 `quiver` lines with a missing or an extra
token now give the `quiver <name>` usage (16 of them said that the quiver
they named was not the one they named), and the 9 field mismatches name
both fields.  Then 25 fragment cases moved when `dim` and `map` lines
naming an undeclared vertex or arrow id became a ParseError that names
the line and the id: 10 of them parsed, dropping the line, 13 gave the
bare id of a KeyError, and 2 reported the wrong map shape that the
dropped `dim` line caused.  One more moved when the `over F <p>` modulus
became a `textfmt.integer` token: `over F x` now says "not an integer"
instead of quoting int()'s message.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from quiverglue.fixtures import QUIVER_FILES, REP_FILES, fixture_text, load_quiver, load_rep
from quiverglue.gluing import (
    build_gluing,
    build_loop_gluing,
    format_bases,
    format_gluing,
    parse_bases,
)
from quiverglue.quiver import Quiver, parse_quiver
from quiverglue.reps import (
    Morphism,
    Representation,
    format_morphism,
    format_rep,
    hom_space,
    parse_morphism,
    parse_rep,
    random_rep,
)
from quiverglue.treemod import (
    CoverFragment,
    format_fragment,
    fragment_from_coefficient_quiver,
    parse_fragment,
)

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.json"
MUTATIONS = 50
TOKENS = (
    "x", "-1", "1/0", "2x", "1x-1", "F", "F 101", "4", "0", "1/2", "Q", "over", "label", "2x0", "#",
    "q", "m1",
)


def base_texts():
    """(kind, label, text, context) for every unmutated text; the parser reads it against context."""
    cases = [("quiver", name, fixture_text(f), None) for name, f in QUIVER_FILES.items()]
    reps = {name: load_rep(name) for name in REP_FILES}
    for name, (f, quiver_name) in REP_FILES.items():
        cases.append(("rep", name, fixture_text(f), load_quiver(quiver_name)))
    y = random_rep(load_quiver("K2"), (2, 2), 101, seed=0, name="Y")
    cases.append(("rep", "Y101", format_rep(y), y.quiver))
    for label, g in (
        ("Malpha,Mbeta", build_gluing([reps["Malpha"], reps["Mbeta"]])),
        ("M,M", build_loop_gluing(reps["M"])),
    ):
        cases.append(("quiver", f"Q({label})", format_gluing(g), None))
        cases.append(("bases", label, format_bases(g.bases), None))
    for x in list(reps.values()) + [y]:
        for k, f in enumerate(hom_space(x, x)):
            cases.append(("morphism", f"End({x.name}) {k}", format_morphism(f), (x, x)))
    mixed = format_morphism(hom_space(reps["M"], reps["M"])[0]).replace(" over Q\n", " over F 101\n")
    cases.append(("morphism", "End(M) 0 over F 101", mixed, (reps["M"], reps["M"])))
    for name, x in reps.items():
        frag = format_fragment(fragment_from_coefficient_quiver(x))
        cases.append(("fragment", name, frag, x.quiver))
    return cases


def mutate(text, rng):
    """One seeded single-line edit of text, and a short description of it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    op = rng.choice(("delete", "duplicate", "replace", "truncate", "append"))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "replace":
        tokens = lines[i].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    elif op == "truncate":
        del lines[i:]
    else:
        lines[i] += " " + rng.choice(TOKENS)
    return f"{op} line {i + 1}", "\n".join(lines) + "\n"


def cases_of(kind, label, text):
    """(case id, text) for a base text and its mutations."""
    out = [(f"{kind} {label}", text)]
    rng = random.Random(f"{kind} {label}")
    for k in range(MUTATIONS):
        edit, mutated = mutate(text, rng)
        out.append((f"{kind} {label} #{k} {edit}", mutated))
    return out


def _matrix(m):
    rows = (" ".join(m.field.format(v) for v in m.row(r)) for r in range(m.rows))
    return f"{m.rows}x{m.cols}:" + ";".join(rows)


def summary(obj):
    """A short exact summary: a readable head and a digest of every field."""
    if isinstance(obj, Quiver):
        head = f"Quiver {obj.name} {len(obj.vertices)} vertices {len(obj.arrows)} arrows"
        arrows = [(a.name, a.source, a.target) for a in obj.arrows]
        fields = (obj.vertices, arrows, obj.allows_loops)
    elif isinstance(obj, Representation):
        head = f"Representation {obj.name} over {obj.field!r} dims {obj.dims}"
        fields = (obj.quiver.name, [_matrix(m) for m in obj.maps])
    elif isinstance(obj, Morphism):
        head = f"Morphism over {obj.source.field!r}"
        fields = [_matrix(b) for b in obj.blocks]
    elif isinstance(obj, CoverFragment):
        head = f"CoverFragment {obj.name} over {obj.field!r} {len(obj.vertex_ids)} vertices"
        fields = (
            obj.quiver.name,
            obj.vertex_ids,
            sorted(obj.labels.items()),
            obj.arrows,
            sorted(obj.dims.items()),
            sorted((aid, _matrix(m)) for aid, m in obj.maps.items()),
        )
    else:
        head = f"{len(obj)} Ext classes"
        fields = [(e.arrow, e.row, e.col, e.i, e.j, e.l) for e in obj]
    digest = hashlib.sha256(repr(fields).encode()).hexdigest()[:16]
    return f"{head} #{digest}"


def outcome(kind, text, context):
    try:
        if kind == "quiver":
            obj = parse_quiver(text)
        elif kind == "rep":
            obj = parse_rep(text, context)
        elif kind == "bases":
            obj = parse_bases(text)
        elif kind == "morphism":
            obj = parse_morphism(text, *context)
        else:
            obj = parse_fragment(text, context)
    except Exception as exc:  # the outcome under test is whichever error escapes
        return f"{type(exc).__name__}: {exc}"
    return summary(obj)


def outcomes(kind, label, text, context):
    return {case: outcome(kind, t, context) for case, t in cases_of(kind, label, text)}


BASES = base_texts()


@pytest.mark.parametrize("base", BASES, ids=[f"{kind} {label}" for kind, label, _, _ in BASES])
def test_parse_outcomes_match_golden(base):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = outcomes(*base)
    assert {case: golden.get(case) for case in seen} == seen


def test_golden_covers_exactly_these_cases():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = [case for kind, label, text, _ in BASES for case, _ in cases_of(kind, label, text)]
    assert sorted(golden) == sorted(cases)


if __name__ == "__main__":
    recorded = {}
    for base in BASES:
        recorded.update(outcomes(*base))
    GOLDEN.write_text(json.dumps(recorded, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(recorded)} cases written to {GOLDEN}", file=sys.stderr)
