"""Fuzzed input files: every command that reads a file exits 0, 1 or 2 and raises nothing.

Each example runs one command on copies of fixture-built files, some of
them edited: `over Q` swapped for `over F 101` and up to two of the seeded
single-line edits of the parser golden (test_parse_outcomes.mutate).
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quiverglue.cli import main
from quiverglue.fixtures import fixture_text, load_rep
from quiverglue.treemod import format_fragment, fragment_from_coefficient_quiver
from test_parse_outcomes import mutate

FILES = {
    "k3.quiver": fixture_text("k3.quiver"),
    "m.rep": fixture_text("m5.rep"),
    "malpha.rep": fixture_text("malpha.rep"),
    "m.frag": format_fragment(fragment_from_coefficient_quiver(load_rep("M"))),
    # a representation of Q(Malpha, Mbeta) and its identity
    "x.rep": (
        "rep X over Q\nquiver QM\ndim m1 1\ndim m2 2\nmap x1_2_1 2x1\n1\n0\nmap x2_1_1 1x2\n0 1\n"
    ),
    "f.mor": "morphism f over Q\nquiver QM\nblock m1 1x1\n1\nblock m2 2x2\n1 0\n0 1\n",
    "qm.bases": "extbasis 1 2 1 r1 1 1\nextbasis 2 1 1 r3 1 1\n",
    "loop.bases": "".join(
        f"extbasis 1 1 {l} {e}\n"
        for l, e in enumerate(("a 1 1", "a 2 1", "b 1 2", "b 3 2", "c 1 2", "c 3 2"), start=1)
    ),
}

COMMANDS = (
    ("indec", "-q", "{k3.quiver}", "{m.rep}"),
    ("schur", "-q", "{k3.quiver}", "{m.rep}"),
    ("homext", "-q", "K3", "M", "{m.rep}"),
    ("coeffquiver", "-q", "K3", "{m.rep}"),
    ("pushdown", "-q", "{k3.quiver}", "{m.frag}"),
    ("glue", "-q", "S4", "-x", "{x.rep}", "{malpha.rep}", "Mbeta"),
    ("glue-mor", "-q", "S4", "-x", "{x.rep}", "-y", "{x.rep}", "-f", "{f.mor}", "Malpha", "Mbeta"),
    ("qm", "-q", "S4", "--bases", "{qm.bases}", "{malpha.rep}", "Mbeta"),
    ("loopglue", "-q", "K3", "--bases", "{loop.bases}", "--scalars", "1,1,0,1,1,1", "{m.rep}"),
    ("loopglue", "-q", "{k3.quiver}", "--scalars", "{scalars}", "M"),
)

SCALARS = st.lists(
    st.sampled_from(("0", "1", "-1", "1/2", "1/0", "x", "", "2x")), min_size=5, max_size=7
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_commands_never_raise(data):
    argv = data.draw(st.sampled_from(COMMANDS))
    rng = data.draw(st.randoms(use_true_random=False))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{scalars}": ",".join(data.draw(SCALARS))}
        for name, text in FILES.items():
            if data.draw(st.booleans()):
                text = text.replace(" over Q\n", " over F 101\n", 1)
            for _ in range(data.draw(st.integers(0, 2))):
                text = mutate(text, rng)[1]
            path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            paths[f"{{{name}}}"] = str(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
