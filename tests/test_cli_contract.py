"""The CLI contract: recorded transcripts, one parser per process, no sympy.

The transcripts under tests/golden/ must not change.  They hold the stdout
and exit code of every `reproduce` id at --seed 0, recorded before the
parser was cached and sympy made a lazy import, and, in
readme_commands.json, the stdout, stderr and exit code of every README
command that needs only bundled fixtures, recorded before F_p splitting
moved to End(X) coordinates and Ext independence to pivot columns.
seeded_commands.json (the F_p `reproduce` ids at other seeds, the S5
isotropic root at small primes) and file_commands.json (`glue`, `pushdown`
and `check-theta` on files built from the fixtures, over Q and F_101) were
recorded before F_p elimination moved to sparse rows; the S5 `excdecomp`
at --prime 3 was recorded again when a sampling failure moved from exit 1
to exit 2 and its message came to name the prime, and the two S5 entries
at --prime 2 when a repeated canonical summand came to need ext(r, r) = 0
(they had printed (3,1,1,1,1,2) x2, whose <r, r> is -1); the S5 `excdecomp`
at --prime 2 was recorded a third time when its step 0 came to keep every
real canonical summand, as larger primes do, and its `perp_simples` search
then runs out over F_2 as the --prime 3 one does; both were recorded once
more when generic hom became exact at every prime, and now print what
--prime 101 prints below the header.  The file commands on
the three-member sequence (S_q0, Malpha, Mbeta), `glue-mor`, `qm --bases`
and `loopglue` with `-x` or `--bases` were recorded before the loop functor
became the one-member case of the gluing functor.  indec_field_end.json
holds `indec` on two modules whose End/rad is larger than Q, recorded
while sympy still factored the minimal polynomials; they, every
`reproduce` id and the F_2 `candecomp` of the S5 isotropic root must give
the same transcripts in a process that cannot import sympy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quiverglue import cli
from quiverglue.fixtures import REP_FILES, fixture_text, load_quiver, load_rep
from quiverglue.reps import Representation, direct_sum, format_rep
from quiverglue.treemod import format_fragment, fragment_from_coefficient_quiver

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
README_COMMANDS = json.loads((GOLDEN / "readme_commands.json").read_text(encoding="utf-8"))
SEEDED_COMMANDS = json.loads((GOLDEN / "seeded_commands.json").read_text(encoding="utf-8"))
FILE_COMMANDS = json.loads((GOLDEN / "file_commands.json").read_text(encoding="utf-8"))
FIELD_END_COMMANDS = json.loads((GOLDEN / "indec_field_end.json").read_text(encoding="utf-8"))

# a representation of Q(Malpha, Mbeta), whose arrows are x1_2_1 and x2_1_1
QM_REP = "rep X over Q\nquiver QM\ndim m1 1\ndim m2 2\nmap x1_2_1 2x1\n1\n0\nmap x2_1_1 1x2\n0 1\n"


def fresh(*args):
    """Run python with these arguments in a new process, with this checkout's package."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("rid", sorted(EXIT_CODES))
def test_reproduce_matches_golden_transcript(capsys, rid):
    code = cli.main(["reproduce", rid, "--seed", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_CODES[rid]
    assert captured.out == (GOLDEN / f"reproduce-{rid}.txt").read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("golden", README_COMMANDS, ids=[g["argv"][0] for g in README_COMMANDS])
def test_readme_command_matches_golden_transcript(capsys, golden):
    code = cli.main(list(golden["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["code"], golden["stdout"], golden["stderr"])


def _over_f101(text):
    return text.replace(" over Q\n", " over F 101\n", 1)


# representations of Q(S_q0, Malpha, Mbeta), whose tail Q(Malpha, Mbeta) has two arrows,
# and a morphism from the second to the first
QM3_X = (
    "rep X3 over Q\nquiver QM\ndim m1 1\ndim m2 1\ndim m3 2\nmap x2_1_1 1x1\n1\n"
    "map x2_3_1 2x1\n1\n0\nmap x3_1_1 1x2\n0 1\nmap x3_2_1 1x2\n0 1\n"
)
QM3_Y = (
    "rep Y3 over Q\nquiver QM\ndim m1 1\ndim m2 1\ndim m3 1\nmap x2_1_1 1x1\n1\n"
    "map x2_3_1 1x1\n1\nmap x3_1_1 1x1\n0\nmap x3_2_1 1x1\n0\n"
)
QM3_MOR = "morphism f over Q\nquiver QM\nblock m1 1x1\n1\nblock m2 1x1\n1\nblock m3 2x1\n1\n0\n"
# pairs out of order, and the other elementary class where there is a choice
QM3_BASES = (
    "extbasis 3 2 1 r4 1 1\nextbasis 2 1 1 r2 1 1\n"
    "extbasis 3 1 1 r3 1 1\nextbasis 2 3 1 r1 1 1\n"
)
# a two-dimensional module of L(6), the loop quiver of M's six self-extensions
L6_X = "rep X over Q\nquiver L6\ndim m 2\n" + "".join(
    f"map l{k} 2x2\n{a} {b}\n{c} {d}\n"
    for k, (a, b, c, d) in enumerate(
        ((1, 0, 0, 1), (0, 1, 0, 0), (1, 1, 0, 1), (0, 0, 1, 0), (2, 0, 0, -1), (0, 1, 1, 0)),
        start=1,
    )
)
# the tree-shaped basis of Ext(M, M) in reverse order
M_LOOP_BASES = "".join(
    f"extbasis 1 1 {l} {e}\n"
    for l, e in enumerate(("c 3 2", "c 1 2", "b 3 2", "b 1 2", "a 2 1", "a 1 1"), start=1)
)


def write_input_files(directory):
    """The files FILE_COMMANDS read as {dir}/<name>, built from the bundled fixtures."""
    files = {"x.rep": QM_REP, "x101.rep": _over_f101(QM_REP)}
    for name in ("Malpha", "Mbeta"):
        files[f"{name}101.rep"] = _over_f101(fixture_text(REP_FILES[name][0]))
    for name in ("M", "X1"):
        files[f"{name}.frag"] = format_fragment(fragment_from_coefficient_quiver(load_rep(name)))
    files["Sq0.rep"] = format_rep(Representation.simple(load_quiver("S4"), "q0"))
    files.update({
        "x3.rep": QM3_X, "y3.rep": QM3_Y, "f3.mor": QM3_MOR, "qm3.bases": QM3_BASES,
        "l6.rep": L6_X, "loop.bases": M_LOOP_BASES,
    })
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("golden", SEEDED_COMMANDS, ids=[" ".join(g["argv"]) for g in SEEDED_COMMANDS])
def test_seeded_command_matches_golden_transcript(capsys, golden):
    code = cli.main(list(golden["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["code"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize("golden", FILE_COMMANDS, ids=[" ".join(g["argv"]) for g in FILE_COMMANDS])
def test_file_command_matches_golden_transcript(capsys, tmp_path, golden):
    write_input_files(tmp_path)
    code = cli.main([arg.replace("{dir}", str(tmp_path)) for arg in golden["argv"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["code"], golden["stdout"], golden["stderr"])


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    decomposable = tmp_path / "x.rep"
    x = direct_sum(load_rep("X0"), load_rep("X1"))
    decomposable.write_text(format_rep(x, name="X") + "\n", encoding="utf-8")
    calls = [
        ["indec", "-q", "K2", str(decomposable)],
        ["candecomp", "-q", "K3", "(2,3)"],
        ["candecomp", "-q", "K3", "(2,3)", "--samples", "0"],
        ["--help"],
        ["frobnicate"],
        ["indec", "-q", "K2", str(decomposable)],
    ]
    parser = cli._build_parser()
    seen = []
    for argv in calls:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
    assert cli._build_parser() is parser
    assert [code for code, _, _ in seen] == [0, 0, 1, 0, 1, 0]
    assert "witness" in seen[0][1] and seen[0] == seen[-1]
    for argv, (code, out, err) in zip(calls, seen):
        proc = fresh("-m", "quiverglue.cli", *argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_importing_the_cli_leaves_sympy_unloaded():
    proc = fresh("-c", "import sys, quiverglue.cli; print('sympy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_no_sympy_warning_under_default_warning_filters():
    # F_p factorisation makes sympy warn about ordering modular integers; the
    # library's filter must be installed after sympy's own, which the import adds
    proc = fresh("-W", "default", "-m", "quiverglue.cli", "reproduce", "sub5-candecomp")
    assert proc.returncode == 0
    assert proc.stderr == ""


# K2 modules whose End/rad is larger than Q, recorded in indec_field_end.json:
# End(Xi) = Q(i), so deciding needs an irreducible quadratic factor, and
# End(Y) = Q(i) x Q(sqrt 2), split along the first of the factors t^2 + 1, t^2 - 2
FIELD_END_REPS = {
    "field.rep": "rep Xi over Q\nquiver K2\ndim q 2\ndim qp 2\nmap a 2x2\n1 0\n0 1\nmap b 2x2\n0 -1\n1 0\n",
    "split.rep": (
        "rep Y over Q\nquiver K2\ndim q 4\ndim qp 4\nmap a 4x4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        "map b 4x4\n0 -1 0 0\n1 0 0 0\n0 0 0 2\n0 0 1 0\n"
    ),
}


def write_field_end_reps(directory):
    for name, text in FIELD_END_REPS.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("golden", FIELD_END_COMMANDS, ids=[g["argv"][-1] for g in FIELD_END_COMMANDS])
def test_indec_over_a_larger_field_matches_golden_transcript(capsys, tmp_path, golden):
    write_field_end_reps(tmp_path)
    code = cli.main([arg.replace("{dir}", str(tmp_path)) for arg in golden["argv"]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (golden["code"], golden["stdout"], golden["stderr"])


# Runs each command line of argv[1] (a JSON list) through cli.main with sympy made
# unimportable, and prints the transcripts and whether sympy got loaded anyway.
WITHOUT_SYMPY = """
import contextlib, io, json, sys

class BlockSympy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockSympy())
from quiverglue import cli

seen = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seen.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"seen": seen, "sympy": "sympy" in sys.modules}))
"""


def test_commands_that_factor_run_without_sympy(tmp_path):
    write_field_end_reps(tmp_path)
    want = [
        (["reproduce", rid, "--seed", "0"], EXIT_CODES[rid],
         (GOLDEN / f"reproduce-{rid}.txt").read_text(encoding="utf-8"), "")
        for rid in sorted(EXIT_CODES)
    ]
    f2 = ["candecomp", "-q", "S5", "(10,3,3,3,3,8)", "--prime", "2"]
    goldens = [g for g in SEEDED_COMMANDS if g["argv"] == f2] + FIELD_END_COMMANDS
    want += [
        ([arg.replace("{dir}", str(tmp_path)) for arg in g["argv"]], g["code"], g["stdout"], g["stderr"])
        for g in goldens
    ]
    assert len(want) == len(EXIT_CODES) + 3
    proc = fresh("-c", WITHOUT_SYMPY, json.dumps([argv for argv, *_ in want]))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [tuple(s) for s in report["seen"]] == [tuple(w[1:]) for w in want]
    assert report["sympy"] is False
