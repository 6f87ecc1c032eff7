"""Fuzzed vector commands: every command that reads a dimension vector exits 0, 1 or 2.

Each example runs `candecomp`, `excdecomp`, `perpsimples`, `check-seq` or
`reproduce` on K3 or S4, with well-formed or malformed vectors, a prime
among 2, 3, 101, 2^31 - 1 and the non-primes 4, 1, 0, -7, and a sample
count among 0, 1, 2, 5.  Exit 1 means the input is wrong, so it may not
depend on sampling: a malformed vector or reproduce id always exits 1, and
with a valid prime and at least one sample an exit 1 is also an exit 1 at
the default `--prime` and `--samples`.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from quiverglue.cli import main

# small vectors, so that one example runs in well under a second
VECTORS = {
    "K3": ("(1,1)", "(2,1)", "(1,2)", "(2,2)", "(1,0)", "(0,1)", "(0,0)", "(3,1)"),
    "S4": (
        "(1,1,2,1,1)", "(2,1,1,1,1)", "(1,1,1,0,0)", "(1,0,0,0,1)", "(1,0,0,0,0)",
        "(0,1,0,0,0)", "(0,0,0,0,0)",
    ),
}
# input errors on either quiver: bad syntax, wrong length, negative entries
MALFORMED = (
    "", "()", "(", "(1,1", "1,1)", "(1,,1)", "(1,1,)", "(,)", "(a,1)", "(1.5,1)", "(1_0,1)",
    "(٣,1)", "(1;1)", "[1,1]", "(1,1)x2", "(1,1,1)", "(1,-1)", "(-1,0,0,0,0)",
    "(1,1,1,1,1,1)",
)
REPRODUCE_IDS = ("k2-jordan", "sub4-glue", "sub8-realroot", "sub4-excseq", "loop-counterexample")
BAD_IDS = ("", "sub4", "SUB4-GLUE", "sub4-glue ")
PRIMES = ("2", "3", "101", str(2**31 - 1), "4", "1", "0", "-7")
SAMPLES = ("0", "1", "2", "5")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


@st.composite
def vector_commands(draw):
    """(argv without sampling options, whether the input is malformed)."""
    command = draw(st.sampled_from(("candecomp", "excdecomp", "perpsimples", "check-seq", "reproduce")))
    if command == "reproduce":
        bad = draw(st.booleans())
        return ["reproduce", draw(st.sampled_from(BAD_IDS if bad else REPRODUCE_IDS))], bad
    quiver = draw(st.sampled_from(sorted(VECTORS)))
    count = 2 if command in ("perpsimples", "check-seq") else 1
    bad = [draw(st.integers(0, 4)) == 0 for _ in range(count)]
    vectors = [draw(st.sampled_from(MALFORMED if b else VECTORS[quiver])) for b in bad]
    argv = [command, "-q", quiver, vectors[0]]
    if command == "perpsimples":
        argv += ["--side", draw(st.sampled_from(("left", "right"))), vectors[1]]
    elif command == "check-seq":
        argv.append(f"{vectors[1]}x{draw(st.sampled_from(('1', '2')))}")
    return argv, any(bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vector_commands(), st.sampled_from(PRIMES), st.sampled_from(SAMPLES))
@example((["candecomp", "-q", "S4", "(1,1,2,1,1)"], False), "2", "1")
def test_vector_commands_exit_one_only_on_input_errors(command, prime, samples):
    argv, malformed = command
    code = run(argv + ["--prime", prime, "--samples", samples])
    assert code in (0, 1, 2)
    if malformed:
        assert code == 1
    elif code == 1 and int(prime) in (2, 3, 101, 2**31 - 1) and samples != "0":
        assert run(argv) == 1
