"""`candecomp`, `excdecomp` and `perpsimples` on every small vector, at four primes.

tests/golden/generic_box.json holds the exit code, stdout and stderr of each
of the three commands on every nonzero vector of a small box on K3, S4 and
the oriented cycles C2 and C3, at --prime 2, 3, 101 and 2^31 - 1 (876 runs).
Entries are keyed by the quiver's fixture or file name; the cycle quivers are
written to a temporary directory before the replay.  Re-record with
`PYTHONPATH=src python tests/test_generic_box.py`.

The 28 entries whose `perp_simples` search ran out of its bound before any
sampled check (`perpsimples` on K3 (1,0); `perpsimples` on C2 (0,1), (1,0),
(1,2), (2,1) and `excdecomp` on C2 (1,2), (2,1), at every prime) were
recorded again when that message came to name the bound and suggest
`--bound` instead of a larger prime.

When generic hom became exact at every prime (a sample kept only where it
meets the Euler floor, Schofield's recursion for the rest), 58 entries
were recorded again: the 22 S4 `perpsimples` on (1,0,0,1,1) ... (1,1,1,1,1)
at --prime 2 and 3, which had exited 2 with "bound exhausted over F_p; try
a larger prime" and now print the simples they print at 2^31 - 1; and the
36 C3 `perpsimples` on (0,1,1), (1,0,1), (1,1,0), (1,2,2), (2,1,2),
(2,2,1) and `excdecomp` on (1,2,2), (2,1,2), (2,2,1) at every prime, whose
exact hom rejects the same candidates, so their message now names the
bound and suggests `--bound`.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

from quiverglue import cli
from quiverglue.quiver import format_dimvector
from test_cli import CYCLE_QUIVERS

GOLDEN = Path(__file__).parent / "golden" / "generic_box.json"

# (quiver, number of vertices, largest entry)
BOXES = (("K3", 2, 2), ("S4", 5, 1), ("c2.quiver", 2, 2), ("c3.quiver", 3, 2))
PRIMES = ("2", "3", "101", "2147483647")
COMMANDS = ("candecomp", "excdecomp", "perpsimples")


def box_argvs(n, top, prime):
    """Every command on every nonzero vector of {0..top}^n, without -q."""
    return [
        [command, format_dimvector(a), "--prime", prime]
        for a in itertools.product(range(top + 1), repeat=n)
        if any(a)
        for command in COMMANDS
    ]


def quiver_spec(name, directory):
    if name not in CYCLE_QUIVERS:
        return name
    path = directory / name
    path.write_text(CYCLE_QUIVERS[name], encoding="utf-8")
    return str(path)


def run_argvs(name, argvs, directory, readouterr):
    """Each argv on the quiver via cli.main; readouterr() returns and clears (stdout, stderr)."""
    spec = quiver_spec(name, directory)
    seen = []
    for argv in argvs:
        code = cli.main([argv[0], "-q", spec, *argv[1:]])
        out, err = readouterr()
        seen.append({"quiver": name, "argv": argv, "code": code, "stdout": out, "stderr": err})
    return seen


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("name,n,top", BOXES, ids=[b[0] for b in BOXES])
def test_generic_box_matches_golden(capsys, tmp_path, name, n, top, prime):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = [g for g in golden if g["quiver"] == name and g["argv"][3] == prime]
    assert run_argvs(name, box_argvs(n, top, prime), tmp_path, capsys.readouterr) == expected


def test_generic_box_golden_covers_the_box():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 876
    assert [(g["quiver"], g["argv"]) for g in golden] == [
        (name, argv) for name, n, top in BOXES for prime in PRIMES for argv in box_argvs(n, top, prime)
    ]


def record(golden, runs):
    """Writes to `golden` the outcome of each (quiver, argvs) pair of `runs`."""
    import contextlib
    import io
    import tempfile

    out, err = io.StringIO(), io.StringIO()

    def readouterr():
        seen = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return seen

    recorded = []
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for name, argvs in runs:
                recorded += run_argvs(name, argvs, Path(tmp), readouterr)
    golden.write_text(json.dumps(recorded, indent=0) + "\n", encoding="utf-8")
    print(f"{len(recorded)} runs written to {golden}", file=sys.stderr)


if __name__ == "__main__":
    record(GOLDEN, [(name, box_argvs(n, top, prime)) for name, n, top in BOXES for prime in PRIMES])
