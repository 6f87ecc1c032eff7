"""No generic answer depends on --prime.

Every argv of tests/golden/generic_box.json, perp_box.json and
seeded_commands.json that takes a --prime is run again at p = 2, 3, 5, 101
and 2^31 - 1 (1,280 argvs, 6,400 runs).  Generic hom is exact at every
prime (a sample certifies it only where it meets the Euler floor, and
Schofield's recursion decides the rest), so the exit code, the stdout below
the samples/prime/seed header and the stderr must be the same at every p.
"""

import json
from pathlib import Path

import pytest

from quiverglue import cli
from test_cli import CYCLE_QUIVERS

GOLDEN = Path(__file__).parent / "golden"
PRIMES = ("2", "3", "5", "101", "2147483647")
HEADER = 3  # samples, prime, seed


def prime_argvs(golden):
    """The argvs of a golden file that take a --prime, each with -q where the entry names a quiver."""
    out = []
    for g in json.loads((GOLDEN / golden).read_text(encoding="utf-8")):
        argv = list(g["argv"])
        if "--prime" not in argv:
            continue
        if "quiver" in g:
            argv[1:1] = ["-q", g["quiver"]]
        out.append(argv)
    return out


@pytest.mark.parametrize("golden", ["generic_box.json", "perp_box.json", "seeded_commands.json"])
def test_no_output_depends_on_the_prime(capsys, tmp_path, golden):
    for name, body in CYCLE_QUIVERS.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    argvs = prime_argvs(golden)
    assert argvs
    moved = []
    for argv in argvs:
        argv = [str(tmp_path / a) if a in CYCLE_QUIVERS else a for a in argv]
        at = argv.index("--prime") + 1
        seen = set()
        for p in PRIMES:
            argv[at] = p
            code = cli.main(argv)
            captured = capsys.readouterr()
            seen.add((code, tuple(captured.out.splitlines()[HEADER:]), captured.err))
        if len(seen) > 1:
            moved.append(argv)
    assert moved == []
