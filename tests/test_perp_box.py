"""`perpsimples` on every small vector, on both sides, at two large primes.

tests/golden/perp_box.json holds the exit code, stdout and stderr of
`perpsimples --side left` and `--side right` on every nonzero vector of S5
with entries at most 1, and of `perpsimples --side left` on the boxes of
`test_generic_box.py` (K3, S4 and the oriented cycles C2 and C3), at
--prime 101 and 2^31 - 1.  The generic box covers only the right side.
Re-record with `PYTHONPATH=src python tests/test_perp_box.py`.
"""

import itertools
import json
from pathlib import Path

import pytest

from quiverglue.quiver import format_dimvector
from test_generic_box import BOXES, record, run_argvs

GOLDEN = Path(__file__).parent / "golden" / "perp_box.json"

# (quiver, number of vertices, largest entry, sides)
PERP_BOXES = (("S5", 6, 1, ("left", "right")),) + tuple(
    (name, n, top, ("left",)) for name, n, top in BOXES
)
PRIMES = ("101", "2147483647")


def box_argvs(n, top, sides, prime):
    """`perpsimples` on every nonzero vector of {0..top}^n, without -q."""
    return [
        ["perpsimples", format_dimvector(a), "--side", side, "--prime", prime]
        for a in itertools.product(range(top + 1), repeat=n)
        if any(a)
        for side in sides
    ]


@pytest.mark.parametrize("prime", PRIMES)
@pytest.mark.parametrize("name,n,top,sides", PERP_BOXES, ids=[b[0] for b in PERP_BOXES])
def test_perp_box_matches_golden(capsys, tmp_path, name, n, top, sides, prime):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = [g for g in golden if g["quiver"] == name and g["argv"][5] == prime]
    assert run_argvs(name, box_argvs(n, top, sides, prime), tmp_path, capsys.readouterr) == expected


def test_perp_box_golden_covers_the_box():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 398
    assert [(g["quiver"], g["argv"]) for g in golden] == [
        (name, argv)
        for name, n, top, sides in PERP_BOXES
        for prime in PRIMES
        for argv in box_argvs(n, top, sides, prime)
    ]


if __name__ == "__main__":
    record(
        GOLDEN,
        [
            (name, box_argvs(n, top, sides, prime))
            for name, n, top, sides in PERP_BOXES
            for prime in PRIMES
        ],
    )
