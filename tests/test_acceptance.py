"""Acceptance suite: one test (and one printed pass line) per criterion.

Each criterion enforces its own wall-clock budget.
"""

import itertools
import random
import time

from oracles import all_k2_reps, grid_has_idempotent, k2_root_table
from quiverglue import decompose
from quiverglue.cli import main as cli_main
from quiverglue.decompose import (
    Oracle,
    OracleConfig,
    _search_reduced_sequence,
    canonical_decomposition,
)
from quiverglue.fixtures import load_quiver, load_rep
from quiverglue.linalg import DEFAULT_PRIME
from quiverglue.quiver import classify_root, euler_form
from quiverglue.reps import (
    direct_sum,
    ext_dim,
    hom_dim,
    indecomposable,
    random_rep,
)
from test_properties import ALL_RUNNERS

EULER_QUIVERS = ("K2", "K3", "S4", "S5", "EX39")


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds
        self.start = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.label} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
        )
        print(f"{self.label}: pass ({elapsed:.2f}s < {self.seconds}s)")


def run_cli(*argv):
    return cli_main(list(argv))


def test_criterion_1_euler_identity():
    budget = Budget("criterion 1 (euler identity, 200 pairs)", 10)
    rng = random.Random(0)
    pairs = 0
    while pairs < 200:
        q = load_quiver(rng.choice(EULER_QUIVERS))
        da = tuple(rng.randint(0, 2) for _ in range(q.n))
        db = tuple(rng.randint(0, 2) for _ in range(q.n))
        x = random_rep(q, da, DEFAULT_PRIME, rng.randint(0, 10**6))
        y = random_rep(q, db, DEFAULT_PRIME, rng.randint(0, 10**6))
        assert hom_dim(x, y) - ext_dim(x, y) == euler_form(q, da, db)
        pairs += 1
    budget.finish()


def test_criterion_2_loop_counterexample():
    budget = Budget("criterion 2 (loop counterexample)", 5)
    assert run_cli("reproduce", "loop-counterexample") == 0
    budget.finish()


def test_criterion_3_sub4_gluing():
    budget = Budget("criterion 3 (4-subspace gluing)", 10)
    assert run_cli("reproduce", "sub4-glue") == 0
    budget.finish()


def test_criterion_4_sub8_qm_shape():
    budget = Budget("criterion 4 (8-subspace Q(M) shape)", 30)
    assert run_cli("reproduce", "sub8-realroot") == 0
    budget.finish()


def test_criterion_5_canonical_decompositions():
    config = OracleConfig()
    budget5 = Budget("criterion 5a (5-subspace canonical decomposition)", 30)
    s5 = canonical_decomposition(load_quiver("S5"), (10, 3, 3, 3, 3, 8), config)
    assert sorted(s5.summands) == [
        ((1, 0, 0, 0, 1, 1), 1),
        ((1, 0, 0, 1, 0, 1), 1),
        ((1, 0, 1, 0, 0, 1), 1),
        ((1, 1, 0, 0, 0, 1), 1),
        ((6, 2, 2, 2, 2, 4), 1),
    ]
    budget5.finish()
    budget4 = Budget("criterion 5b (4-subspace canonical decomposition)", 30)
    s4 = canonical_decomposition(load_quiver("S4"), (3, 2, 2, 1, 1), config)
    assert sorted(s4.summands) == [((1, 1, 1, 0, 0), 1), ((2, 1, 1, 1, 1), 1)]
    budget4.finish()


# machine-independent gates beside the clock: sub4-excseq draws 73 distinct
# modules (221 draws before the Oracle kept them), and the S5 (10,3,3,3,3,8)
# search forces a coefficient for the 2,334 candidates below its remainders
SUB4_EXCSEQ_DISTINCT_DRAWS = 73
S5_SEARCH_DOT_PRODUCTS = 2334


def test_criterion_6_exceptional_sequence_algorithm(monkeypatch):
    budget = Budget("criterion 6 (exceptional sequence algorithm)", 60)
    draws, products = [], []

    def counted_draw(*args):
        draws.append(args)
        return random_rep(*args)

    def counted_mul(x, y):
        products.append(1)
        return x * y

    monkeypatch.setattr(decompose, "random_rep", counted_draw)
    assert run_cli("reproduce", "sub4-excseq") == 0
    assert 0 < len(draws) <= SUB4_EXCSEQ_DISTINCT_DRAWS
    monkeypatch.setattr(decompose, "mul", counted_mul)
    s5 = load_quiver("S5")
    assert _search_reduced_sequence(Oracle(s5, OracleConfig()), (10, 3, 3, 3, 3, 8)) is None
    assert 0 < len(products) <= S5_SEARCH_DOT_PRODUCTS * s5.n
    budget.finish()


def test_criterion_7_indecomposability_oracle_agreement():
    budget = Budget("criterion 7 (indecomposability oracle agreement)", 30)
    q = load_quiver("K2")
    checked = 0
    for x in all_k2_reps(q, max_dim=2):
        verdict = indecomposable(x)
        assert verdict.tag in ("indecomposable", "decomposable")
        assert (verdict.tag == "decomposable") == grid_has_idempotent(x)
        checked += 1
    assert checked == 296
    fixtures = [load_rep(n) for n in ("M", "X0", "X1", "Malpha", "Mbeta")]
    for a, b in itertools.combinations(fixtures, 2):
        if a.quiver == b.quiver:
            assert indecomposable(direct_sum(a, b)).tag == "decomposable"
    for a in fixtures:
        assert indecomposable(direct_sum(a, a)).tag == "decomposable"
    budget.finish()


def test_criterion_8_k2_root_table():
    budget = Budget("criterion 8 (K(2) root table)", 10)
    q = load_quiver("K2")
    expected = k2_root_table(4)
    for x in range(5):
        for y in range(5):
            if (x, y) == (0, 0):
                continue
            assert classify_root(q, (x, y)).is_root() == ((x, y) in expected)
    budget.finish()


def test_criterion_9_property_suite():
    budget = Budget("criterion 9 (property suite)", 60)
    total = sum(runner() for runner in ALL_RUNNERS)
    assert total >= 500
    budget.finish()
