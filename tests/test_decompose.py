import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
from oracles import (
    OracleUnstableError,
    generic_summands,
    reference_candidate_roots,
    reference_generic_summands,
    reference_perp_candidates,
    sampled_canonical_decomposition,
    sampled_schurian,
    verify_canonical,
)
from quiverglue import decompose
from quiverglue.decompose import (
    BoundExhaustedError,
    DecomposeError,
    Oracle,
    OracleConfig,
    _candidate_roots,
    _merged_summands,
    _nonneg_combination,
    _real_roots,
    canonical_decomposition,
    exceptional_sequence_decomposition,
    perp_simples,
    sample_exceptional_rep,
    verify_reduced_sequence,
)
from quiverglue.fixtures import QUIVER_FILES, load_quiver
from quiverglue.linalg import DEFAULT_PRIME
from quiverglue.quiver import (
    Arrow,
    Quiver,
    classify_root,
    euler_form,
    format_dimvector,
    parse_dimvector,
)
from quiverglue.reps import _derive_seed, end_algebra, ext_dim, hom_dim, random_rep


CONFIG = OracleConfig()


def test_oracle_matches_exact_values_on_roots():
    q = load_quiver("S4")
    oracle = Oracle(q, CONFIG)
    a, b = (1, 0, 1, 0, 0), (1, 0, 0, 1, 1)
    assert oracle.hom(a, b) == 0
    assert oracle.ext(a, b) == 0
    assert oracle.hom(a, a) == 1
    assert oracle.schurian(a)
    assert oracle.exceptional_root(a)
    assert not oracle.schurian((3, 2, 2, 1, 1))


def test_canonical_decomposition_schur_root_is_itself():
    q = load_quiver("K2")
    decomp = canonical_decomposition(q, (1, 1), CONFIG)
    assert decomp.summands == (((1, 1), 1),)


def test_canonical_decomposition_sub4():
    q = load_quiver("S4")
    decomp = canonical_decomposition(q, (3, 2, 2, 1, 1), CONFIG)
    assert sorted(decomp.summands) == [((1, 1, 1, 0, 0), 1), ((2, 1, 1, 1, 1), 1)]


def test_canonical_decomposition_sub5():
    q = load_quiver("S5")
    decomp = canonical_decomposition(q, (10, 3, 3, 3, 3, 8), CONFIG)
    assert sorted(decomp.summands) == [
        ((1, 0, 0, 0, 1, 1), 1),
        ((1, 0, 0, 1, 0, 1), 1),
        ((1, 0, 1, 0, 0, 1), 1),
        ((1, 1, 0, 0, 0, 1), 1),
        ((6, 2, 2, 2, 2, 4), 1),
    ]


def test_canonical_decomposition_sum_identity():
    q = load_quiver("S5")
    a = (10, 3, 3, 3, 3, 8)
    decomp = canonical_decomposition(q, a, CONFIG)
    total = [0] * q.n
    for root, mult in decomp.summands:
        total = [t + mult * r for t, r in zip(total, root)]
    assert tuple(total) == a


def test_perp_simples_sink_simple():
    q = load_quiver("S5")
    simples = perp_simples(Oracle(q, CONFIG), [q.unit_vector("q0")], side="right")
    assert set(simples) == {q.unit_vector(f"q{i}") for i in range(1, 6)}


def test_perp_simples_full_sequence_empty():
    q = load_quiver("K2")
    assert perp_simples(Oracle(q, CONFIG), [(1, 0), (0, 1)], side="right") == []


def test_perp_simples_left_side_postconditions():
    from quiverglue.linalg import Matrix, QQ, rank
    from quiverglue.quiver import euler_form

    q = load_quiver("S4")
    eps = (1, 0, 1, 0, 0)
    oracle = Oracle(q, CONFIG)
    simples = perp_simples(oracle, [eps], side="left")
    assert len(simples) == 4
    for s in simples:
        assert euler_form(q, s, s) == 1
        assert euler_form(q, s, eps) == 0
        assert oracle.schurian(s)
        assert oracle.hom(s, eps) == 0
    for i, a in enumerate(simples):
        for b in simples[i + 1 :]:
            assert oracle.hom(a, b) == 0 and oracle.hom(b, a) == 0
    cols = Matrix.from_rows(
        [[QQ.coerce(s[r]) for s in simples] for r in range(q.n)], QQ, cols=4
    )
    assert rank(cols) == 4


@pytest.mark.parametrize("p,samples", [(2, 40), (DEFAULT_PRIME, 5)])
def test_verify_canonical_rejects_a_repeated_summand_with_ext(p, samples):
    # <r, r> = -1, so ext(r, r) > 0 and r x2 is not canonical; over F_2 the
    # sampled modules split (10,3,3,3,3,8) this way, and the third escalation
    # (40 samples) used to accept it
    q = load_quiver("S5")
    r = (3, 1, 1, 1, 1, 2)
    rest = [(v, 1) for v in [(1, 0, 0, 0, 1, 1), (1, 0, 0, 1, 0, 1), (1, 0, 1, 0, 0, 1), (1, 1, 0, 0, 0, 1)]]
    oracle = Oracle(q, OracleConfig(prime=p, samples=samples))
    assert oracle.schurian(r)
    assert not verify_canonical(oracle, (10, 3, 3, 3, 3, 8), ((r, 2), *rest))


def test_sample_exceptional_rep():
    q = load_quiver("S4")
    x = sample_exceptional_rep(Oracle(q, CONFIG), (1, 0, 1, 0, 0))
    assert hom_dim(x, x) == 1
    assert ext_dim(x, x) == 0


@pytest.mark.parametrize("p", [2, DEFAULT_PRIME])
def test_sample_exceptional_rep_rejects_a_vector_with_form_other_than_one(monkeypatch, p):
    # hom - ext = <a, a>, so no sample of (1,1) on K2 (<a, a> = 0) or on K3
    # (<a, a> = -1) is exceptional: nothing is drawn
    drawn = []

    def counted(*args):
        drawn.append(args)
        return random_rep(*args)

    monkeypatch.setattr(decompose, "random_rep", counted)
    for name, norm in [("K2", 0), ("K3", -1)]:
        with pytest.raises(DecomposeError, match=rf"is exceptional: <a,a> = {norm}, not 1"):
            sample_exceptional_rep(Oracle(load_quiver(name), OracleConfig(prime=p)), (1, 1))
    assert drawn == []


def test_excdecomp_rejects_non_root():
    q = load_quiver("K2")
    with pytest.raises(DecomposeError):
        exceptional_sequence_decomposition(Oracle(q, CONFIG), (1, 3))


def test_excdecomp_rejects_schur_root():
    q = load_quiver("K2")
    with pytest.raises(DecomposeError):
        exceptional_sequence_decomposition(Oracle(q, CONFIG), (1, 1))


# the Schur-root error is read off the exact canonical decomposition, so at
# every prime it must be raised exactly when the sampled End(X) of the vector
# over F_(2^31 - 1) is the scalars; a sampled End(X) = k over F_p certifies a
# Schur root too, so it must never meet a vector without the error
SCHUR_BOXES = [("K3", 3), ("S4", 1)]


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name,top", SCHUR_BOXES)
def test_excdecomp_schur_error_iff_sampled_schurian(name, top, p):
    q = load_quiver(name)
    config = OracleConfig(prime=p)
    reference, at_p = Oracle(q, CONFIG), Oracle(q, config)
    for a in itertools.product(range(top + 1), repeat=q.n):
        if not any(a) or not classify_root(q, a).is_root():
            continue
        try:
            exceptional_sequence_decomposition(at_p, a)
            schur_error = False
        except DecomposeError as exc:
            schur_error = "is a Schur root" in str(exc)
        assert schur_error == sampled_schurian(reference, a), a
        assert schur_error or not sampled_schurian(at_p, a), a


def test_excdecomp_on_the_isotropic_root_samples_no_end_of_it(monkeypatch):
    # the canonical decomposition of (10,3,3,3,3,8) is not itself x1, which
    # settles that it is no Schur root without a Hom between two of its samples
    a = (10, 3, 3, 3, 3, 8)
    pairs = []

    def counted(x, y):
        pairs.append((x.dims, y.dims))
        return hom_dim(x, y)

    monkeypatch.setattr(decompose, "hom_dim", counted)
    report = exceptional_sequence_decomposition(Oracle(load_quiver("S5"), CONFIG), a)
    assert report.result == "trivial"
    assert pairs  # the wrapper is on the oracle's path
    assert (a, a) not in pairs


def test_schurian_on_an_acyclic_quiver_samples_nothing(monkeypatch):
    # Oracle.schurian reads the exact canonical decomposition, at any prime
    drawn = []

    def counted(x, y):
        drawn.append((x.dims, y.dims))
        return hom_dim(x, y)

    monkeypatch.setattr(decompose, "hom_dim", counted)
    cases = [
        ("K3", (2, 2), True),
        ("K3", (4, 1), False),
        ("S4", (1, 1, 1, 1, 1), True),
        ("S4", (3, 2, 2, 1, 1), False),
        ("S5", (6, 2, 2, 2, 2, 4), True),
        ("S5", (10, 3, 3, 3, 3, 8), False),
    ]
    for name, a, expected in cases:
        for p in (2, DEFAULT_PRIME):
            oracle = Oracle(load_quiver(name), OracleConfig(prime=p))
            assert oracle.schurian(a) is expected, (name, a, p)
    assert drawn == []


def test_excdecomp_step_0_makes_no_schur_query(monkeypatch):
    # every canonical summand is a Schur root already, so step 0 keeps the
    # real ones without asking the oracle; the first queries come in step 1
    queries, pairs, at_step_1 = [], [], []
    schurian, perp = Oracle.schurian, decompose.perp_simples

    def counted_schurian(self, a):
        queries.append(a)
        return schurian(self, a)

    def counted_hom(x, y):
        pairs.append((x.dims, y.dims))
        return hom_dim(x, y)

    def step_1(*args, **kwargs):
        at_step_1.append((len(queries), len(pairs)))
        return perp(*args, **kwargs)

    monkeypatch.setattr(Oracle, "schurian", counted_schurian)
    monkeypatch.setattr(decompose, "hom_dim", counted_hom)
    monkeypatch.setattr(decompose, "perp_simples", step_1)
    report = exceptional_sequence_decomposition(Oracle(load_quiver("S5"), CONFIG), (10, 3, 3, 3, 3, 8))
    assert report.result == "trivial"
    assert at_step_1 == [(0, 0)]
    assert queries and pairs  # the wrappers are on the later steps' path


def test_one_oracle_serves_each_command(monkeypatch, capsys):
    # excdecomp builds one Oracle and reproduce sub4-excseq one per quiver,
    # so no Hom between sampled modules is computed for a second Oracle
    from quiverglue.cli import main

    built, homs = [], []
    init = Oracle.__init__

    def counted_init(self, quiver, config):
        built.append(quiver.name)
        init(self, quiver, config)

    def counted_hom(x, y):
        homs.append((x.dims, y.dims))
        return hom_dim(x, y)

    monkeypatch.setattr(Oracle, "__init__", counted_init)
    monkeypatch.setattr(decompose, "hom_dim", counted_hom)
    for argv, oracles, ceiling in [
        (["excdecomp", "-q", "S4", "(3,2,2,1,1)"], ["S4"], 45),
        (["reproduce", "sub4-excseq"], ["S4", "S5"], 132),
    ]:
        built.clear()
        homs.clear()
        assert main(argv) == 0
        assert built == oracles, argv
        assert len(homs) <= ceiling, argv
    capsys.readouterr()


def test_oracle_sample_draws_each_module_once():
    q = load_quiver("S4")
    oracle = Oracle(q, OracleConfig(seed=3))
    a = (2, 1, 1, 0, 1)
    x = oracle.sample(a, 7)
    assert oracle.sample(list(a), 7) is x
    assert x == random_rep(q, a, DEFAULT_PRIME, _derive_seed(3, 7))
    assert oracle.sample(a, 8) is not x
    assert oracle.sample(a, 8) == random_rep(q, a, DEFAULT_PRIME, _derive_seed(3, 8))


def test_reproduce_sub4_excseq_draws_each_module_once(monkeypatch, capsys):
    # before the Oracle kept its samples this command made 221 draws, 73 of
    # them distinct; sample_exceptional_rep draws through the same Oracle,
    # and its draws are in the count too
    from quiverglue.cli import main

    drawn = []

    def counted(quiver, a, prime, seed):
        drawn.append((quiver.name, tuple(a), prime, seed))
        return random_rep(quiver, a, prime, seed)

    monkeypatch.setattr(decompose, "random_rep", counted)
    assert main(["reproduce", "sub4-excseq"]) == 0
    capsys.readouterr()
    assert len(drawn) == len(set(drawn)) == 73


# -- the sampled End(X) Schur test as a differential reference -----------

# every nonzero vector of each box (a non-root is never Schurian) and a few
# non-Schur roots outside it
SCHUR_REFERENCE_BOXES = [
    ("K3", 4, []),
    ("S4", 2, [(3, 2, 2, 1, 1), (4, 2, 2, 1, 1)]),
    ("S5", 1, [(10, 3, 3, 3, 3, 8), (4, 1, 1, 1, 1, 2)]),
]


def _schur_reference_vectors(q, top, extra):
    return [a for a in itertools.product(range(top + 1), repeat=q.n) if any(a)] + extra


@pytest.mark.parametrize("name,top,extra", SCHUR_REFERENCE_BOXES, ids=["K3", "S4", "S5"])
def test_schurian_matches_the_sampled_reference(name, top, extra):
    q = load_quiver(name)
    oracle = Oracle(q, CONFIG)
    for a in _schur_reference_vectors(q, top, extra):
        assert oracle.schurian(a) == sampled_schurian(oracle, a), a


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name,top,extra", SCHUR_REFERENCE_BOXES, ids=["K3", "S4", "S5"])
def test_a_sampled_schurian_verdict_implies_the_exact_one(name, top, extra, p):
    # one sampled module with End = k bounds the generic End by 1, so a
    # sampled True is a certificate; over a small field the samples may only
    # miss a Schur root (20 of the 29 in the S4 box over F_2), never invent one
    q = load_quiver(name)
    oracle = Oracle(q, OracleConfig(prime=p))
    for a in _schur_reference_vectors(q, top, extra):
        if sampled_schurian(oracle, a):
            assert oracle.schurian(a), a


# the oriented cycles of tests/test_cli.py: loop-free, so their real roots are
# still the Weyl-group orbit of the simples
CYCLES = {
    "C2": Quiver("C2", ("a", "b"), (Arrow("x", "a", "b"), Arrow("y", "b", "a"))),
    "C3": Quiver(
        "C3", ("a", "b", "c"), (Arrow("x", "a", "b"), Arrow("y", "b", "c"), Arrow("z", "c", "a"))
    ),
}


def _named_quiver(name):
    return CYCLES[name] if name in CYCLES else load_quiver(name)


@pytest.mark.parametrize(
    "name,vectors",
    [
        ("K3", list(itertools.product(range(6), repeat=2))),
        ("S4", list(itertools.product(range(3), repeat=5)) + [(4, 2, 2, 1, 1)]),
        ("S5", [(10, 3, 3, 3, 3, 8), (6, 2, 2, 2, 2, 4), (4, 1, 2, 1, 1, 3)]),
        ("C2", list(itertools.product(range(9), repeat=2))),
        ("C3", list(itertools.product(range(5), repeat=3))),
    ],
)
def test_candidate_roots_match_product_enumeration(name, vectors):
    q = _named_quiver(name)
    for a in vectors:
        if any(a):
            assert _candidate_roots(q, a) == reference_candidate_roots(q, a), a


def test_candidate_roots_match_product_enumeration_on_random_acyclic_quivers():
    rng = random.Random(22)
    for _ in range(40):
        q = random_acyclic_quiver(rng, rng.randint(2, 5), 3)
        for _ in range(25):
            a = tuple(rng.randint(0, 4) for _ in range(q.n))
            if any(a):
                expected = reference_candidate_roots(q, a)
                assert _candidate_roots(q, a) == expected, (q.arrow_indices, a)


def _walk_up_to(q, bound):
    """The real-root walk under (bound, ..., bound), up to total dimension bound."""
    return list(itertools.takewhile(lambda v: sum(v) <= bound, _real_roots(q, (bound,) * q.n)))


def _assert_walk_matches_composition_filter(q, top):
    expected = reference_perp_candidates(q, top)
    for bound in range(1, top + 1):
        assert _walk_up_to(q, bound) == [v for v in expected if sum(v) <= bound], (q, bound)


@pytest.mark.parametrize("name", sorted(QUIVER_FILES) + sorted(CYCLES))
def test_real_roots_walk_in_the_order_of_the_composition_filter(name):
    _assert_walk_matches_composition_filter(_named_quiver(name), 9)


def test_real_roots_walk_in_the_order_of_the_composition_filter_on_random_acyclic_quivers():
    rng = random.Random(24)
    for _ in range(40):
        q = random_acyclic_quiver(rng, rng.randint(2, 5), 3)
        _assert_walk_matches_composition_filter(q, 9)


def test_excdecomp_sub4_nontrivial_and_verified():
    q = load_quiver("S4")
    report = exceptional_sequence_decomposition(Oracle(q, CONFIG), (3, 2, 2, 1, 1))
    assert report.result == "sequence"
    assert report.verification is not None and report.verification.ok
    total = [0] * q.n
    for root, c in zip(report.roots, report.coeffs):
        assert c > 0
        total = [t + c * r for t, r in zip(total, root)]
    assert tuple(total) == (3, 2, 2, 1, 1)
    assert any(sum(r) > 1 for r in report.roots)


def test_reference_sequence_verifies():
    q = load_quiver("S4")
    roots = [(1, 0, 1, 0, 0), (1, 0, 0, 1, 1), (0, 1, 0, 0, 0)]
    report = verify_reduced_sequence(Oracle(q, CONFIG), roots, [2, 1, 2], (3, 2, 2, 1, 1))
    assert report.ok


def test_verifier_rejects_wrong_sum():
    q = load_quiver("S4")
    roots = [(1, 0, 1, 0, 0), (1, 0, 0, 1, 1)]
    report = verify_reduced_sequence(Oracle(q, CONFIG), roots, [1, 1], (3, 2, 2, 1, 1))
    assert not report.ok


def test_verifier_rejects_non_reduced_pair():
    # e_q0 and e_q1 on S4 admit homs between the pair's generic representatives
    q = load_quiver("S4")
    roots = [(1, 1, 1, 0, 0), (1, 1, 0, 1, 0)]
    report = verify_reduced_sequence(Oracle(q, CONFIG), roots, [1, 1], (2, 2, 1, 1, 0))
    assert not report.ok


def test_trivial_report_lines_shape():
    q = load_quiver("S5")
    report = exceptional_sequence_decomposition(Oracle(q, CONFIG), (10, 3, 3, 3, 3, 8))
    assert report.result == "trivial"
    lines = report.lines()
    assert any(line.startswith("summand") for line in lines)
    assert "result trivial" in lines
    # the trivial decomposition uses only unit vectors
    assert all(sum(r) == 1 for r in report.roots)
    total = [0] * q.n
    for root, c in zip(report.roots, report.coeffs):
        total = [t + c * r for t, r in zip(total, root)]
    assert tuple(total) == (10, 3, 3, 3, 3, 8)


def test_search_reduced_sequence_frees_its_oracle():
    # the recursive search must not keep itself alive through a reference
    # cycle: with the collector off, dropping the caller's reference to the
    # oracle has to free it together with the search's memo tables
    import gc
    import weakref

    from quiverglue.decompose import _search_reduced_sequence

    q = load_quiver("S4")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        oracle = Oracle(q, CONFIG)
        found = _search_reduced_sequence(oracle, (3, 2, 2, 1, 1))
        assert found is not None
        ref = weakref.ref(oracle)
        del oracle
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# the step-2 search against the unpruned reference: every nonzero vector of
# each box, with a fresh oracle per search so the Hom keys belong to one search
SEARCH_BOXES = [("K3", 7), ("S4", 2), ("S5", 1), ("C2", 6), ("C3", 3)]


@pytest.mark.parametrize("name,top", SEARCH_BOXES)
def test_pruned_search_matches_reference(name, top):
    import itertools

    from oracles import classify_root_by_reflection, reference_search_reduced_sequence
    from quiverglue.decompose import _search_reduced_sequence
    from quiverglue.quiver import classify_root

    q = _named_quiver(name)
    for a in itertools.product(range(top + 1), repeat=q.n):
        if not any(a):
            continue
        ref_oracle, oracle = Oracle(q, CONFIG), Oracle(q, CONFIG)
        expected = reference_search_reduced_sequence(q, ref_oracle, a)
        assert _search_reduced_sequence(oracle, a) == expected, a
        assert set(oracle._hom) <= set(ref_oracle._hom), a
        assert classify_root(q, a) == classify_root_by_reflection(q, a), a


def test_pruned_search_on_the_isotropic_root_makes_few_hom_queries():
    # the unpruned search makes 6,098 distinct Hom queries here before it
    # exhausts; the remainder condition settles it with 48
    from quiverglue.decompose import _search_reduced_sequence

    q = load_quiver("S5")
    oracle = Oracle(q, CONFIG)
    assert _search_reduced_sequence(oracle, (10, 3, 3, 3, 3, 8)) is None
    assert len(oracle._hom) <= 100


def _both_ways(pairs):
    return {key for x, y in pairs for key in ((x, y), (y, x))}


def _s5_search_hom_keys():
    """The 48 Hom queries of the S5 (10,3,3,3,3,8) search, by the symmetry of the arms."""

    def thin(i, last):
        return (1, *(int(k == i) for k in range(4)), last)

    def large(i, j):  # arm i is 1, arm j is 0, the other two are 2
        return (4, *(1 if k == i else 0 if k == j else 2 for k in range(4)), 2)

    pairs = [
        (thin(i, e), thin(j, e)) for i, j in itertools.combinations(range(4), 2) for e in (0, 1)
    ]
    pairs += [(thin(i, 1), large(i, j)) for i, j in itertools.permutations(range(4), 2)]
    return _both_ways(pairs)


# the searches of excdecomp: (3,2,2,1,1) on S4 finds a sequence, (10,3,3,3,3,8)
# on S5 exhausts its space.  The node counts and Hom queries were recorded from
# a search that walked the whole box of candidates and tried every coefficient;
# generating the candidates and forcing the coefficient must not change them
S4_SEARCH_HOM_KEYS = _both_ways(
    [
        ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0)),
        ((0, 0, 0, 1, 0), (1, 0, 0, 0, 1)),
        ((0, 0, 0, 1, 0), (1, 0, 1, 0, 0)),
        ((0, 1, 0, 0, 0), (1, 0, 0, 0, 1)),
        ((0, 1, 0, 0, 0), (1, 0, 1, 0, 0)),
        ((1, 0, 0, 0, 1), (1, 0, 0, 1, 0)),
        ((1, 0, 0, 0, 1), (1, 0, 1, 0, 0)),
    ]
)
SEARCHES = [
    ("S4", (3, 2, 2, 1, 1), 9, S4_SEARCH_HOM_KEYS),
    ("S5", (10, 3, 3, 3, 3, 8), 61, _s5_search_hom_keys()),
]


@pytest.mark.parametrize("name,a,nodes,hom_keys", SEARCHES, ids=["S4", "S5"])
def test_search_uses_its_recorded_nodes_and_hom_queries(monkeypatch, name, a, nodes, hom_keys):
    from quiverglue.decompose import _search_reduced_sequence

    q = load_quiver(name)
    monkeypatch.setattr(decompose, "MAX_SEARCH_NODES", nodes)
    oracle = Oracle(q, CONFIG)
    found = _search_reduced_sequence(oracle, a)
    assert (found is None) == (name == "S5")
    assert set(oracle._hom) == hom_keys
    monkeypatch.setattr(decompose, "MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(DecomposeError, match="search budget exhausted"):
        _search_reduced_sequence(Oracle(q, CONFIG), a)


def test_candidate_budget_ends_the_search(monkeypatch, capsys):
    # S4 (3,2,2,1,1) reaches 30 real roots below it: its 29 candidates and itself
    from quiverglue.cli import main
    from quiverglue.decompose import _search_reduced_sequence

    q, a = load_quiver("S4"), (3, 2, 2, 1, 1)
    expected = _search_reduced_sequence(Oracle(q, CONFIG), a)
    monkeypatch.setattr(decompose, "MAX_CANDIDATE_ROOTS", 30)
    assert len(_candidate_roots(q, a)) == 29
    assert _search_reduced_sequence(Oracle(q, CONFIG), a) == expected
    monkeypatch.setattr(decompose, "MAX_CANDIDATE_ROOTS", 29)
    with pytest.raises(DecomposeError, match="search budget exhausted"):
        _search_reduced_sequence(Oracle(q, CONFIG), a)
    monkeypatch.setattr(decompose, "MAX_CANDIDATE_ROOTS", 1000)
    assert main(["excdecomp", "-q", "S5", "(40,12,12,12,12,32)"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-4:-1] == ["step 2 search", "step 2 budget exhausted", "result unknown"]


def _count_classify_root(monkeypatch):
    """Wrap classify_root wherever quiverglue holds it; returns the list of its calls."""
    import sys

    from quiverglue import quiver as quiver_module

    original, calls = quiver_module.classify_root, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quiverglue":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert decompose.classify_root is counted
    return calls


def test_search_classifies_no_vector(monkeypatch):
    from quiverglue.decompose import _search_reduced_sequence

    calls = _count_classify_root(monkeypatch)
    q = load_quiver("S5")
    assert _search_reduced_sequence(Oracle(q, CONFIG), (10, 3, 3, 3, 3, 8)) is None
    assert calls == []


def test_perp_simples_classifies_no_vector(monkeypatch):
    calls = _count_classify_root(monkeypatch)
    s5, s4 = load_quiver("S5"), load_quiver("S4")
    assert len(perp_simples(Oracle(s5, CONFIG), [s5.unit_vector("q0")], side="right")) == 5
    assert len(perp_simples(Oracle(s4, CONFIG), [(1, 0, 1, 0, 0)], side="left")) == 4
    assert calls == []


def test_perp_walk_past_its_budget_is_undecided(monkeypatch, capsys):
    # on K3 the right perpendicular simple of (1,0) is (3,1), the fourth
    # real root the walk finds; with a budget of 3 the search is undecided
    from quiverglue.cli import main

    argv = ["perpsimples", "-q", "K3", "(1,0)", "--bound", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("simple (3,1)\n")
    monkeypatch.setattr(decompose, "MAX_CANDIDATE_ROOTS", 3)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: search budget exhausted: over 3 roots\n"
    q = load_quiver("K3")
    with pytest.raises(BoundExhaustedError, match="search budget exhausted"):
        perp_simples(Oracle(q, OracleConfig(bound=4)), [(1, 0)])


def test_perp_simples_blames_the_bound_when_only_the_schur_test_rejected(monkeypatch):
    # the Schur test reads the exact canonical decomposition, so no prime
    # changes its verdict; with every sampled hom at its Euler floor, only
    # the Schur test rejects, and the search must not suggest a larger prime
    monkeypatch.setattr(Oracle, "hom", lambda self, a, b: max(0, euler_form(self.quiver, a, b)))
    monkeypatch.setattr(Oracle, "schurian", lambda self, a: False)
    oracle = Oracle(load_quiver("S4"), CONFIG)
    with pytest.raises(BoundExhaustedError, match="try a larger --bound"):
        perp_simples(oracle, [(1, 0, 0, 0, 0)])


def test_perp_simples_rejects_more_roots_than_vertices():
    q = load_quiver("S4")
    roots = [q.unit_vector(v) for v in q.vertices] + [(1, 1, 0, 0, 0)]
    with pytest.raises(DecomposeError):
        perp_simples(Oracle(q, CONFIG), roots, side="right")


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_config_rejects_samples_below_one(samples):
    with pytest.raises(DecomposeError, match="samples must be at least 1"):
        OracleConfig(samples=samples)


@pytest.mark.parametrize("bound", [0, -5])
def test_oracle_config_rejects_bound_below_one(bound):
    with pytest.raises(DecomposeError, match="bound must be at least 1"):
        OracleConfig(bound=bound)
    assert OracleConfig(bound=None).bound is None and OracleConfig(bound=1).bound == 1


def test_nonneg_combination_with_dependent_accepted_vectors():
    # (1,1) = (1,0) + (0,1): the single solution solve returns is not the only one
    assert _nonneg_combination((0, 1), [(1, 1), (1, 0), (0, 1)]) == [0, 0, 1]
    assert _nonneg_combination((3, 1), [(1, 1), (1, 0), (0, 1)]) == [1, 2, 0]
    assert _nonneg_combination((2, 2), [(1, 1), (2, 2)]) == [2, 0]
    assert _nonneg_combination((1, 2), [(1, 1), (2, 2)]) is None
    assert _nonneg_combination((1, 0), [(1, 1), (0, 1)]) is None


def test_nonneg_combination_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 3)
        accepted = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        accepted = [a for a in accepted if any(a)] or [(1,) * n]
        vec = tuple(rng.randint(0, 4) for _ in range(n))
        expected = any(
            tuple(sum(k * a[i] for k, a in zip(ks, accepted)) for i in range(n)) == vec
            for ks in itertools.product(range(5), repeat=len(accepted))
        )
        found = _nonneg_combination(vec, accepted)
        assert (found is not None) == expected, (vec, accepted)
        if found is not None:
            assert all(isinstance(k, int) and k >= 0 for k in found), (vec, accepted, found)
            combination = tuple(sum(k * a[i] for k, a in zip(found, accepted)) for i in range(n))
            assert combination == vec, (vec, accepted, found)


# -- generic_summands in one End(X) against the module-splitting F_p reference

SUMMAND_CASES = (
    ("K3", (2, 2)),
    ("K3", (4, 1)),
    ("K3", (1, 5)),
    ("S4", (2, 1, 1, 1, 1)),
    ("S4", (3, 2, 2, 1, 1)),
    ("S4", (4, 1, 1, 1, 1)),
    ("S4", (2, 2, 2, 0, 1)),
    ("S5", (4, 1, 1, 1, 1, 2)),
    ("S5", (5, 2, 1, 1, 1, 3)),
)
# further seeds the reference may take to split a module it failed to split
REFERENCE_RESEEDS = 8


def _summands_or_unstable(split, x, seed):
    try:
        return sorted(split(x, seed=seed))
    except OracleUnstableError:
        return "unstable"


@pytest.mark.parametrize("p", [2, 3, 101, DEFAULT_PRIME])
def test_generic_summands_match_raw_block_reference(p):
    # Krull-Schmidt fixes the multiset of summands of a given module, not the
    # order in which the splits find them, so sorted lists are compared
    split = 0
    for name, dims in SUMMAND_CASES:
        q = load_quiver(name)
        for seed in range(3):
            x = random_rep(q, dims, p, seed)
            got = _summands_or_unstable(generic_summands, x, seed)
            expected = _summands_or_unstable(reference_generic_summands, x, seed)
            if expected == "unstable":
                if got == "unstable":
                    continue
                # the reference's draws at this seed split nothing; later ones do
                for other in range(seed + 1, seed + 1 + REFERENCE_RESEEDS):
                    expected = _summands_or_unstable(reference_generic_summands, x, other)
                    if expected != "unstable":
                        break
            assert got == expected, (name, dims, seed)
            split += len(got) > 1
    assert split >= 10  # the splitting path itself ran, not only Schurian modules


def test_generic_summands_build_one_end_algebra(monkeypatch):
    # the 30-dimensional module behind sub5-candecomp splits into five
    # summands, all inside End(X) of the module itself
    built = []

    def counted(x):
        built.append(x.dims)
        return end_algebra(x)

    monkeypatch.setattr(oracles, "end_algebra", counted)
    x = random_rep(load_quiver("S5"), (10, 3, 3, 3, 3, 8), DEFAULT_PRIME, 0)
    parts = generic_summands(x)
    assert len(parts) > 1
    assert built == [x.dims]


def test_sampled_canonical_splits_each_draw_once(monkeypatch):
    # draw k and its splitting seed do not depend on the escalation, so each
    # (module, seed) pair is split once however often the verification
    # escalates; splitting again on every escalation made 112 calls here,
    # 25 of them repeats
    calls = []

    def counted(x, seed=0):
        calls.append((x, seed))
        return generic_summands(x, seed=seed)

    monkeypatch.setattr(oracles, "generic_summands", counted)
    for p in (2, 3, 101):
        for a in _nonzero_box(2, 3):
            sampled_canonical_decomposition(CYCLES["C2"], a, OracleConfig(prime=p))
    assert len(calls) == len(set(calls)) == 87


# -- the exact canonical decomposition against the sampled path ----------
#
# On an acyclic quiver a verified sampled decomposition is a certificate (each
# summand is a sampled module with End = k, and a sampled ext of 0 is an
# upper-bound proof),
# so the sampled path at p = 2^31 - 1 is the reference for the exact one.
# A vector the sampled path cannot decide is skipped and counted.

TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "candecomp_table.json"


def _compare_with_sampled(q, vectors):
    """Asserts exact == sampled on every decided vector; returns the undecided count."""
    undecided = 0
    for a in vectors:
        exact = canonical_decomposition(q, a).summands
        try:
            sampled = sampled_canonical_decomposition(q, a, CONFIG)
        except OracleUnstableError:
            undecided += 1
            continue
        assert exact == sampled, (q.name, q.vertices, q.arrow_indices, a)
    assert undecided * 20 <= len(vectors), (q.name, undecided, len(vectors))
    return undecided


def _quiver(name, vertices, arrows):
    return Quiver(name, tuple(vertices), tuple(Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(arrows)))


def _orientations(name, vertices, edges):
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield _quiver(name, vertices, [(t, s) if f else (s, t) for (s, t), f in zip(edges, flips)])


def _nonzero_box(n, top):
    return [a for a in itertools.product(range(top + 1), repeat=n) if any(a)]


def random_acyclic_quiver(rng, n, most_parallel):
    """Arrows only from later to earlier vertices of a hidden order, then labels shuffled."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    arrows = [
        (names[j], names[i])
        for i in range(n)
        for j in range(i + 1, n)
        for _ in range(rng.choice((0, 0, 1, 1, 2, most_parallel)))
    ]
    vertices = list(names)
    rng.shuffle(vertices)
    return _quiver("R", vertices, arrows)


def test_exact_canonical_matches_the_table_and_the_sampled_path():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sum(len(rows) for rows in table.values()) == 266
    for name, rows in table.items():
        q = load_quiver(name)
        vectors = [parse_dimvector(v) for v in rows]
        for v, expected in zip(vectors, rows.values()):
            got = canonical_decomposition(q, v).summands
            assert [[format_dimvector(r), m] for r, m in got] == expected, (name, v)
        _compare_with_sampled(q, vectors)


def _s_box(q, center, arm):
    """Subspace-quiver vectors: centre 1 to `center`, arms non-decreasing up to `arm`.

    The arms of a subspace quiver are interchangeable, and with centre 0 a
    vector is a sum of simples.
    """
    arms = itertools.combinations_with_replacement(range(arm + 1), q.n - 1)
    return [(c, *rest) for rest in arms for c in range(1, center + 1)]


@pytest.mark.parametrize(
    "name,vectors",
    [
        ("K3", lambda q: _nonzero_box(2, 5)),
        ("S5", lambda q: _s_box(q, 5, 2)),
        ("S8", lambda q: _s_box(q, 3, 2)),
        ("EX39", lambda q: random.Random(39).sample(_nonzero_box(9, 2), 60)),
    ],
    ids=["K3", "S5", "S8", "EX39"],
)
def test_exact_canonical_matches_sampled_on_fixture_boxes(name, vectors):
    # S4 {0..2}^5 and K3 {0..4}^2 are the table's boxes
    q = load_quiver(name)
    _compare_with_sampled(q, vectors(q))


@pytest.mark.parametrize(
    "name,vertices,edges,top",
    [
        ("A3", "abc", [("a", "b"), ("b", "c")], 3),
        ("D4", "abcd", [("b", "a"), ("c", "a"), ("d", "a")], 2),
    ],
)
def test_exact_canonical_matches_sampled_on_every_orientation(name, vertices, edges, top):
    for q in _orientations(name, vertices, edges):
        _compare_with_sampled(q, _nonzero_box(q.n, top))


def test_exact_canonical_matches_sampled_on_random_acyclic_quivers():
    rng = random.Random(18)
    for _ in range(30):
        q = random_acyclic_quiver(rng, rng.randint(2, 5), 3)
        vectors = {tuple(rng.randint(0, 4) for _ in range(q.n)) for _ in range(6)}
        _compare_with_sampled(q, sorted(a for a in vectors if any(a)))


def test_an_isotropic_multiple_from_a_merge_splits_into_copies():
    # on a => b -> c the merge of (a, b) gives (1,1,0) x2, isotropic; kept as
    # one entry (2,2,0) it would end in (1,2,1) + (1,1,1), not the Schur root
    q = _quiver("W", "abc", [("a", "b"), ("a", "b"), ("b", "c")])
    assert canonical_decomposition(q, (2, 3, 2)).summands == (((2, 3, 2), 1),)
    _compare_with_sampled(q, [(2, 3, 2), (2, 2, 1), (2, 2, 2)])


def test_exact_canonical_on_large_random_vectors():
    # too large for the sampled path: the sum identity, roots only, and Kac's
    # bound on multiplicities (a summand of multiplicity > 1 has <r, r> >= 0)
    rng = random.Random(30)
    for _ in range(400):
        q = random_acyclic_quiver(rng, rng.randint(2, 7), 3)
        a = tuple(rng.randint(0, 30) for _ in range(q.n))
        if not any(a):
            continue
        total = [0] * q.n
        for r, m in canonical_decomposition(q, a).summands:
            assert classify_root(q, r).is_root(), (q.arrow_indices, a, r)
            assert m == 1 or euler_form(q, r, r) >= 0, (q.arrow_indices, a, r)
            total = [t + m * x for t, x in zip(total, r)]
        assert tuple(total) == a


# -- the exact recursion on oriented cycles ------------------------------
#
# Derksen-Weyman's merge needs an order with every arrow's target first, so
# an oriented cycle takes Kac's splitting with Schofield's generic ext.  Where
# the sampled path verified a decomposition it is a certificate, so it is the
# reference; on acyclic quivers the merge is.

C2_FILE = "quiver C2\nvertex a\nvertex b\narrow x a b\narrow y b a\n"
CYCLE_BOXES = [
    (CYCLES["C2"], 4),
    (CYCLES["C3"], 2),
    (_quiver("C2x2", "ab", [("a", "b"), ("a", "b"), ("b", "a")]), 3),
    (_quiver("C3+chord", "abc", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]), 2),
]


@pytest.mark.parametrize("q,top", CYCLE_BOXES, ids=[q.name for q, _ in CYCLE_BOXES])
def test_split_summands_match_the_sampled_reference_on_oriented_cycles(q, top):
    # the sampled path verifies every vector of these boxes at 2^31 - 1
    for a in _nonzero_box(q.n, top):
        expected = sampled_canonical_decomposition(q, a, CONFIG)
        assert decompose._split_summands(q, a) == expected, (q.arrow_indices, a)


def _assert_split_matches_merge(q, vectors):
    for a in vectors:
        expected = _merged_summands(q, *decompose._trivial_sequence(q, a))
        assert decompose._split_summands(q, a) == expected, (q.arrow_indices, a)


@pytest.mark.parametrize("name,top", [("K3", 4), ("S4", 1)])
def test_split_summands_match_the_merge_on_fixtures(name, top):
    q = load_quiver(name)
    _assert_split_matches_merge(q, _nonzero_box(q.n, top))


@pytest.mark.parametrize(
    "name,vertices,edges",
    [("A3", "abc", [("a", "b"), ("b", "c")]), ("D4", "abcd", [("b", "a"), ("c", "a"), ("d", "a")])],
)
def test_split_summands_match_the_merge_on_every_orientation(name, vertices, edges):
    for q in _orientations(name, vertices, edges):
        _assert_split_matches_merge(q, _nonzero_box(q.n, 2))


@pytest.mark.parametrize("prime", [2, 3, 5, 101, DEFAULT_PRIME])
def test_candecomp_on_c2_diagonal_at_every_prime(capsys, tmp_path, prime):
    # the sampled path split no draw of (5,5) at 2^31 - 1 and exited 2
    from quiverglue.cli import main

    path = tmp_path / "c2.quiver"
    path.write_text(C2_FILE, encoding="utf-8")
    header = ["samples: 5", f"prime: {prime}", "seed: 0"]
    for n in range(1, 21):
        assert main(["candecomp", "-q", str(path), f"({n},{n})", "--prime", str(prime)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "\n".join(header + [f"summand (1,1) x{n}"]) + "\n", n
        assert captured.err == ""


@pytest.mark.parametrize(
    "name,a,summands",
    [
        ("C2", (30, 17), (((1, 1), 17), ((1, 0), 13))),
        ("C3", (6, 4, 5), (((1, 1, 1), 4), ((1, 0, 1), 1), ((1, 0, 0), 1))),
    ],
)
def test_split_summands_beyond_the_sampled_box(name, a, summands):
    assert canonical_decomposition(CYCLES[name], a).summands == summands


def test_split_summands_past_the_node_budget_exits_2(monkeypatch, capsys, tmp_path):
    from quiverglue.cli import main

    path = tmp_path / "c2.quiver"
    path.write_text(C2_FILE, encoding="utf-8")
    argv = ["candecomp", "-q", str(path), "(4,3)"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("summand (1,1) x3\nsummand (1,0) x1\n")
    # (4,3) examines 31 subvectors
    monkeypatch.setattr(decompose, "MAX_SEARCH_NODES", 20)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted: over 20 subvectors\n"
    with pytest.raises(BoundExhaustedError):
        canonical_decomposition(CYCLES["C2"], (4, 3))


def _random_sink_first_simples(rng, q):
    """The simples with every arrow's target before its source: Kahn's algorithm
    with random tie-breaks."""
    into = [[] for _ in range(q.n)]  # into[t]: the source of each arrow into t
    pending = [0] * q.n  # arrows out of a vertex whose target is not placed yet
    for s, t in q.arrow_indices:
        into[t].append(s)
        pending[s] += 1
    ready = [v for v in range(q.n) if pending[v] == 0]
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for s in into[v]:
            pending[s] -= 1
            if pending[s] == 0:
                ready.append(s)
    assert len(order) == q.n
    return [q.unit_vector(q.vertices[v]) for v in order]


def test_merged_summands_do_not_depend_on_the_sink_first_order():
    # Derksen-Weyman: the merge gives the one canonical decomposition from any
    # order of the simples with every arrow's target before its source
    rng = random.Random(21)
    quivers = [load_quiver(name) for name in sorted(QUIVER_FILES)]
    quivers += [random_acyclic_quiver(rng, rng.randint(2, 6), 3) for _ in range(40)]
    orders_seen = 0
    for q in quivers:
        orders = {tuple(_random_sink_first_simples(rng, q)) for _ in range(6)}
        orders_seen += len(orders)
        for _ in range(8):
            a = tuple(rng.randint(0, 6) for _ in range(q.n))
            if not any(a):
                continue
            expected = canonical_decomposition(q, a).summands
            for order in orders:
                terms = [(s, a[s.index(1)]) for s in order if a[s.index(1)] > 0]
                got = _merged_summands(q, [s for s, _ in terms], [c for _, c in terms])
                assert got == expected, (q.arrow_indices, a, order)
    assert orders_seen > 2 * len(quivers)  # most quivers were tried in several orders


@pytest.mark.parametrize(
    "argv",
    [["candecomp", "-q", "S5", "(10,3,3,3,3,8)"], ["reproduce", "sub5-candecomp"]],
    ids=["candecomp", "reproduce"],
)
def test_exact_canonical_builds_no_end_algebra_and_eliminates_nothing(
    capsys, monkeypatch, tmp_path, argv
):
    from quiverglue import cli, gluing, linalg, poly, reps

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for modules, name in (
        ((reps,), "end_algebra"),
        ((reps,), "hom_space"),
        ((linalg, gluing), "echelon"),
        ((reps, decompose), "random_rep"),
        ((poly,), "factor_list"),
    ):
        wrapped = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    assert cli.main(argv) == 0
    assert calls == []
    # an oriented cycle takes the exact recursion, which draws no module either
    path = tmp_path / "c2.quiver"
    path.write_text("quiver C2\nvertex a\nvertex b\narrow x a b\narrow y b a\n", encoding="utf-8")
    assert cli.main(["candecomp", "-q", str(path), "(2,2)"]) == 0
    assert capsys.readouterr().out.endswith("summand (1,1) x2\n")
    assert calls == []
    # the wrappers are on the path of a sampled module's split
    x = reps.random_rep(CYCLES["C2"], (2, 2), DEFAULT_PRIME, 0)
    oracles.generic_summands(x)
    reps.end_algebra(x)
    assert set(calls) == {"end_algebra", "hom_space", "echelon", "random_rep", "factor_list"}
