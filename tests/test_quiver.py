import pytest

from oracles import k2_root_table
from quiverglue.fixtures import load_quiver
from quiverglue.quiver import (
    ParseError,
    QuiverError,
    classify_root,
    euler_form,
    format_dimvector,
    format_quiver,
    opposite,
    parse_dimvector,
    parse_quiver,
    reflect,
    symmetrized_form,
)


def test_fixture_quivers_shape():
    k3 = load_quiver("K3")
    assert k3.n == 2 and len(k3.arrows) == 3
    s5 = load_quiver("S5")
    assert s5.n == 6 and len(s5.arrows) == 5
    assert all(a.target == "q0" for a in s5.arrows)
    ex = load_quiver("EX39")
    assert ex.n == 9 and len(ex.arrows) == 9


def test_vertex_index_and_arrow_indices():
    s4 = load_quiver("S4")
    assert [s4.index(v) for v in s4.vertices] == list(range(s4.n))
    assert s4.arrow_indices == ((1, 0), (2, 0), (3, 0), (4, 0))
    for bad in ("q9", "", ["q0"]):
        with pytest.raises(QuiverError):
            s4.index(bad)
    assert s4 == load_quiver("S4") and hash(s4) == hash(load_quiver("S4"))


def test_parse_format_roundtrip():
    for name in ("K2", "K3", "S4", "S5", "S8", "EX39"):
        q = load_quiver(name)
        assert parse_quiver(format_quiver(q)) == q


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_quiver("quiver Q\narrow a x y\n")
    with pytest.raises(ParseError):
        parse_dimvector("(1,2")


def test_dimvector_roundtrip():
    assert parse_dimvector("(3,2,2,1,1)") == (3, 2, 2, 1, 1)
    assert format_dimvector((3, 2, 2, 1, 1)) == "(3,2,2,1,1)"


def test_euler_form_values():
    k3 = load_quiver("K3")
    assert euler_form(k3, (2, 3), (2, 3)) == -5
    k2 = load_quiver("K2")
    assert euler_form(k2, (1, 1), (1, 1)) == 0
    assert euler_form(k2, (1, 0), (0, 1)) == -2
    s4 = load_quiver("S4")
    assert euler_form(s4, (1, 0, 1, 0, 0), (1, 0, 1, 0, 0)) == 1


def test_symmetrized_and_opposite():
    k2 = load_quiver("K2")
    a, b = (2, 1), (1, 3)
    assert symmetrized_form(k2, a, b) == euler_form(k2, a, b) + euler_form(k2, b, a)
    op = opposite(k2)
    assert euler_form(op, a, b) == euler_form(k2, b, a)


def test_reflect_involution():
    s4 = load_quiver("S4")
    a = (3, 2, 2, 1, 1)
    for v in s4.vertices:
        assert reflect(s4, v, reflect(s4, v, a)) == a


def test_classify_root_real_imaginary():
    k2 = load_quiver("K2")
    assert classify_root(k2, (1, 2)).tag == "real"
    assert classify_root(k2, (2, 2)).tag == "imaginary"
    assert classify_root(k2, (1, 3)).tag == "not_root"
    s5 = load_quiver("S5")
    assert classify_root(s5, (10, 3, 3, 3, 3, 8)).tag == "imaginary"
    s4 = load_quiver("S4")
    assert classify_root(s4, (3, 2, 2, 1, 1)).tag == "real"
    assert classify_root(s4, (1, 0, 1, 0, 0)).tag == "real"


def test_classify_root_word_reaches_terminal():
    k2 = load_quiver("K2")
    cls = classify_root(k2, (3, 4))
    current = (3, 4)
    for v in cls.word:
        current = reflect(k2, v, current)
    assert current == cls.terminal


def test_classify_root_rejects_bad_input():
    k2 = load_quiver("K2")
    with pytest.raises(QuiverError):
        classify_root(k2, (0, 0))
    with pytest.raises(QuiverError):
        classify_root(k2, (1, -1))


def test_k2_root_table():
    k2 = load_quiver("K2")
    expected = k2_root_table(4)
    for x in range(5):
        for y in range(5):
            if x == 0 and y == 0:
                continue
            assert classify_root(k2, (x, y)).is_root() == ((x, y) in expected)


@pytest.mark.parametrize("name,top", [("K2", 6), ("EX39", 1)])
def test_classify_root_matches_reflection_reference(name, top):
    import itertools

    from oracles import classify_root_by_reflection

    q = load_quiver(name)
    for a in itertools.product(range(top + 1), repeat=q.n):
        if any(a):
            assert classify_root(q, a) == classify_root_by_reflection(q, a), a
