from fractions import Fraction

import pytest

from quiverglue.fixtures import load_quiver, load_rep
from quiverglue.linalg import Matrix, QQ
from quiverglue.reps import Representation, indecomposable
from quiverglue.treemod import (
    CoverFragment,
    TreeError,
    arrow_count,
    coefficient_quiver,
    format_dot,
    format_fragment,
    fragment_from_coefficient_quiver,
    is_tree_basis,
    parse_fragment,
    push_down,
)


def test_coefficient_quiver_of_m_is_the_printed_tree():
    m = load_rep("M")
    gamma = coefficient_quiver(m)
    assert gamma.vertices == (("q", 1), ("q", 2), ("qp", 1), ("qp", 2), ("qp", 3))
    arrows = [(rho, src, dst) for rho, src, dst, _ in gamma.arrows]
    assert arrows == [
        ("a", ("q", 2), ("qp", 3)),
        ("b", ("q", 1), ("qp", 1)),
        ("b", ("q", 2), ("qp", 2)),
        ("c", ("q", 1), ("qp", 2)),
    ]
    assert gamma.is_tree()
    assert is_tree_basis(m)


def test_x1_not_tree_in_standard_basis():
    x1 = load_rep("X1")
    assert arrow_count(x1) == 5
    assert not is_tree_basis(x1)
    x0 = load_rep("X0")
    assert arrow_count(x0) == 3
    assert is_tree_basis(x0)


def test_basis_change_affects_arrow_count():
    x1 = load_rep("X1")
    # a shear at the source vertex changes the coefficient quiver
    basis = {"q": Matrix.from_rows([[1, 1], [0, 1]], QQ)}
    gamma = coefficient_quiver(x1, basis)
    assert gamma.arrow_count == 6


def test_basis_validation():
    x = load_rep("X0")
    with pytest.raises(TreeError):
        coefficient_quiver(x, {"q": Matrix.zeros(2, 2, QQ)})
    with pytest.raises(TreeError):
        coefficient_quiver(x, {"q": Matrix.identity(3, QQ)})


def test_format_dot():
    m = load_rep("M")
    dot = format_dot(coefficient_quiver(m))
    assert dot.startswith("digraph")
    assert "q_2 -> qp_3" in dot


def test_fragment_roundtrip_and_pushdown():
    m = load_rep("M")
    frag = fragment_from_coefficient_quiver(m)
    assert frag.is_tree_shaped()
    text = format_fragment(frag)
    parsed = parse_fragment(text, m.quiver)
    assert parsed == frag
    rebuilt = push_down(frag)
    assert rebuilt.dims == m.dims
    assert all(
        rebuilt.map_for(a.name) == m.map_for(a.name) for a in m.quiver.arrows
    )


def test_fragment_rep_indecomposable_matches():
    m = load_rep("M")
    frag = fragment_from_coefficient_quiver(m)
    assert indecomposable(frag.fragment_rep()).tag == "indecomposable"
    assert indecomposable(push_down(frag)).tag == "indecomposable"


def test_fragment_label_consistency_enforced():
    ma = load_rep("Malpha")
    frag = fragment_from_coefficient_quiver(ma)
    # relabeling an r1-arrow as r2 contradicts its endpoint labels on S4
    text = format_fragment(frag).replace("label r1", "label r2", 1)
    with pytest.raises(Exception):
        parse_fragment(text, ma.quiver)


def test_pushdown_two_fragment_vertices_same_base():
    q = load_quiver("K2")
    text = "\n".join(
        [
            "fragment F over Q",
            "vertex u label q 1",
            "vertex v label q 2",
            "vertex w label qp 1",
            "arrow e1 u w label a",
            "arrow e2 v w label b",
            "dim u 1",
            "dim v 1",
            "dim w 1",
            "map e1 1x1",
            "1",
            "map e2 1x1",
            "1",
        ]
    )
    frag = parse_fragment(text, q)
    x = push_down(frag)
    assert x.dims == (2, 1)
    assert x.map_for("a").row_lists() == [[Fraction(1), Fraction(0)]]
    assert x.map_for("b").row_lists() == [[Fraction(0), Fraction(1)]]


def test_format_fragment_writes_no_rows_for_an_empty_map():
    # a 2x0 map was written as its directive and two blank lines
    q = load_quiver("K2")
    frag = CoverFragment(
        "F", q, ("u", "v"), {"u": ("q", "1"), "v": ("qp", "1")}, (("a1", "u", "v", "a"),),
        {"u": 0, "v": 2}, {"a1": Matrix.zeros(2, 0, QQ)},
    )
    text = format_fragment(frag)
    assert text.endswith("dim u 0\ndim v 2\nmap a1 2x0\n")
    assert parse_fragment(text, q) == frag
