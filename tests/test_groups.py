"""Group expressions, colored quotients, and the recursive assembly."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from comparability.errors import InputError, OracleBoundError
from comparability.graphs import Graph, disjoint_union, substitute
from comparability.groups import (
    AbstractGroup, ColoredGraph, DirectProduct, GroupExpr, Opaque,
    SemidirectZ22, Sym, Trivial, Wreath, aut_tree, color_preserving_aut,
    direct_product, expr_from_json, expr_to_json, materialize, realize,
    subtree_isomorphism_classes, sym, wreath,
)
from comparability.modular import build_modular_tree, trees_isomorphic
from comparability.oracles import brute_force_aut, graphs_up_to


def test_realize_examples():
    assert realize(Wreath(Sym(2), 3)) == 48
    assert realize(SemidirectZ22(Trivial(), Trivial(), Trivial(), Trivial())) == 4
    assert realize(DirectProduct((Sym(3), Sym(2)))) == 12
    assert realize(Trivial()) == 1
    assert realize(Sym(5)) == 120
    assert realize(Opaque(10)) == 10


def test_expr_validation():
    with pytest.raises(InputError):
        Sym(0)
    with pytest.raises(InputError):
        Wreath(Sym(2), 0)
    with pytest.raises(InputError):
        Opaque(0)
    with pytest.raises(InputError):
        DirectProduct((Sym(2),))


def test_normalizing_constructors():
    assert sym(1) == Trivial()
    assert sym(3) == Sym(3)
    assert wreath(Sym(3), 1) == Sym(3)
    assert wreath(Trivial(), 4) == Sym(4)
    assert direct_product([]) == Trivial()
    assert direct_product([Trivial(), Sym(2)]) == Sym(2)
    # flattening and sorting by (order, text)
    e = direct_product([Sym(3), direct_product([Sym(2), Sym(2)]), Trivial()])
    assert e == DirectProduct((Sym(2), Sym(2), Sym(3)))


def test_string_forms():
    assert str(Trivial()) == "1"
    assert str(Sym(3)) == "S3"
    assert str(Wreath(Sym(3), 2)) == "(S3 wr S2)"
    assert str(DirectProduct((Wreath(Sym(3), 2), Sym(2)))) == "(S3 wr S2) x S2"
    assert str(SemidirectZ22(Sym(2), Trivial(), Trivial(), Sym(3))) == \
        "Z2^2-semidirect[G1=S2; G2=1; G3=1; fixed=S3]"
    assert str(Opaque(10)) == "Opaque(10)"


def test_json_roundtrip():
    exprs = [
        Trivial(),
        Sym(4),
        Opaque(7),
        Wreath(DirectProduct((Sym(2), Sym(3))), 2),
        SemidirectZ22(Sym(2), Trivial(), Sym(3), Trivial()),
    ]
    for e in exprs:
        assert expr_from_json(expr_to_json(e)) == e
    with pytest.raises(InputError):
        expr_from_json('{"kind": "nope"}')
    with pytest.raises(InputError):
        expr_from_json("not json")


def check_group_axioms(m: AbstractGroup, sample_size: int = 10):
    els = m.elements
    eset = set(els)
    assert len(eset) == len(els)
    rng = random.Random(7)
    sample = els if len(els) <= sample_size else rng.sample(els, sample_size)
    for a in sample:
        assert m.mul(a, m.identity) == a
        assert m.mul(m.identity, a) == a
        assert any(m.mul(a, b) == m.identity for b in els)   # inverse exists
        for b in sample:
            assert m.mul(a, b) in eset
            for c in sample[:3]:
                assert m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c))


def test_materialize_orders_and_axioms():
    cases = [Trivial(), Sym(3), DirectProduct((Sym(2), Sym(3))),
             Wreath(Sym(2), 3), Wreath(Sym(2), 2),
             SemidirectZ22(Sym(2), Sym(2), Trivial(), Trivial()),
             SemidirectZ22(Trivial(), Trivial(), Trivial(), Sym(3))]
    for e in cases:
        m = materialize(e)
        assert m.order() == realize(e), str(e)
        check_group_axioms(m)


def test_materialize_refuses_opaque_and_huge():
    with pytest.raises(InputError):
        materialize(Opaque(6))
    with pytest.raises(OracleBoundError):
        materialize(Sym(10), max_size=100)


def _conjugate(m: AbstractGroup, outer, inner):
    inv = next(x for x in m.elements if m.mul(outer, x) == m.identity)
    return m.mul(m.mul(outer, inner), inv)


def test_semidirect_rectangle_action():
    # conjugating a pure normal element by a pure Z2^2 element must apply
    # the rectangle twist: h swaps G1 slots (1 2)(3 4) and the G2 pair,
    # v swaps G1 slots (1 3)(2 4) and the G3 pair
    e = SemidirectZ22(Sym(2), Sym(2), Sym(2), Sym(2))
    m = materialize(e)
    idn = m.identity[0]
    hbar = (idn, (1, 0))
    vbar = (idn, (0, 1))
    normals = [x[0] for x in m.elements if x[1] == (0, 0)]
    rng = random.Random(3)
    for n in rng.sample(normals, 40):
        a, b, c, d = n
        got_h = _conjugate(m, hbar, (n, (0, 0)))
        assert got_h == (((a[1], a[0], a[3], a[2]), (b[1], b[0]), c, d), (0, 0))
        got_v = _conjugate(m, vbar, (n, (0, 0)))
        assert got_v == (((a[2], a[3], a[0], a[1]), b, (c[1], c[0]), d), (0, 0))


def test_semidirect_composition_law():
    e = SemidirectZ22(Sym(2), Trivial(), Trivial(), Trivial())
    m = materialize(e)
    # the defining law: (n1,h1)(n2,h2) = (n1 * phi(h1)(n2), h1+h2), with
    # phi realized by conjugation; spot-check via associativity of mixed
    # products and the split structure
    for n, h in m.elements:
        # every element factors as (n, 0) * (id, h)
        assert m.mul((n, (0, 0)), (m.identity[0], h)) == (n, h)
    check_group_axioms(m, sample_size=16)


def test_colored_graph_validation():
    with pytest.raises(InputError):
        ColoredGraph(Graph.path(3), (0, 1))


def test_color_preserving_aut_examples():
    k2 = Graph.complete(2)
    assert color_preserving_aut(ColoredGraph(k2, (0, 1))).order() == 1
    assert color_preserving_aut(ColoredGraph(k2, (0, 0))).order() == 2
    c4 = Graph.cycle(4)
    assert brute_force_aut(c4).order() == 8
    assert color_preserving_aut(ColoredGraph(c4, (0, 1, 0, 1))).order() == 4


def test_subtree_classes_examples():
    t = build_modular_tree(disjoint_union([Graph.complete(2)] * 2))
    r = subtree_isomorphism_classes(t)
    assert r.colors == (0, 0) and r.graph == Graph.empty(2)

    t = build_modular_tree(disjoint_union([Graph(1), Graph.complete(2)]))
    assert subtree_isomorphism_classes(t).colors == (0, 1)

    t = build_modular_tree(Graph.path(3))
    r = subtree_isomorphism_classes(t)
    assert len(set(r.colors)) == 2 and r.graph == Graph.complete(2)

    # a prime root is a single leaf: everything gets color zero
    t = build_modular_tree(Graph.path(4))
    assert subtree_isomorphism_classes(t).colors == (0, 0, 0, 0)


def _substitution_graph(rng, n):
    """Nested substitutions of complete, edgeless and path graphs into a
    small base, relabeled at random: mixed trees with repeated siblings."""
    g = rng.choice((Graph.empty(3), Graph.complete(3), Graph.path(4),
                    Graph.path(5)))
    while g.n < n:
        k = rng.randint(2, min(4, n + 1 - g.n))
        part = rng.choice((Graph.complete(k), Graph.empty(k), Graph.path(k)))
        g, _ = substitute(g, {rng.randrange(g.n): part})
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_subtree_classes_match_tree_isomorphism():
    rng = random.Random(12)
    substituted = [_substitution_graph(rng, rng.randint(4, 12))
                   for _ in range(20)]
    for g in graphs_up_to(6) + tuple(substituted):
        t = build_modular_tree(g)
        root = t.nodes[t.root]
        if root.is_leaf:
            continue
        r = subtree_isomorphism_classes(t)
        subtrees = [build_modular_tree(g.induced(t.nodes[c].vertices_under))
                    for c in root.children]
        for i, j in itertools.combinations(range(len(subtrees)), 2):
            same = trees_isomorphic(subtrees[i], subtrees[j])
            assert same == (r.colors[i] == r.colors[j]), g.edges


def test_aut_tree_named_examples():
    cases = [
        (Graph.complete(3), "S3", 6),
        (disjoint_union([Graph.complete(2)] * 2), "(S2 wr S2)", 8),
        (Graph.path(4), "S2", 2),
        (Graph.complete_bipartite(2, 3), "S2 x S3", 12),
        (Graph.cycle(4), "(S2 wr S2)", 8),
    ]
    for g, text, order in cases:
        expr, group = aut_tree(build_modular_tree(g))
        assert str(expr) == text
        assert group.order() == order == realize(expr)


def test_aut_tree_matches_brute_force_n_le_6():
    for g in graphs_up_to(6):
        expr, group = aut_tree(build_modular_tree(g))
        oracle = brute_force_aut(g)
        assert group.element_maps() == oracle.element_maps(), g.edges
        assert realize(expr) == group.order(), (g.edges, str(expr))


def test_aut_tree_large_degenerate_nodes():
    # a complete leaf of 12 and an independent node over 12 equal
    # children: codes come from child codes, not from 12! arrangements
    cases = [(Graph.complete(12), "S12", math.factorial(12)),
             (disjoint_union([Graph.complete(2)] * 12), "(S2 wr S12)",
              2 ** 12 * math.factorial(12))]
    for g, text, order in cases:
        expr, group = aut_tree(build_modular_tree(g))
        assert str(expr) == text and realize(expr) == order
        assert group.orbits() == (tuple(range(g.n)),)
        for p in group.generators:
            assert all(g.has_edge(p(u), p(v)) for u, v in g.edges)


KLEIN_BASE = Graph(7, [(0, 3), (0, 5), (1, 4), (1, 5), (2, 5), (2, 6),
                       (3, 6), (4, 6)])


def test_klein_base_has_rectangle_symmetry():
    aut = brute_force_aut(KLEIN_BASE)
    assert aut.order() == 4 and aut.exponent_divides_two()
    assert sorted(len(o) for o in aut.orbits()) == [1, 2, 4]


def test_semidirect_assembly_fixed_vertex():
    g, _ = substitute(KLEIN_BASE, {2: Graph.complete(2)})
    expr, group = aut_tree(build_modular_tree(g))
    assert str(expr) == "Z2^2-semidirect[G1=1; G2=1; G3=1; fixed=S2]"
    oracle = brute_force_aut(g)
    assert group.element_maps() == oracle.element_maps()
    assert realize(expr) == group.order() == 8


def test_semidirect_assembly_two_orbit():
    g, _ = substitute(KLEIN_BASE, {5: Graph.complete(2), 6: Graph.complete(2),
                                   2: Graph.complete(3)})
    expr, group = aut_tree(build_modular_tree(g), max_n=11)
    assert str(expr) == "Z2^2-semidirect[G1=1; G2=S2; G3=1; fixed=S3]"
    oracle = brute_force_aut(g, max_n=11)
    assert group.element_maps() == oracle.element_maps()
    assert realize(expr) == group.order() == 96


def test_aut_tree_bound_applies_to_prime_nodes():
    # an 11-vertex graph whose prime nodes stay small is fine at the
    # default bound; an 11-vertex prime leaf is not
    g, _ = substitute(KLEIN_BASE, {5: Graph.complete(2), 6: Graph.complete(2),
                                   2: Graph.complete(3)})
    expr, _ = aut_tree(build_modular_tree(g))
    assert realize(expr) == 96
    with pytest.raises(OracleBoundError):
        aut_tree(build_modular_tree(Graph.path(11)))
    expr, group = aut_tree(build_modular_tree(Graph.path(11)), max_n=11)
    assert str(expr) == "S2" and group.order() == 2


def test_colors_are_deterministic():
    g = disjoint_union([Graph.path(3), Graph.path(3), Graph.complete(3)])
    t = build_modular_tree(g)
    assert subtree_isomorphism_classes(t).colors == \
        subtree_isomorphism_classes(t).colors
    expr1, _ = aut_tree(t)
    expr2, _ = aut_tree(build_modular_tree(g))
    assert expr1 == expr2
