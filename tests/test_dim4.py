"""Dimension-4 gadget: construction, chains, recovery, reduction."""

from __future__ import annotations

import random

import pytest

from comparability import dim4, oracles
from comparability.dim4 import (
    ChainCheckReport, ChainSet, GadgetGraph, aut_preservation_check,
    chain_check_report, chains_to_text, construct_cx, four_chains,
    gadget_to_dot, gi_reduction, incidence_graph, recover_pqr,
    verify_chain_intersection,
)
from comparability.errors import DomainError, InputError
from comparability.graphs import Graph, is_cycle_graph
from comparability.oracles import (
    are_isomorphic, brute_force_aut, nonisomorphic_graphs,
)
from comparability.orientations import Orientation, is_transitive

K3 = Graph.complete(3)
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
K23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def connected_graphs(n_max, bipartite=False, skip_cycles=False):
    for n in range(1, n_max + 1):
        for g in nonisomorphic_graphs(n):
            if not g.is_connected():
                continue
            if bipartite and g.bipartition() is None:
                continue
            if skip_cycles and is_cycle_graph(g):
                continue
            yield g


def subdivide8(g):
    n = g.n
    edges = []
    for u, v in g.edges:
        chain = [u] + list(range(n, n + 7)) + [v]
        n += 7
        edges.extend(zip(chain, chain[1:]))
    return Graph(n, edges)


def test_gadget_graph_validation():
    cx = construct_cx(Graph.complete(2))
    GadgetGraph(cx.graph, cx.p_vertices, cx.q_vertices, cx.r_vertices,
                cx.incidence)
    with pytest.raises(InputError):
        GadgetGraph(cx.graph, (0, 1, 2), cx.q_vertices, cx.r_vertices,
                    cx.incidence)                          # classes overlap
    with pytest.raises(InputError):
        GadgetGraph(cx.graph, cx.p_vertices, cx.q_vertices, cx.r_vertices,
                    ((3, 0, 0), (4, 0, 0)))                # same p twice
    with pytest.raises(InputError):
        GadgetGraph(Graph(5, [(0, 1)]), cx.p_vertices, cx.q_vertices,
                    cx.r_vertices, cx.incidence)           # wrong edges


def test_incidence_examples():
    assert are_isomorphic(incidence_graph(Graph.complete(2)), Graph.path(3))
    assert are_isomorphic(incidence_graph(K3), Graph.cycle(6))
    y = incidence_graph(K23)
    assert (y.n, y.num_edges) == (11, 12)
    assert y.is_connected() and y.bipartition() is not None


def test_incidence_rejects_disconnected():
    with pytest.raises(InputError):
        incidence_graph(Graph(4, [(0, 1), (2, 3)]))


def test_incidence_preserves_aut_order():
    for g in connected_graphs(6, skip_cycles=True):
        y = incidence_graph(g)
        assert brute_force_aut(y, max_n=y.n).order() == \
            brute_force_aut(g).order()


def test_construct_examples():
    cx = construct_cx(Graph.complete(2))
    assert (cx.graph.n, cx.graph.num_edges) == (5, 4)
    assert are_isomorphic(cx.graph, Graph.path(5))
    assert construct_cx(K23).graph.n == 23
    c4 = construct_cx(Graph.cycle(4))
    assert c4.graph.n == 16
    assert all(c4.graph.degree(p) == 2 for p in c4.p_vertices)


def test_construct_degree_spectrum():
    for n in range(1, 8):
        for g in nonisomorphic_graphs(n):
            cx = construct_cx(g)
            assert all(cx.graph.degree(v) == 2 for v in cx.q_vertices)
            assert all(cx.graph.degree(v) == 2 for v in cx.r_vertices)
            assert [cx.graph.degree(cx.p_vertices[i]) for i in range(n)] == \
                list(g.degrees())


def test_gadget_accessors():
    cx = construct_cx(K23)
    assert cx.n == 5 and cx.m == 6
    assert cx.original_graph() == K23
    assert cx.x_edge(0) == (0, 2)
    q = cx.q_vertex(0, 0)
    assert cx.graph.has_edge(0, q) and cx.graph.has_edge(q, cx.r_vertices[0])
    with pytest.raises(InputError):
        cx.q_vertex(1, 0)                                  # x_1 not on e_0


def test_chain_set_validation():
    with pytest.raises(InputError):
        ChainSet(((0, 1), (0, 1), (1, 0)))                 # only three
    with pytest.raises(InputError):
        ChainSet(((0, 1), (0, 1), (0, 1), (0, 2)))         # different sets
    with pytest.raises(InputError):
        ChainSet(((1, 2), (1, 2), (1, 2), (1, 2)))         # not 0-based


def test_four_chains_k2_frozen():
    cx = construct_cx(Graph.complete(2))
    cs = four_chains(cx, ((0,), (1,)))
    assert cs.chains == ((0, 2, 3, 1, 4), (0, 2, 3, 1, 4),
                         (1, 2, 4, 0, 3), (1, 2, 4, 0, 3))
    assert cs.comparable_pairs() == frozenset(cx.graph.edges)
    assert verify_chain_intersection(cs, cx)


@pytest.mark.parametrize("x", [Graph.path(3), K23])
def test_four_chains_default_bipartition(x):
    cx = construct_cx(x)
    cs = four_chains(cx)
    assert len(cs.chains[0]) == x.n + 3 * x.num_edges
    assert verify_chain_intersection(cs, cx)


def test_four_chains_bad_bipartition():
    cx = construct_cx(Graph.path(3))
    with pytest.raises(InputError):
        four_chains(cx, ((0,), (2,)))                      # misses vertex 1
    with pytest.raises(InputError):
        four_chains(cx, ((0, 1), (2,)))                    # edge inside A


def test_four_chains_requires_bipartite():
    with pytest.raises(InputError):
        four_chains(construct_cx(K3))


def test_lemma_sweep():
    for g in connected_graphs(7, bipartite=True):
        cx = construct_cx(g)
        assert verify_chain_intersection(four_chains(cx), cx), g


def test_each_chain_extends_a_transitive_orientation():
    for g in connected_graphs(6, bipartite=True):
        cx = construct_cx(g)
        for c in four_chains(cx).chains:
            pos = {v: i for i, v in enumerate(c)}
            out = [0] * cx.graph.n
            for u, v in cx.graph.edges:
                a, b = (u, v) if pos[u] < pos[v] else (v, u)
                out[a] |= 1 << b
            assert is_transitive(cx.graph, Orientation(cx.graph, tuple(out)))


def test_perturbed_chains_fail_with_categorized_report():
    cx = construct_cx(Graph.path(3))
    cs = four_chains(cx)
    bad = ChainSet((tuple(reversed(cs.chains[0])),) + cs.chains[1:])
    report = chain_check_report(bad, cx)
    assert isinstance(report, ChainCheckReport)
    assert not report.ok and report.missing
    assert {t[0] for t in report.missing + report.extra} <= {"QR", "P", "P-QR"}
    assert not verify_chain_intersection(bad, cx)


def test_chain_report_rejects_coverage_mismatch():
    cs = four_chains(construct_cx(Graph.complete(2)))
    with pytest.raises(InputError):
        chain_check_report(cs, construct_cx(Graph.path(3)))


def test_recover_examples():
    p, q, r = recover_pqr(construct_cx(K13).graph)
    assert (len(p), len(q), len(r)) == (4, 6, 3)
    with pytest.raises(DomainError):
        recover_pqr(construct_cx(Graph.cycle(4)).graph)    # all degrees 2
    with pytest.raises(DomainError):
        recover_pqr(Graph(4, [(0, 1), (2, 3)]))            # disconnected
    with pytest.raises(DomainError):
        recover_pqr(K13)                                   # not a gadget


def test_recover_roundtrip_sweep():
    for g in connected_graphs(6, skip_cycles=True):
        n, m = g.n, g.num_edges
        p, q, r = recover_pqr(construct_cx(g).graph)
        # the canonical layout recovers its own classes exactly
        assert p == tuple(range(n))
        assert r == tuple(range(n, n + m))
        assert q == tuple(range(n + m, n + 3 * m))


def test_recover_relabeled_gadget():
    cx = construct_cx(K13)
    n = cx.graph.n
    shuffled = cx.graph.relabel([(7 * v + 3) % n for v in range(n)])
    p, q, r = recover_pqr(shuffled)
    assert (len(p), len(q), len(r)) == (4, 6, 3)
    assert all(shuffled.degree(v) == 2 for v in q + r)


def test_recover_large_gadget_without_oracles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("recover_pqr called an isomorphism oracle")

    for module in (dim4, oracles):
        for name in ("are_isomorphic", "brute_force_iso", "brute_force_aut",
                     "_search_maps"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = random.Random(60)
    sides = 25
    edges = {(i, sides + rng.randrange(35)) for i in range(sides)}
    edges |= {(rng.randrange(sides), j) for j in range(sides, 60)}
    edges |= {(rng.randrange(sides), rng.randrange(sides, 60))
              for _ in range(20)}
    x = Graph(60, edges)
    assert x.is_connected() and x.is_bipartite()
    cx = construct_cx(x)
    n = cx.graph.n
    perm = list(range(n))
    rng.shuffle(perm)
    p, q, r = recover_pqr(cx.graph.relabel(perm))
    assert p == tuple(sorted(perm[v] for v in cx.p_vertices))
    assert q == tuple(sorted(perm[v] for v in cx.q_vertices))
    assert r == tuple(sorted(perm[v] for v in cx.r_vertices))


def test_aut_preservation_examples():
    assert aut_preservation_check(K13)
    assert aut_preservation_check(Graph.path(4))
    assert aut_preservation_check(K3)
    with pytest.raises(InputError):
        aut_preservation_check(Graph(4, [(0, 1), (2, 3)]))


def test_aut_preservation_sweep():
    for g in connected_graphs(5, skip_cycles=True):
        assert aut_preservation_check(g)


def test_cycle_gadget_aut_orders_recorded():
    # for cycle inputs the gadget is a longer cycle, so its group is the
    # larger dihedral group, not a copy of the input's; the class-
    # preserving subgroup still restricts onto the input's group
    cases = [(K3, 12, 24), (Graph.cycle(4), 16, 32)]
    for x, size, order in cases:
        cg = construct_cx(x).graph
        assert cg.n == size
        assert brute_force_aut(cg, max_n=size).order() == order
    cy = construct_cx(incidence_graph(K3)).graph
    assert (cy.n, brute_force_aut(cy, max_n=cy.n).order()) == (24, 48)


def test_gi_reduction_examples():
    g1, g2 = gi_reduction(K13, K13.relabel([2, 0, 3, 1]))
    assert g1.n == 25 and are_isomorphic(g1, g2, max_n=25)
    g1, g2 = gi_reduction(K13, Graph.path(4))
    assert not are_isomorphic(g1, g2, max_n=25)
    g1, g2 = gi_reduction(K3, K3)
    assert g1.n == 24 and are_isomorphic(g1, g2, max_n=24)
    with pytest.raises(InputError):
        gi_reduction(K13, Graph(3, []))


def test_reduction_subdivides_each_edge_into_8_path():
    for x in [K13, Graph.path(4), Graph.complete(4)]:
        out, _ = gi_reduction(x, x)
        assert out.n == x.n + 7 * x.num_edges
        assert are_isomorphic(out, subdivide8(x), max_n=out.n)


def test_reduction_outputs_have_verified_chains():
    # non-bipartite inputs are fine: the incidence graph is bipartite
    for x in [K13, Graph.complete(4)]:
        cy = construct_cx(incidence_graph(x))
        assert verify_chain_intersection(four_chains(cy), cy)


def test_pipeline_preserves_aut_order():
    for g in connected_graphs(4, skip_cycles=True):
        cy = construct_cx(incidence_graph(g)).graph
        assert brute_force_aut(cy, max_n=cy.n).order() == \
            brute_force_aut(g).order()


def test_chains_to_text():
    cs = four_chains(construct_cx(Graph.complete(2)), ((0,), (1,)))
    assert chains_to_text(cs) == \
        "0 2 3 1 4\n0 2 3 1 4\n1 2 4 0 3\n1 2 4 0 3\n"


def test_gadget_to_dot():
    dot = gadget_to_dot(construct_cx(Graph.complete(2)))
    assert dot.count("fillcolor=lightblue") == 2            # two p vertices
    assert dot.count("fillcolor=lightgray") == 2
    assert dot.count("fillcolor=lightpink") == 1
    assert dot.count(" -- ") == 4
