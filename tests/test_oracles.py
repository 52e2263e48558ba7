"""Exhaustive-search oracles, cross-checked against raw itertools sweeps
that do no pruning at all."""

from __future__ import annotations

import gc
import weakref
from itertools import permutations
from math import factorial

import pytest

from comparability.errors import InputError, OracleBoundError
from comparability.graphs import Graph, disjoint_union, substitute
from comparability.modular import tree_of
from comparability.oracles import (
    are_isomorphic, brute_force_aut, brute_force_iso, canonical_key,
    graphs_up_to, nonisomorphic_graphs, pairwise_maximal_modules,
    poset_automorphisms, refine_colors,
)


def naive_aut_maps(g: Graph) -> set[tuple[int, ...]]:
    """Definition-level automorphism sweep with zero pruning."""
    edge_set = set(g.edges)
    out = set()
    for p in permutations(range(g.n)):
        image = {tuple(sorted((p[u], p[v]))) for u, v in edge_set}
        if image == edge_set:
            out.add(p)
    return out


# expected orders computed by the naive sweep above, then frozen
@pytest.mark.parametrize("name,order", [
    ("P4", 2), ("K3", 6), ("K23", 12), ("C5", 10), ("C6", 12),
    ("2K2", 8), ("bull", 2), ("K1", 1),
])
def test_aut_orders_frozen(named_graphs, name, order):
    g = named_graphs[name]
    assert brute_force_aut(g).order() == order
    assert len(naive_aut_maps(g)) == order


def test_aut_equals_naive_sweep_n_le_5():
    for g in graphs_up_to(5):
        assert brute_force_aut(g).element_maps() == naive_aut_maps(g)


def test_aut_elements_are_automorphisms():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    for p in brute_force_aut(g).elements():
        assert {tuple(sorted((p(u), p(v)))) for u, v in g.edges} == set(g.edges)


def test_aut_bound_refusal_names_bound():
    with pytest.raises(OracleBoundError, match="max_n=10"):
        brute_force_aut(Graph.path(11))
    assert brute_force_aut(Graph.path(11), max_n=11).order() == 2


def test_iso_witness_and_negative():
    g1 = Graph.path(4)
    g2 = g1.relabel([2, 0, 3, 1])
    w = brute_force_iso(g1, g2)
    assert w is not None
    assert {tuple(sorted((w(u), w(v)))) for u, v in g1.edges} == set(g2.edges)
    assert brute_force_iso(Graph.path(4), Graph.cycle(4)) is None


def test_iso_different_sizes():
    assert brute_force_iso(Graph.path(3), Graph.path(4)) is None


def test_canonical_key_separates_n_le_5():
    gs = graphs_up_to(5)
    keys = [canonical_key(g) for g in gs]
    assert len(set(keys)) == len(gs)
    for g in gs:
        q = g.relabel(list(reversed(range(g.n))))
        assert canonical_key(q) == canonical_key(g)


def test_canonical_key_respects_colors():
    c4 = Graph.cycle(4)
    # rotating a C4 coloring by two positions is a color-isomorphism
    assert canonical_key(c4, (0, 1, 0, 1)) == canonical_key(
        c4.relabel([2, 3, 0, 1]), (0, 1, 0, 1))
    assert canonical_key(c4, (0, 0, 1, 1)) != canonical_key(c4, (0, 1, 0, 1))


def test_refine_colors_invariant_under_relabeling():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)])
    relab = g.relabel([3, 1, 4, 0, 5, 2])
    assert sorted(refine_colors(g)) == sorted(refine_colors(relab))


def test_catalog_counts_match_known_sequence():
    # numbers of graphs up to isomorphism
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        assert len(nonisomorphic_graphs(n)) == count


def test_catalog_has_no_duplicates_n_le_6():
    for n in range(1, 7):
        keys = [canonical_key(g) for g in nonisomorphic_graphs(n)]
        assert len(set(keys)) == len(keys)


def test_catalog_labeled_count_identity():
    # sum over classes of n!/|Aut| equals the number of labeled graphs;
    # validates the catalog and the automorphism oracle simultaneously
    for n in range(1, 7):
        total = sum(factorial(n) // brute_force_aut(g).order()
                    for g in nonisomorphic_graphs(n))
        assert total == 2 ** (n * (n - 1) // 2)


def test_poset_automorphisms_chain_and_antichain():
    chain = frozenset({(0, 1), (0, 2), (1, 2)})
    assert len(poset_automorphisms(3, chain)) == 1
    assert len(poset_automorphisms(3, frozenset())) == 6


def test_poset_automorphisms_preserve_arcs_exactly():
    arcs = frozenset({(0, 1), (2, 3)})
    for p in poset_automorphisms(4, arcs):
        assert {(p(x), p(y)) for x, y in arcs} == set(arcs)


def test_are_isomorphic_on_disjoint_unions():
    a = disjoint_union([Graph.path(3), Graph.complete(2)])
    b = disjoint_union([Graph.complete(2), Graph.path(3)])
    assert are_isomorphic(a, b)


def test_pairwise_maximal_modules():
    g, _ = substitute(Graph.path(4), {1: Graph.empty(2)})
    assert pairwise_maximal_modules(g) == ((0,), (3,), (4,), (1, 2))
    assert pairwise_maximal_modules(Graph.path(5)) == \
        tuple((v,) for v in range(5))
    with pytest.raises(InputError):
        pairwise_maximal_modules(disjoint_union([Graph.path(4)] * 2))
    with pytest.raises(InputError):
        pairwise_maximal_modules(Graph.path(3))     # complement disconnected


def test_graph_is_freed_after_the_oracle():
    # the refinement colours stay on the graph, not in a cache keyed on
    # it, so a graph dropped after brute_force_aut is freed with its tree
    # and complement; the search's recursive closure is a reference cycle,
    # so one collection is needed, taken here with automatic runs off
    gc.disable()
    try:
        g = Graph.path(6)
        tree_of(g)
        assert brute_force_aut(g).order() == 2
        assert refine_colors(g) is refine_colors(g)
        refs = [weakref.ref(x) for x in (g, tree_of(g), g.complement())]
        del g
        gc.collect()
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
