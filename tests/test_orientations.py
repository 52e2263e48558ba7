"""Transitive orientations: oracle, forcing, tree composition, action."""

from __future__ import annotations

import gc
import itertools
import random
import time
import weakref

import pytest

from comparability.errors import DomainError, InputError, OracleBoundError
from comparability.graphs import Graph, substitute
from comparability.modular import build_modular_tree, tree_of
from comparability.orientations import (
    Orientation, OrientationChoice, act,
    brute_force_transitive_orientations, compose_orientation,
    count_orientations, is_comparability, is_transitive, orientation_choices,
    orientation_stabilizer, prime_orientations, transitive_orientations,
)
from comparability.oracles import (
    graphs_up_to, nonisomorphic_graphs, poset_automorphisms,
)
from comparability.permgraphs import LinearOrderPair, intersection_graph
from comparability.perms import Permutation


def orient(g, *arcs):
    """The orientation of g holding exactly the given arcs."""
    out = [0] * g.n
    for u, v in arcs:
        out[u] |= 1 << v
    return Orientation(g, tuple(out))


def test_orientation_must_cover_edges():
    g = Graph.path(3)
    with pytest.raises(InputError):
        orient(g, (0, 1))                                  # missing an edge
    with pytest.raises(InputError):
        orient(g, (0, 1), (1, 0))                          # both directions
    with pytest.raises(InputError):
        orient(g, (0, 1), (0, 2))                          # non-edge
    for out in [(0b10, 0b100),                             # too short
                (0b10, 0b100, 0, 0),                       # too long
                (0b110, 0b100, 0),                         # bit on non-edge
                (0b10, 0b100, -1),                         # negative mask
                (0b10, 0b1000, 0)]:                        # bit past n
        with pytest.raises(InputError):
            Orientation(g, out)
    o = orient(g, (1, 0), (1, 2))
    assert o.out == (0, 0b101, 0)
    assert o.sorted_arcs() == ((1, 0), (1, 2))
    assert o.arcs == {(1, 0), (1, 2)}
    assert o.reversed().reversed() == o


def test_is_transitive_k3():
    k3 = Graph.complete(3)
    assert is_transitive(k3, orient(k3, (0, 1), (1, 2), (0, 2)))
    assert not is_transitive(k3, orient(k3, (0, 1), (1, 2), (2, 0)))


def test_is_transitive_p4_prime_orientation():
    p4 = Graph.path(4)
    assert is_transitive(p4, orient(p4, (0, 1), (2, 1), (2, 3)))


def test_is_transitive_rejects_foreign_orientation():
    o = orient(Graph.path(3), (0, 1), (1, 2))
    with pytest.raises(InputError):
        is_transitive(Graph.complete(3), o)


def test_brute_force_counts():
    assert len(brute_force_transitive_orientations(Graph.path(4))) == 2
    assert len(brute_force_transitive_orientations(Graph.complete(3))) == 6
    assert len(brute_force_transitive_orientations(Graph.complete(4))) == 24
    assert len(brute_force_transitive_orientations(Graph.cycle(5))) == 0
    assert len(brute_force_transitive_orientations(Graph.cycle(6))) == 2
    # the empty graph has exactly one (empty) orientation
    assert len(brute_force_transitive_orientations(Graph.empty(3))) == 1


def _mask_scan_orientations(g):
    """Reference for the pruned oracle: every one of the 2^m direction
    assignments in ascending bitmask order (bit k set: edge k runs
    high-to-low), kept when transitive."""
    found = []
    for mask in range(1 << g.num_edges):
        arcs = [(v, u) if mask >> k & 1 else (u, v)
                for k, (u, v) in enumerate(g.edges)]
        succ = [0] * g.n
        for u, v in arcs:
            succ[u] |= 1 << v
        if all(succ[v] & ~succ[u] == 0 for u, v in arcs):
            found.append(orient(g, *arcs))
    return tuple(found)


def test_pruned_oracle_matches_mask_scan():
    k34 = Graph.complete_bipartite(3, 4)
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)] +
                     [(i, i + 5) for i in range(5)] +
                     [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    larger = [k34, Graph(7, k34.edges + ((0, 1),)),
              Graph.cycle(7).complement(), petersen,
              Graph.complete_bipartite(3, 5)]
    assert [h.num_edges for h in larger] == [12, 13, 14, 15, 15]
    for g in graphs_up_to(6) + tuple(larger):
        assert brute_force_transitive_orientations(g) == \
            _mask_scan_orientations(g), g.edges


def test_brute_force_bound():
    with pytest.raises(OracleBoundError, match="max_edges=5"):
        brute_force_transitive_orientations(Graph.complete(4), max_edges=5)


def test_prime_orientations_p4():
    first, second = prime_orientations(Graph.path(4))
    assert first.sorted_arcs() == ((0, 1), (2, 1), (2, 3))
    assert second == first.reversed()


def test_prime_orientations_match_oracle():
    for g in [Graph.path(4), Graph.cycle(6), Graph.path(5), Graph.path(6)]:
        pair = prime_orientations(g)
        assert set(pair) == set(brute_force_transitive_orientations(g))


def test_prime_orientations_rejects_non_prime():
    with pytest.raises(InputError):
        prime_orientations(Graph.complete(3))
    with pytest.raises(InputError):
        prime_orientations(Graph.path(3))


def test_prime_orientations_rejects_odd_cycles():
    for n in (5, 7):
        with pytest.raises(DomainError):
            prime_orientations(Graph.cycle(n))


def test_is_comparability_cycles():
    assert not is_comparability(Graph.cycle(5))
    assert is_comparability(Graph.cycle(6))
    assert not is_comparability(Graph.cycle(7))


def test_bipartite_graphs_are_comparability():
    for g in graphs_up_to(6):
        if g.is_bipartite():
            assert is_comparability(g)


def test_is_comparability_agrees_with_oracle_n_le_6():
    for g in graphs_up_to(6):
        assert is_comparability(g) == \
            bool(brute_force_transitive_orientations(g))


@pytest.mark.slow
def test_is_comparability_agrees_with_oracle_n_7():
    comparability = 0
    for g in nonisomorphic_graphs(7):
        c = is_comparability(g)
        assert c == bool(brute_force_transitive_orientations(g, max_edges=21))
        comparability += c
    assert comparability == 824


def test_count_examples():
    for g, expected in [(Graph.complete(4), 24), (Graph.path(4), 2),
                        (Graph.path(3), 2), (Graph.complete_bipartite(2, 3), 2)]:
        assert count_orientations(build_modular_tree(g)) == expected


def test_count_rejects_non_comparability():
    with pytest.raises(DomainError):
        count_orientations(build_modular_tree(Graph.cycle(5)))


def test_compose_k3_linear_order():
    t = build_modular_tree(Graph.complete(3))
    c = OrientationChoice(prime_bits=(), linear_orders=((0, (0, 1, 2)),))
    assert compose_orientation(t, c).sorted_arcs() == ((0, 1), (0, 2), (1, 2))


def test_compose_p3_module_rule():
    # root is a K2 quotient with markers 3 -> block {1} and 4 -> block {0,2};
    # putting {0,2} first orients both edges toward vertex 1
    t = build_modular_tree(Graph.path(3))
    c = OrientationChoice(prime_bits=(), linear_orders=((0, (4, 3)),))
    assert compose_orientation(t, c).sorted_arcs() == ((0, 1), (2, 1))


def test_compose_rejects_bad_choices():
    t = build_modular_tree(Graph.path(3))
    with pytest.raises(InputError):
        compose_orientation(t, OrientationChoice((), ()))          # missing
    with pytest.raises(InputError):
        compose_orientation(t, OrientationChoice(((0, 0),), ()))   # not prime
    with pytest.raises(InputError):
        compose_orientation(
            t, OrientationChoice((), ((0, (3, 5)),)))              # bad members
    tp = build_modular_tree(Graph.path(4))
    with pytest.raises(InputError):
        compose_orientation(tp, OrientationChoice(((0, 2),), ()))  # bad bit


def test_enumeration_matches_oracle_n_le_5():
    comparability = 0
    for g in graphs_up_to(5):
        oracle = set(brute_force_transitive_orientations(g))
        if not is_comparability(g):
            assert not oracle
            with pytest.raises(DomainError):
                list(transitive_orientations(g))
            continue
        comparability += 1
        t = build_modular_tree(g)
        composed = list(transitive_orientations(g))
        # one orientation per choice vector, no repeats, oracle equality
        assert len(composed) == count_orientations(t)
        assert len(set(composed)) == len(composed)
        assert set(composed) == oracle
        # reversal closure
        assert all(o.reversed() in oracle for o in oracle)
    assert comparability == 51   # every n<=5 graph except C5


def test_enumeration_is_deterministic():
    g = Graph.complete_bipartite(2, 2)
    first = [o.sorted_arcs() for o in transitive_orientations(g)]
    second = [o.sorted_arcs() for o in transitive_orientations(g)]
    assert first == second


def test_choice_stream_shape():
    t = build_modular_tree(Graph.complete_bipartite(2, 3))
    choices = list(orientation_choices(t))
    assert len(choices) == count_orientations(t)
    assert len(set(choices)) == len(choices)


def test_choice_stream_runs_in_product_order_lazily():
    g, _ = substitute(Graph.path(4), {0: Graph.complete(3),
                                      3: Graph.complete(2)})
    t = build_modular_tree(g)
    primes = [nd.id for nd in t.nodes if nd.kind == "prime"]
    completes = [(nd.id, nd.members) for nd in t.nodes
                 if nd.kind == "complete" and len(nd.members) >= 2]
    assert len(primes) == 1 and len(completes) == 2
    expected = [
        OrientationChoice(tuple(zip(primes, combo[:1])),
                          tuple(zip([i for i, _ in completes], combo[1:])))
        for combo in itertools.product(
            (0, 1), *(itertools.permutations(ms) for _, ms in completes))]
    assert list(orientation_choices(t)) == expected
    # 12! orders: the first one comes without listing the others
    first = next(orientation_choices(build_modular_tree(Graph.complete(12))))
    assert first.linear_orders == ((0, tuple(range(12))),)


def test_tree_data_is_freed_with_the_tree():
    # a long-running process keeps no tree, and no orientation plan, of a
    # graph it has dropped; reference counting alone frees them, so no
    # cycle (a graph and its complement) leaves them to the cyclic collector
    def use(n):
        refs = []
        for h in (Graph.path(n), Graph.path(n).complement()):
            t = tree_of(h)
            count_orientations(t)
            next(transitive_orientations(h))
            plans = [o for pair in t.prime_plans.values() for o in pair]
            assert plans
            refs += [weakref.ref(x) for x in [t, *plans]]
        return refs

    gc.disable()
    try:
        refs = [r for n in range(4, 16) for r in use(n)]
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_orientation_of_a_large_two_order_graph():
    # a random permutation graph: one big prime node over about n singleton
    # leaves, about n^2/4 edges; composing once must not cost nodes x edges
    n = 1000
    rng = random.Random(1506)
    l2 = list(range(n))
    rng.shuffle(l2)
    g = intersection_graph(LinearOrderPair(tuple(range(n)), tuple(l2)))
    start = time.perf_counter()
    count = count_orientations(tree_of(g))
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    o = next(transitive_orientations(g))
    assert time.perf_counter() - start < 10
    assert count >= 2
    assert o.graph == g and is_transitive(g, o)


def test_act_identity_and_flip():
    p4 = Graph.path(4)
    first, _ = prime_orientations(p4)
    assert act(Permutation.identity(4), first) == first
    flip = Permutation((3, 2, 1, 0))
    assert act(flip, first) == first.reversed()


def test_act_rejects_non_automorphism():
    p4 = Graph.path(4)
    first, _ = prime_orientations(p4)
    with pytest.raises(InputError):
        act(Permutation((1, 0, 2, 3)), first)
    with pytest.raises(InputError):
        act(Permutation((0, 1, 2)), first)


def test_act_is_a_left_action():
    from comparability.oracles import brute_force_aut
    for g in [Graph.path(4), Graph.cycle(6), Graph.complete(4)]:
        auts = brute_force_aut(g).elements()
        orientations = brute_force_transitive_orientations(g)
        for p in auts:
            for q in auts:
                for o in orientations:
                    assert act(p * q, o) == act(p, act(q, o))


def test_stabilizer_examples():
    k3 = Graph.complete(3)
    lin = orient(k3, (0, 1), (0, 2), (1, 2))
    assert orientation_stabilizer(k3, lin).order() == 1
    e3 = Graph.empty(3)
    assert orientation_stabilizer(e3, orient(e3)).order() == 6
    p4 = Graph.path(4)
    for o in prime_orientations(p4):
        assert orientation_stabilizer(p4, o).order() == 1


def test_stabilizer_rejects_non_transitive():
    k3 = Graph.complete(3)
    cyclic = orient(k3, (0, 1), (1, 2), (2, 0))
    with pytest.raises(InputError):
        orientation_stabilizer(k3, cyclic)


def test_stabilizer_matches_poset_oracle_and_orbit_sizes():
    from comparability.oracles import brute_force_aut
    for g in graphs_up_to(5):
        orientations = brute_force_transitive_orientations(g)
        if not orientations:
            continue
        aut = brute_force_aut(g)
        for o in orientations:
            stab = orientation_stabilizer(g, o)
            oracle = poset_automorphisms(g.n, o.arcs)
            assert stab.element_maps() == frozenset(p.map for p in oracle)
            orbit = {frozenset((p(u), p(v)) for u, v in o.arcs)
                     for p in aut.elements()}
            assert len(orbit) * stab.order() == aut.order()
