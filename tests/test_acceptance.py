"""Acceptance suite: the nine structural guarantees, checked exactly.

Every criterion is an exhaustive desk-scale sweep against the
brute-force oracles; tolerances are exact equality throughout.  Each
test prints its own pass line to the terminal so a full run reads as a
nine-line scorecard.
"""

from __future__ import annotations

import random
from math import factorial

import pytest

from comparability.dim4 import (
    construct_cx, four_chains, gi_reduction, incidence_graph,
    verify_chain_intersection,
)
from comparability.graphs import Graph, is_cycle_graph, is_prime
from comparability.groups import aut_tree, realize
from comparability.modular import alternating_path_adjacent, build_modular_tree
from comparability.oracles import (
    brute_force_aut, brute_force_iso, nonisomorphic_graphs,
)
from comparability.orientations import (
    brute_force_transitive_orientations, count_orientations, is_comparability,
    transitive_orientations,
)
from comparability.permgraphs import (
    act_pair, gadget_product, gadget_rectangle, gadget_wreath,
    intersection_graph, build_representation, is_permutation_graph,
    orientation_pairs, pair_action_orbits,
)

MAX_PAIRS = 10 ** 6

K1 = Graph(1, [])
K2 = Graph.complete(2)
P4 = Graph.path(4)


def report(capsys, text):
    with capsys.disabled():
        print(f"\n{text}", end="")


def all_graphs(n_max, n_min=1):
    for n in range(n_min, n_max + 1):
        yield from nonisomorphic_graphs(n)


def test_criterion_1_tree_group_equals_graph_group(capsys):
    """Aut from the modular tree == brute force, all graphs n <= 7."""
    checked = 0
    for g in all_graphs(7):
        expr, group = aut_tree(build_modular_tree(g))
        oracle = brute_force_aut(g)
        assert set(group.elements()) == set(oracle.elements()), g
        assert realize(expr) == oracle.order(), g
        checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    report(capsys, f"criterion 1 PASS: tree-assembled groups equal "
                   f"brute force on {checked} graphs (n <= 7)")


def test_criterion_2_orientation_enumeration(capsys):
    """Tree-composed orientations biject with the oracle, n <= 6."""
    comp = 0
    for g in all_graphs(6):
        if not is_comparability(g):
            continue
        oracle = set(brute_force_transitive_orientations(g))
        listed = list(transitive_orientations(g))
        assert len(listed) == len(set(listed)), g      # no repeats
        assert set(listed) == oracle, g
        assert count_orientations(build_modular_tree(g)) == len(oracle), g
        comp += 1
    for n in range(1, 7):
        t = build_modular_tree(Graph.complete(n))
        assert count_orientations(t) == factorial(n)
    primes = 0
    for g in all_graphs(6, n_min=4):
        if is_prime(g) and is_comparability(g):
            assert count_orientations(build_modular_tree(g)) == 2, g
            primes += 1
    report(capsys, f"criterion 2 PASS: orientation sets and counts match "
                   f"on {comp} comparability graphs (n <= 6), K_n gives n!, "
                   f"{primes} prime graphs give 2")


def test_criterion_3_pair_action_semiregular(capsys):
    """No nonidentity automorphism fixes a pair; orbits have size |Aut|."""
    checked = 0
    for g in all_graphs(7):
        if not is_permutation_graph(g):
            continue
        # pair_action_orbits asserts every orbit size equals |Aut(g)|,
        # which by orbit counting leaves no room for fixed pairs
        orbits = pair_action_orbits(g, max_pairs=MAX_PAIRS)
        size = brute_force_aut(g).order()
        assert all(len(o) == size for o in orbits), g
        checked += 1
    for g in all_graphs(4):                # literal per-element re-check
        if not is_permutation_graph(g):
            continue
        nonid = [p for p in brute_force_aut(g).elements()
                 if not p.is_identity()]
        for pair in orientation_pairs(g):
            assert all(act_pair(p, pair) != pair for p in nonid), g
    report(capsys, f"criterion 3 PASS: pair action semiregular on "
                   f"{checked} permutation graphs (n <= 7)")


def test_criterion_4_prime_symmetry_bound(capsys):
    """Prime permutation graphs n <= 8: |Aut| in {1, 2, 4}, exponent 2."""
    checked = 0
    counterexamples = []
    for g in all_graphs(8, n_min=4):
        if not is_prime(g) or not is_permutation_graph(g):
            continue
        aut = brute_force_aut(g)
        if aut.order() not in (1, 2, 4) or not aut.exponent_divides_two():
            counterexamples.append(g)
        checked += 1
    assert not counterexamples
    report(capsys, f"criterion 4 PASS: {checked} prime permutation graphs "
                   f"(n <= 8), all with group inside Z2 x Z2, "
                   f"0 counterexamples")


def test_criterion_5_gadget_orders(capsys):
    """The three closure gadgets achieve exactly the predicted orders."""
    inputs = {"K1": (K1, 1), "K2": (K2, 2), "P4": (P4, 2)}
    cases = 0
    for _, (x1, a1) in inputs.items():
        for _, (x2, a2) in inputs.items():
            g = gadget_product(x1, x2)
            assert is_permutation_graph(g)
            assert brute_force_aut(g, max_n=g.n).order() == a1 * a2
            cases += 1
    for _, (y, a) in inputs.items():
        for k in (1, 2, 3):
            g = gadget_wreath(y, k)
            assert is_permutation_graph(g)
            assert brute_force_aut(g, max_n=g.n).order() == \
                a ** k * factorial(k)
            cases += 1
    triples = [("K1", "K1", "K1"), ("K2", "K1", "K1"), ("K1", "K2", "P4"),
               ("K2", "K2", "K2"), ("P4", "P4", "P4")]
    for names in triples:
        (x1, a1), (x2, a2), (x3, a3) = (inputs[t] for t in names)
        g = gadget_rectangle(x1, x2, x3)
        assert is_permutation_graph(g)
        assert brute_force_aut(g, max_n=g.n).order() == \
            a1 ** 4 * a2 ** 2 * a3 ** 2 * 4
        cases += 1
    report(capsys, f"criterion 5 PASS: {cases} gadget instances hit their "
                   f"predicted automorphism orders exactly")


def _random_connected_bipartite(rng, n):
    while True:
        side = [rng.random() < 0.5 for _ in range(n)]
        if len(set(side)) < 2:
            continue
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] != side[v] and rng.random() < 0.5]
        g = Graph(n, edges)
        if g.is_connected():
            return g


def test_criterion_6_four_chains_exact(capsys):
    """Chain intersection equals the gadget edge set, zero discrepancies."""
    swept = 0
    for g in all_graphs(8):
        if not g.is_connected() or g.bipartition() is None:
            continue
        cx = construct_cx(g)
        assert verify_chain_intersection(four_chains(cx), cx), g
        swept += 1
    rng = random.Random(11)
    for _ in range(100):
        g = _random_connected_bipartite(rng, rng.randint(4, 10))
        cx = construct_cx(g)
        assert verify_chain_intersection(four_chains(cx), cx), g
    report(capsys, f"criterion 6 PASS: chains exact on {swept} connected "
                   f"bipartite graphs (n <= 8) plus 100 random to n = 10")


def test_criterion_7_reduction_preserves_iso(capsys):
    """|Aut| preserved through the pipeline; iso preserved and reflected."""
    catalog = [g for g in all_graphs(5)
               if g.is_connected() and not is_cycle_graph(g)]
    outputs = []
    for g in catalog:
        cy = construct_cx(incidence_graph(g)).graph
        assert brute_force_aut(cy, max_n=cy.n).order() == \
            brute_force_aut(g).order(), g
        outputs.append(cy)
    pairs = 0
    for i, x1 in enumerate(catalog):
        for j in range(i, len(catalog)):
            x2 = catalog[j] if i != j else \
                catalog[i].relabel(list(reversed(range(catalog[i].n))))
            out1, out2 = gi_reduction(x1, x2)
            witness = brute_force_iso(out1, out2,
                                      max_n=max(out1.n, out2.n))
            assert (witness is not None) == (i == j), (x1, x2)
            pairs += 1
    report(capsys, f"criterion 7 PASS: group orders preserved for "
                   f"{len(catalog)} graphs (n <= 5), isomorphism preserved "
                   f"and reflected on {pairs} reduction pairs")


def test_criterion_8_two_order_representation(capsys):
    """Every orientation pair's two orders reconstruct the graph."""
    graphs = pairs = 0
    for g in all_graphs(7):
        if not is_permutation_graph(g):
            continue
        for pair in orientation_pairs(g, MAX_PAIRS):
            rep = build_representation(g, pair)
            assert intersection_graph(rep) == g, (g, pair)
            pairs += 1
        graphs += 1
    report(capsys, f"criterion 8 PASS: {pairs} representations over "
                   f"{graphs} permutation graphs (n <= 7) all reconstruct "
                   f"their graph")


def test_criterion_9_alternating_paths(capsys):
    """Alternating-path adjacency over the tree reconstructs E(X)."""
    checked = 0
    for g in all_graphs(7):
        t = build_modular_tree(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert alternating_path_adjacent(t, u, v) == \
                    g.has_edge(u, v), (g, u, v)
        checked += 1
    report(capsys, f"criterion 9 PASS: adjacency reconstructed for all "
                   f"{checked} graphs (n <= 7)")
