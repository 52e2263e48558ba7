"""Permutation graphs: representations, pair action, symmetry, gadgets."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from comparability.errors import DomainError, InputError, OracleBoundError
from comparability.graphs import Graph, is_prime
from comparability.modular import build_modular_tree, tree_of
from comparability.orientations import (
    count_orientations, transitive_orientations,
)
from comparability.groups import aut_tree, realize
from comparability.oracles import brute_force_aut, nonisomorphic_graphs
from comparability.permgraphs import (
    LinearOrderPair, OrientationPair, act_pair, build_representation,
    find_asymmetric_spine, find_rectangle_spine, gadget_product,
    gadget_rectangle, gadget_wreath, intersection_graph,
    is_permutation_graph, orientation_pairs, pair_action_orbits,
    prime_symmetry_class, product_spine, rectangle_spine,
    representation_svg, representation_to_json,
)
from comparability.perms import Permutation

K1 = Graph(1, [])
K2 = Graph.complete(2)
P4 = Graph.path(4)


def permutation_graphs(n_max):
    for n in range(1, n_max + 1):
        for g in nonisomorphic_graphs(n):
            if is_permutation_graph(g):
                yield g


def test_linear_order_pair_validation():
    LinearOrderPair((1, 0, 2), (0, 1, 2))
    with pytest.raises(InputError):
        LinearOrderPair((0, 1), (0, 1, 2))                 # length mismatch
    with pytest.raises(InputError):
        LinearOrderPair((0, 0, 1), (0, 1, 2))              # repeated vertex


def test_orientation_pair_validation():
    o = orientation_pairs(P4)[0]
    OrientationPair(o.o, o.o_bar)
    with pytest.raises(InputError):
        OrientationPair(o.o, o.o)                          # not the complement


@pytest.mark.parametrize("g, want", [
    (K1, 1),
    (K2, 2),
    (Graph.path(3), 4),
    (P4, 4),
    (Graph.complete(3), 6),
    (Graph(3, []), 6),
])
def test_pair_counts(g, want):
    assert len(orientation_pairs(g)) == want


def test_pair_enumeration_refuses_non_permutation_graph():
    with pytest.raises(DomainError):
        orientation_pairs(Graph.cycle(5))


def test_pair_enumeration_bound():
    with pytest.raises(OracleBoundError, match="max_pairs=3"):
        orientation_pairs(P4, max_pairs=3)


def test_representation_frozen_examples():
    rep = build_representation(P4, orientation_pairs(P4)[0])
    assert rep == LinearOrderPair((0, 2, 1, 3), (2, 3, 0, 1))
    reps = [build_representation(K2, p) for p in orientation_pairs(K2)]
    assert reps == [LinearOrderPair((0, 1), (0, 1)),
                    LinearOrderPair((1, 0), (1, 0))]


def test_representation_rejects_foreign_pair():
    pair = orientation_pairs(P4)[0]
    with pytest.raises(InputError):
        build_representation(Graph.path(3), pair)


def test_intersection_graph_extremes():
    # agreeing orders give a complete graph, opposite orders an empty one
    assert intersection_graph(LinearOrderPair((0, 1, 2), (0, 1, 2))) == \
        Graph.complete(3)
    assert intersection_graph(LinearOrderPair((0, 1, 2), (2, 1, 0))) == \
        Graph(3, [])


def test_representation_roundtrip_sweep():
    for g in permutation_graphs(5):
        for pair in orientation_pairs(g):
            assert intersection_graph(build_representation(g, pair)) == g


def test_representation_json_and_svg():
    rep = build_representation(K2, orientation_pairs(K2)[0])
    assert representation_to_json(rep) == '{"l1": [0, 1], "l2": [0, 1]}'
    svg = representation_svg(rep)
    assert svg == representation_svg(rep)
    assert svg.count("<line") == 2 and svg.count("<text") == 4
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')


def test_act_pair_flips_representation():
    # K2's swap carries each orientation pair to the other one
    swap = Permutation((1, 0))
    a, b = orientation_pairs(K2)
    assert act_pair(swap, a) == b and act_pair(swap, b) == a


@pytest.mark.parametrize("g, orbit_sizes", [
    (K1, (1,)),
    (K2, (2,)),
    (Graph.path(3), (2, 2)),
    (P4, (2, 2)),
    (Graph.complete(3), (6,)),
    (Graph(3, []), (6,)),
])
def test_pair_orbits_examples(g, orbit_sizes):
    orbits = pair_action_orbits(g)
    assert tuple(len(o) for o in orbits) == orbit_sizes


def test_pair_action_semiregular_sweep():
    # pair_action_orbits asserts every orbit has exactly |Aut| members
    count = sum(len(pair_action_orbits(g)) > 0 for g in permutation_graphs(6))
    assert count == 193


def test_prime_symmetry_class_examples():
    report = prime_symmetry_class(P4)
    assert report.subgroup == "Z2-vertical"
    assert (report.orbits_size_4, report.orbits_size_2,
            report.orbits_size_1) == (0, (("free", 2),), 0)

    spine, _ = product_spine()
    assert prime_symmetry_class(spine).subgroup == "trivial"
    assert prime_symmetry_class(spine).orbits_size_1 == spine.n

    klein, _, _, _ = rectangle_spine()
    report = prime_symmetry_class(klein)
    assert report.subgroup == "Z2xZ2"
    assert report.orbits_size_4 == 1 and report.orbits_size_1 == 0
    assert report.orbits_size_2 == (("horizontal", 1), ("rotation", 1))


def test_prime_symmetry_class_rejects_bad_inputs():
    with pytest.raises(InputError):
        prime_symmetry_class(Graph.path(3))                # not prime
    with pytest.raises(InputError):
        prime_symmetry_class(Graph.complete(3))            # not prime
    with pytest.raises(InputError):
        prime_symmetry_class(Graph.cycle(5))               # not permutation


def test_prime_symmetry_sweep():
    # every prime permutation graph through n=7 lands inside Z2 x Z2
    tally = {}
    for n in range(4, 8):
        for g in nonisomorphic_graphs(n):
            if is_prime(g) and is_permutation_graph(g):
                label = prime_symmetry_class(g).subgroup
                tally[label] = tally.get(label, 0) + 1
    assert tally == {"trivial": 86, "Z2-vertical": 10, "Z2-horizontal": 6,
                     "Z2-rotation": 6, "Z2xZ2": 4}


@pytest.mark.parametrize("build, want", [
    (lambda: gadget_product(K2, K2), 4),
    (lambda: gadget_product(K2, P4), 4),
    (lambda: gadget_wreath(K1, 3), 6),
    (lambda: gadget_wreath(K2, 2), 8),
    (lambda: gadget_wreath(P4, 3), 48),
    (lambda: gadget_rectangle(K1, K1, K1), 4),
    (lambda: gadget_rectangle(K2, K1, K1), 64),
    (lambda: gadget_rectangle(K1, K2, K2), 64),
])
def test_gadget_orders(build, want):
    g = build()
    assert is_permutation_graph(g)
    assert brute_force_aut(g, max_n=12).order() == want


def test_gadget_rectangle_large():
    g = gadget_rectangle(P4, P4, P4)
    assert g.n == 32
    assert brute_force_aut(g, max_n=32).order() == 1024


def test_gadget_expressions():
    cases = [
        (gadget_product(K2, P4), 10, "S2 x S2"),
        (gadget_wreath(P4, 3), 12, "(S2 wr S3)"),
        (gadget_rectangle(K2, K1, K1), 12,
         "Z2^2-semidirect[G1=S2; G2=1; G3=1; fixed=1]"),
    ]
    for g, mx, want in cases:
        expr, group = aut_tree(build_modular_tree(g), max_n=mx)
        assert str(expr) == want
        assert group.order() == realize(expr)


def test_gadget_input_validation():
    c5 = Graph.cycle(5)
    with pytest.raises(InputError):
        gadget_product(c5, K2)
    with pytest.raises(InputError):
        gadget_wreath(Graph(4, [(0, 1), (2, 3)]), 2)       # disconnected
    with pytest.raises(InputError):
        gadget_wreath(K2, 0)
    with pytest.raises(InputError):
        gadget_rectangle(K1, c5, K1)


def test_product_spine_fixture():
    spine, attach = product_spine()
    assert spine == Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
    assert attach == (0, 1)
    assert is_prime(spine) and is_permutation_graph(spine)
    assert brute_force_aut(spine).order() == 1


def test_rectangle_spine_fixture():
    spine, four, two_a, two_b = rectangle_spine()
    assert spine.n == 8 and is_prime(spine) and is_permutation_graph(spine)
    aut = brute_force_aut(spine)
    assert aut.order() == 4 and aut.exponent_divides_two()
    assert sorted(map(len, aut.orbits())) == [2, 2, 4]
    assert set(four) in [set(o) for o in aut.orbits()]
    assert {tuple(two_a), tuple(two_b)} == \
        {o for o in aut.orbits() if len(o) == 2}


def test_asymmetric_spine_discovery_matches_fixture():
    assert find_asymmetric_spine() == product_spine()[0]


@pytest.mark.slow
def test_rectangle_spine_discovery_matches_fixture():
    assert find_rectangle_spine() == rectangle_spine()


# -- two random orders past the oracle bound ------------------------------

@st.composite
def two_orders(draw):
    n = draw(st.integers(1, 200))
    return (tuple(draw(st.permutations(range(n)))),
            tuple(draw(st.permutations(range(n)))))


def _tournament_order_of_arcs(n, arcs):
    """Reference for the two orders: a vertex's rank from its out-degree
    in the arc set of a transitive tournament, checked arc by arc."""
    assert len(arcs) == n * (n - 1) // 2, "union does not cover all pairs"
    succ = [0] * n
    for u, v in arcs:
        succ[u] |= 1 << v
    assert all(succ[v] & ~succ[u] == 0 for u, v in arcs), "cycle in union"
    out = [0] * n
    for u, _ in arcs:
        out[u] += 1
    assert sorted(out) == list(range(n))
    return tuple(sorted(range(n), key=lambda v: -out[v]))


@settings(max_examples=30, deadline=None, database=None)
@given(two_orders())
def test_two_order_graphs_recognized_rebuilt_and_counted(orders):
    g = intersection_graph(LinearOrderPair(*orders))
    assert is_permutation_graph(g)
    pair = OrientationPair(next(transitive_orientations(g)),
                           next(transitive_orientations(g.complement())))
    rep = build_representation(g, pair)
    assert intersection_graph(rep) == g
    o, o_bar = pair.o.arcs, pair.o_bar.arcs
    assert (rep.l1, rep.l2) == (
        _tournament_order_of_arcs(g.n, o | o_bar),
        _tournament_order_of_arcs(g.n, o | {(v, u) for u, v in o_bar}))
    t = tree_of(g)
    expected = 1
    for node in t.nodes:
        if node.kind == "prime":
            expected *= 2
        elif node.kind == "complete":
            expected *= math.factorial(len(node.members))
    assert count_orientations(t) == expected
