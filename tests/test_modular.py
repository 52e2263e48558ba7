"""Modular decomposition: steps, quotients, tree structure, alternating
paths, uniqueness."""

from __future__ import annotations

import json
import random

import pytest

from comparability import modular
from comparability.errors import InputError
from comparability.graphs import (
    Graph, disjoint_union, is_degenerate, is_module, is_prime, substitute,
)
from comparability.modular import (
    COCOMPONENTS, COMPONENTS, MAXIMAL_MODULES, STOP,
    alternating_path_adjacent, build_modular_tree, check_tree,
    decomposition_step, is_prime_graph, quotient, tree_of, tree_to_dot,
    tree_to_json, trees_isomorphic,
)
from comparability.orientations import (
    compose_orientation, is_comparability, orientation_choices,
)
from comparability.oracles import (
    graphs_up_to, nonisomorphic_graphs, pairwise_maximal_modules,
)


def test_step_p3_cocomponents():
    step = decomposition_step(Graph.path(3))
    assert step.kind == COCOMPONENTS
    assert step.blocks == ((1,), (0, 2))


def test_step_disconnected_components():
    g = disjoint_union([Graph.complete(2), Graph.complete(2)])
    step = decomposition_step(g)
    assert step.kind == COMPONENTS
    assert step.blocks == ((0, 1), (2, 3))


def test_step_prime_stops():
    step = decomposition_step(Graph.path(4))
    assert step.kind == STOP
    assert step.blocks == ((0,), (1,), (2,), (3,))


def test_step_degenerate_stops():
    assert decomposition_step(Graph.complete(4)).kind == STOP
    assert decomposition_step(Graph.empty(4)).kind == STOP
    assert decomposition_step(Graph(1)).kind == STOP


def test_step_maximal_modules():
    # P4 with its second vertex blown up into a false twin pair: the only
    # nontrivial proper module is that pair, the quotient is prime
    g, blocks = substitute(Graph.path(4), {1: Graph.empty(2)})
    step = decomposition_step(g)
    assert step.kind == MAXIMAL_MODULES
    assert step.blocks == ((0,), (3,), (4,), (1, 2))
    for b in step.blocks:
        assert is_module(g, b)


def test_step_blocks_are_modules_everywhere():
    for g in graphs_up_to(6):
        step = decomposition_step(g)
        covered = sorted(v for b in step.blocks for v in b)
        assert covered == list(range(g.n))
        for b in step.blocks:
            assert is_module(g, b)


def test_quotient_of_p3():
    q = quotient(Graph.path(3), ((1,), (0, 2)))
    assert q == Graph.complete(2)


def test_quotient_rejects_bad_partitions():
    g = Graph.path(3)
    with pytest.raises(InputError):
        quotient(g, ((0, 1), (2,)))       # {0,1} not a module
    with pytest.raises(InputError):
        quotient(g, ((0, 2), (0,), (1,)))  # overlap
    with pytest.raises(InputError):
        quotient(g, ((0, 2),))             # does not cover


def test_tree_prime_graph_is_single_leaf():
    t = build_modular_tree(Graph.path(4))
    assert len(t.nodes) == 1
    node = t.nodes[t.root]
    assert node.is_leaf and node.kind == "prime"
    assert node.members == (0, 1, 2, 3)
    assert t.total_vertices == 4 and not t.tree_edges


def test_tree_single_vertex():
    t = build_modular_tree(Graph(1))
    assert len(t.nodes) == 1 and t.nodes[0].is_leaf


def test_tree_p3_shape():
    t = build_modular_tree(Graph.path(3))
    root = t.nodes[t.root]
    assert not root.is_leaf and root.kind == "complete"
    assert len(root.children) == 2
    kinds = sorted(t.nodes[c].kind for c in root.children)
    assert kinds == ["complete", "independent"]  # K1 leaf and 2K1 leaf


def test_tree_k1_plus_k2_shape():
    t = build_modular_tree(disjoint_union([Graph(1), Graph.complete(2)]))
    root = t.nodes[t.root]
    assert root.kind == "independent" and len(root.children) == 2


def test_tree_markers_allocated_above_n():
    g, _ = substitute(Graph.path(4), {1: Graph.empty(2)})
    t = build_modular_tree(g)
    assert all(m >= g.n for m, _ in t.marker_origin)
    origin = dict(t.marker_origin)
    for node in t.nodes:
        for m in node.members:
            if t.is_marker(m):
                assert origin[m] == node.id


def test_tree_attachment_markers_see_child_root():
    g, _ = substitute(Graph.path(4), {1: Graph.empty(2)})
    t = build_modular_tree(g)
    root = t.nodes[t.root]
    for child_id, mprime in zip(root.children, root.attach_markers):
        child = t.nodes[child_id]
        nbrs = {u for u, v in t.normal_edges if v == mprime} | \
               {v for u, v in t.normal_edges if u == mprime}
        assert nbrs == set(child.members)


def test_tree_invariants_sweep_n_le_6():
    for g in graphs_up_to(6):
        check_tree(build_modular_tree(g), g)


@pytest.mark.slow
def test_tree_invariants_sweep_n_7():
    for g in nonisomorphic_graphs(7):
        check_tree(build_modular_tree(g), g)


def test_alternating_path_recovers_adjacency():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (2, 3), (1, 3),
                  (0, 3), (4, 5)])
    t = build_modular_tree(g)
    for x in range(g.n):
        for y in range(g.n):
            expected = x != y and g.has_edge(x, y)
            assert alternating_path_adjacent(t, x, y) == expected


def test_alternating_path_rejects_markers():
    t = build_modular_tree(Graph.path(3))
    with pytest.raises(InputError):
        alternating_path_adjacent(t, 0, 3)


def test_tree_unique_up_to_iso_under_relabeling():
    cases = [
        Graph.path(5),
        disjoint_union([Graph.complete(3), Graph.complete(3)]),
        substitute(Graph.path(4), {1: Graph.empty(2)})[0],
        Graph.complete_bipartite(2, 3),
    ]
    for g in cases:
        t1 = build_modular_tree(g)
        t2 = build_modular_tree(g.relabel(list(reversed(range(g.n)))))
        assert trees_isomorphic(t1, t2)


def test_trees_of_different_graphs_not_isomorphic():
    t1 = build_modular_tree(Graph.path(5))
    t2 = build_modular_tree(Graph.cycle(5))
    assert not trees_isomorphic(t1, t2)


def test_json_export_is_stable_and_complete():
    t = build_modular_tree(Graph.path(3))
    payload = json.loads(tree_to_json(t))
    assert payload["vertex_count"] == 3
    assert payload["marker_count"] == 4
    assert len(payload["nodes"]) == 3
    assert tree_to_json(t) == tree_to_json(build_modular_tree(Graph.path(3)))


def test_dot_export_marks_tree_edges_dashed():
    t = build_modular_tree(Graph.path(3))
    text = tree_to_dot(t)
    assert "style=dashed" in text and "fillcolor=lightgray" in text


# -- the one-pivot step against the pairwise-closure oracle ----------------

def _reference_step(g):
    """decomposition_step by definition: components, co-components, then
    the closure of every vertex pair."""
    singletons = tuple((v,) for v in range(g.n))
    if g.n == 1 or is_degenerate(g):
        return STOP, singletons
    for kind, comps in ((COMPONENTS, g.connected_components()),
                        (COCOMPONENTS, g.complement().connected_components())):
        if len(comps) > 1:
            return kind, tuple(sorted(comps, key=lambda b: (len(b), b)))
    blocks = pairwise_maximal_modules(g)
    if len(blocks) == g.n:
        return STOP, singletons
    return MAXIMAL_MODULES, blocks


def _random_graph(rng, n):
    p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _substitution_graph(rng, n):
    """Nested substitutions of small random, complete, edgeless and path
    graphs, relabeled at random: graphs with deep, mixed trees."""
    g = _random_graph(rng, rng.randint(1, 6))
    while g.n < n:
        k = rng.randint(2, 5)
        part = rng.choice((Graph.complete(k), Graph.empty(k),
                           Graph.path(k), _random_graph(rng, k)))
        g, _ = substitute(g, {rng.randrange(g.n): part})
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _assert_step_matches_oracle(g):
    step = decomposition_step(g)
    assert (step.kind, step.blocks) == _reference_step(g), g


def test_step_agrees_with_pairwise_closure_catalog():
    for g in graphs_up_to(7):
        _assert_step_matches_oracle(g)


def test_step_agrees_with_pairwise_closure_random_and_substituted():
    rng = random.Random(2015)
    for _ in range(25):
        for g in (_random_graph(rng, rng.randint(2, 60)),
                  _substitution_graph(rng, rng.randint(2, 60))):
            _assert_step_matches_oracle(g)
            _assert_step_matches_oracle(g.complement())


def _assert_index_matches_scan(g):
    t = build_modular_tree(g)
    for node in t.nodes:
        inside = set(node.members)
        scanned = {(u, v) for u, v in t.normal_edges
                   if u in inside and v in inside}
        assert len(t.local_edges[node.id]) == len(scanned)
        assert set(t.local_edges[node.id]) == scanned, (g, node.id)
        pos = {v: i for i, v in enumerate(node.members)}
        assert t.node_graph(node.id) == \
            Graph(len(pos), [(pos[u], pos[v]) for u, v in scanned])
    local = [e for edges in t.local_edges for e in edges]
    assert t.out_masks(local + [(b, a) for a, b in local]) == \
        tuple(g.adjacency_mask(v) for v in range(g.n))


def test_local_edge_index_agrees_with_scan_catalog():
    for g in graphs_up_to(7):
        _assert_index_matches_scan(g)


def test_local_edge_index_agrees_with_scan_substituted():
    rng = random.Random(1506)
    for _ in range(25):
        g = _substitution_graph(rng, rng.randint(2, 60))
        _assert_index_matches_scan(g)
        _assert_index_matches_scan(g.complement())


def _expand_block_against_block(t, pairs):
    """Reference for ModularTree.out_masks: each member pair (a, b) as
    every vertex under a against every vertex under b, one arc at a time."""
    under = {}
    for node in t.nodes:
        if node.is_leaf:
            under.update((v, (v,)) for v in node.members)
        else:
            under.update((m, t.nodes[c].vertices_under)
                         for m, c in zip(node.members, node.children))
    out = [0] * t.n
    for a, b in pairs:
        for u in under[a]:
            for v in under[b]:
                out[u] |= 1 << v
    return tuple(out)


def _assert_out_masks_match_expansion(g):
    t = build_modular_tree(g)
    local = [e for edges in t.local_edges for e in edges]
    for pairs in (local, [(b, a) for a, b in local]):
        assert t.out_masks(pairs) == _expand_block_against_block(t, pairs), g
    if not is_comparability(g):
        return
    # the first orientation, composed the old way: prime nodes by their
    # forced orientation in member ids, complete nodes earlier to later
    c = next(orientation_choices(t))
    pairs = []
    for nid, bit in c.prime_bits:
        members = t.nodes[nid].members
        pairs += [(members[a], members[b])
                  for a, b in t.prime_plans[nid][bit].arcs]
    for nid, order in c.linear_orders:
        rank = {m: i for i, m in enumerate(order)}
        pairs += [(a, b) if rank[a] < rank[b] else (b, a)
                  for a, b in t.local_edges[nid]]
    assert compose_orientation(t, c).out == \
        _expand_block_against_block(t, pairs), g


def test_out_masks_match_block_expansion_catalog():
    for g in graphs_up_to(6):
        _assert_out_masks_match_expansion(g)


def test_out_masks_match_block_expansion_substituted():
    rng = random.Random(1980)
    for _ in range(25):
        g = _substitution_graph(rng, rng.randint(2, 60))
        _assert_out_masks_match_expansion(g)
        _assert_out_masks_match_expansion(g.complement())


def test_tree_primality_equals_subset_sweep_n_le_7():
    for g in graphs_up_to(7):
        assert is_prime_graph(g) == is_prime(g), g


def test_tree_and_complement_built_once_per_graph(monkeypatch):
    g = Graph.path(6)
    assert g.complement() is g.complement()
    assert g.complement().complement() is g
    calls = []
    real = modular.build_modular_tree
    monkeypatch.setattr(modular, "build_modular_tree",
                        lambda h: calls.append(h) or real(h))
    assert tree_of(g) is tree_of(g)
    assert tree_to_json(tree_of(g)) == tree_to_json(real(g))
    assert calls == [g]


def test_deep_tree_builds_past_the_recursion_limit():
    # a threshold graph nests one tree level per vertex pair: 1098 levels,
    # deeper than the interpreter's default recursion limit
    n = 1100
    g = Graph(n, [(u, v) for v in range(0, n, 2) for u in range(v)])
    t = build_modular_tree(g)
    depth = {t.root: 0}
    for node in t.nodes:
        for child in node.children:
            depth[child] = depth[node.id] + 1
    assert max(depth.values()) == n - 2
    assert sorted(v for nd in t.nodes if nd.is_leaf for v in nd.members) \
        == list(range(n))
