"""Transitive orientations through the modular tree.

A transitive orientation directs every edge so that u->v and v->w force
u->w.  Prime graphs admit at most two, each the reversal of the other;
complete graphs K_k admit one per linear order, k! in total; edgeless
graphs exactly one (the empty one).  Any comparability graph composes
these node by node along its modular tree, and every transitive
orientation of the whole graph arises from exactly one choice vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InputError, OracleBoundError
from .graphs import Graph, iter_bits
from .modular import ModularTree, is_prime_graph, tree_of
from .oracles import DEFAULT_VERTEX_BOUND, brute_force_aut
from .perms import Permutation, PermutationGroup

DEFAULT_EDGE_BOUND = 20


@dataclass(frozen=True)
class Orientation:
    """One direction per edge of an underlying graph, as per-vertex
    out-masks: bit v of out[u] is set when the edge uv runs u -> v."""

    graph: Graph
    out: tuple[int, ...]

    def __post_init__(self) -> None:
        out = tuple(self.out)
        object.__setattr__(self, "out", out)
        adj = [self.graph.adjacency_mask(v) for v in range(self.graph.n)]
        # a bit outside adj[u] (negative masks have some) leaves the graph;
        # then each edge is covered once iff out- and in-masks split adj[u]
        if len(out) != len(adj) or any(o & ~a for o, a in zip(out, adj)) or \
                any(o ^ i != a for o, i, a in zip(out, _transpose(out), adj)):
            raise InputError("arcs must cover each edge exactly once")

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_arcs())

    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, m in enumerate(self.out)
                     for v in iter_bits(m))

    def reversed(self) -> "Orientation":
        return Orientation(self.graph, _transpose(self.out))

    def __repr__(self) -> str:
        return f"Orientation({list(self.sorted_arcs())!r})"


def _transpose(out: Sequence[int]) -> list[int]:
    """The in-masks of the arcs that the out-masks `out` hold."""
    inn = [0] * len(out)
    for u, m in enumerate(out):
        bit = 1 << u
        for v in iter_bits(m):
            inn[v] |= bit
    return inn


def is_transitive(g: Graph, o: Orientation) -> bool:
    """True when no arc pair u->v->w misses the shortcut arc u->w."""
    if o.graph != g:
        raise InputError("orientation does not cover this graph's edges")
    out = o.out
    return all(not out[v] & ~m for m in out for v in iter_bits(m))


def brute_force_transitive_orientations(g: Graph, max_edges: int = DEFAULT_EDGE_BOUND
                                        ) -> tuple[Orientation, ...]:
    """All transitive orientations by a depth-first search over direction
    assignments, dropping each partial assignment that already holds
    arcs w->a->b with w-b a non-edge or oriented b->w.

    Deterministic: results come in ascending bitmask order, where bit k
    set means edge k runs high-to-low, because edges are assigned from
    the highest index down, low-to-high before high-to-low.
    """
    edges = g.edges
    m = len(edges)
    if m > max_edges:
        raise OracleBoundError(
            f"{m} edges exceeds the orientation oracle bound max_edges={max_edges}")
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    out = [0] * g.n
    inn = [0] * g.n
    found = []

    def assign(k: int) -> None:
        if k < 0:
            found.append(Orientation(g, out))
            return
        u, v = edges[k]
        for a, b in ((u, v), (v, u)):
            # a->b closes w->a->b or a->b->c without the shortcut arc
            if inn[a] & (out[b] | ~adj[b]) or out[b] & ~adj[a]:
                continue
            out[a] |= 1 << b
            inn[b] |= 1 << a
            assign(k - 1)
            out[a] &= ~(1 << b)
            inn[b] &= ~(1 << a)

    assign(m - 1)
    return tuple(found)


# -- forcing on prime graphs ----------------------------------------------

def _force_from_seed(g: Graph) -> list[int] | None:
    """Propagate forced directions from the first edge.

    An arc a->b forces a->c for every c adjacent to a but not b, and
    c->b for every c adjacent to b but not a.  Returns the forced arcs as
    out-masks, or None when both directions of some edge got forced.

    Arcs live in per-vertex out and in masks, so one arc's forced arcs,
    and any conflict with arcs already chosen, are a few mask operations;
    each arc is pushed once.
    """
    edges = g.edges
    out = [0] * g.n
    if not edges:
        return out
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    inn = [0] * g.n
    a, b = edges[0]
    out[a] = 1 << b
    inn[b] = 1 << a
    stack = [edges[0]]
    while stack:
        a, b = stack.pop()
        heads = adj[a] & ~adj[b] & ~(1 << b)     # a -> c
        if heads & inn[a]:
            return None
        heads &= ~out[a]
        if heads:
            out[a] |= heads
            for c in iter_bits(heads):
                inn[c] |= 1 << a
                stack.append((a, c))
        tails = adj[b] & ~adj[a] & ~(1 << a)     # c -> b
        if tails & out[b]:
            return None
        tails &= ~inn[b]
        if tails:
            inn[b] |= tails
            for c in iter_bits(tails):
                out[c] |= 1 << b
                stack.append((c, b))
    return out


def _prime_graph_orientations(g: Graph
                              ) -> tuple[Orientation, Orientation] | None:
    """Both transitive orientations of a prime graph, or None."""
    out = _force_from_seed(g)
    if out is None:
        # the seed direction led to a conflict; by symmetry so does the
        # other one, hence no transitive orientation at all
        return None
    # Gallai: the forcing relation of a prime graph links all its edges
    assert sum(m.bit_count() for m in out) == g.num_edges, \
        "forcing left edges of a prime graph"
    o = Orientation(g, out)
    if not is_transitive(g, o):
        return None
    return o, o.reversed()


def prime_orientations(g: Graph) -> tuple[Orientation, Orientation]:
    """The two transitive orientations of a prime comparability graph."""
    if not is_prime_graph(g):
        raise InputError("graph is not prime")
    pair = _prime_graph_orientations(g)
    if pair is None:
        raise DomainError("prime graph is not a comparability graph")
    return pair


def is_comparability(g: Graph) -> bool:
    """A graph is comparability iff every node of its modular tree is.

    Degenerate nodes always are; prime nodes are settled by forcing.
    """
    try:
        # the plans stay on the tree: composing an orientation reuses them
        _prime_node_plans(tree_of(g))
    except DomainError:
        return False
    return True


# -- composing orientations from the tree ---------------------------------

@dataclass(frozen=True)
class OrientationChoice:
    """One decision per tree node that has any freedom.

    prime_bits holds (node id, 0 or 1): 0 is the forcing-seeded
    orientation of the node graph, 1 its reversal.  linear_orders holds
    (node id, members of a complete node in the chosen order); earlier
    members point at later ones.
    """

    prime_bits: tuple[tuple[int, int], ...]
    linear_orders: tuple[tuple[int, tuple[int, ...]], ...]


def _prime_node_plans(t: ModularTree
                      ) -> dict[int, tuple[Orientation, Orientation]]:
    """Per prime node: the two orientations of its node graph (vertex i is
    the i-th member), computed once and kept on the tree."""
    if t.prime_plans is not None:
        return t.prime_plans
    plans = {}
    for nid in t.choice_slots[0]:
        pair = _prime_graph_orientations(t.node_graph(nid))
        if pair is None:
            raise DomainError(
                f"not a comparability graph: tree node {nid} has no "
                "transitive orientation")
        plans[nid] = pair
    object.__setattr__(t, "prime_plans", plans)
    return plans


def orientation_choices(t: ModularTree):
    """Iterate every choice vector exactly once.

    Prime bits vary before complete-node orders; within each kind, nodes
    go in id order and the last slot moves fastest.  The stream is lazy:
    the first vector costs one pass over the slots however many orders a
    large complete node has.
    """
    prime_ids, complete_slots = t.choice_slots
    _prime_node_plans(t)   # fail fast on non-comparability
    options = [lambda: (0, 1)] * len(prime_ids) + \
              [lambda ms=ms: itertools.permutations(ms)
               for _, ms in complete_slots]
    complete_ids = tuple(nid for nid, _ in complete_slots)

    def stream():
        for combo in _product(options):
            yield OrientationChoice(
                prime_bits=tuple(zip(prime_ids, combo[:len(prime_ids)])),
                linear_orders=tuple(zip(complete_ids,
                                        combo[len(prime_ids):])))

    return stream()


_END = object()


def _product(options):
    """itertools.product over fresh iterables from `options`, in the same
    order, holding one item of each instead of materializing them all."""
    iters = [iter(make()) for make in options]
    current = [next(it) for it in iters]
    while True:
        yield tuple(current)
        i = len(iters) - 1
        while i >= 0:
            nxt = next(iters[i], _END)
            if nxt is not _END:
                current[i] = nxt
                break
            iters[i] = iter(options[i]())
            current[i] = next(iters[i])
            i -= 1
        if i < 0:
            return


def compose_orientation(t: ModularTree, c: OrientationChoice) -> Orientation:
    """Expand per-node decisions into an orientation of the whole graph.

    A quotient arc m_i -> m_j orients every edge between the two child
    blocks from block i to block j; leaf arcs orient themselves.
    """
    out = _compose(t, c)
    edges = [(u, v) for u, m in enumerate(out) for v in iter_bits(m)]
    return Orientation(Graph(t.n, edges), out)


def _compose(t: ModularTree, c: OrientationChoice) -> tuple[int, ...]:
    prime_ids, complete_slots = t.choice_slots
    bits = dict(c.prime_bits)
    orders = dict(c.linear_orders)
    if sorted(bits) != sorted(prime_ids) or \
            any(b not in (0, 1) for b in bits.values()):
        raise InputError("choice must give each prime node a bit in {0, 1}")
    expected = {nid: ms for nid, ms in complete_slots}
    if sorted(orders) != sorted(expected):
        raise InputError("choice must give each complete node one order")
    for nid, order in orders.items():
        if tuple(sorted(order)) != expected[nid]:
            raise InputError(
                f"order for node {nid} is not a permutation of its members")

    plans = _prime_node_plans(t)

    def chosen_pairs():
        for nid, bit in bits.items():
            members = t.nodes[nid].members
            for a, m in enumerate(plans[nid][bit].out):
                for b in iter_bits(m):
                    yield members[a], members[b]
        for order in orders.values():
            yield from itertools.combinations(order, 2)

    return t.out_masks(chosen_pairs())


def transitive_orientations(g: Graph):
    """All transitive orientations, lazily, one per choice vector."""
    t = tree_of(g)
    choices = orientation_choices(t)
    return (Orientation(g, _compose(t, c)) for c in choices)


def count_orientations(t: ModularTree) -> int:
    """Product over nodes: prime 2, complete K_k k!, independent 1."""
    _prime_node_plans(t)   # raises on non-comparability
    prime_ids, complete_slots = t.choice_slots
    total = 2 ** len(prime_ids)
    for _, members in complete_slots:
        total *= math.factorial(len(members))
    return total


# -- the automorphism action ----------------------------------------------

def act(p: Permutation, o: Orientation) -> Orientation:
    """Relabel an orientation by an automorphism of its graph; any other
    permutation moves an arc onto a non-edge, which the constructor refuses."""
    g = o.graph
    if p.degree != g.n:
        raise InputError("permutation degree does not match the graph")
    out = [0] * g.n
    for u, m in enumerate(o.out):
        for v in iter_bits(m):
            out[p(u)] |= 1 << p(v)
    moved = Orientation(g, out)
    assert is_transitive(g, moved) == is_transitive(g, o)
    return moved


def orientation_stabilizer(g: Graph, o: Orientation,
                           max_n: int = DEFAULT_VERTEX_BOUND) -> PermutationGroup:
    """Automorphisms of g fixing o; the symmetry group of the poset."""
    if not is_transitive(g, o):
        raise InputError("orientation is not transitive")
    aut = brute_force_aut(g, max_n=max_n)
    fixed = [p for p in aut.elements() if act(p, o) == o]
    return PermutationGroup.from_elements(g.n, fixed)
