"""Permutation graphs: two-order representations, pair actions, gadgets.

A permutation graph is simultaneously a comparability graph and the
complement of one.  Picking a transitive orientation O of the graph and
O-bar of the complement yields two linear orders, L1 = O + O-bar and
L2 = O + reversed(O-bar); vertices are adjacent exactly when the two
orders agree on them.  Drawing each vertex as a segment between its two
positions gives the classic two-line picture whose symmetries (axis
reflections, half-turn rotation) explain why a prime permutation graph
has automorphism group inside Z2 x Z2.

The closure gadgets near the end realize direct products, wreath
products with symmetric groups, and the rectangle semidirect product as
automorphism groups of concrete permutation graphs.  They substitute
their inputs into frozen spine graphs found by exhaustive sweep; the
discovery functions that produced the spines are kept alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources

from .errors import InputError, OracleBoundError
from .graphs import Graph, disjoint_union, substitute
from .modular import is_prime_graph, tree_of
from .oracles import DEFAULT_VERTEX_BOUND, brute_force_aut, nonisomorphic_graphs
from .orientations import (
    Orientation, act, count_orientations, is_comparability, is_transitive,
    prime_orientations, transitive_orientations,
)
from .perms import Permutation

DEFAULT_PAIR_BOUND = 20000


@dataclass(frozen=True)
class LinearOrderPair:
    """Two vertex sequences read as linear orders on the same set."""

    l1: tuple[int, ...]
    l2: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.l1)
        if sorted(self.l1) != list(range(n)) or sorted(self.l2) != list(range(n)):
            raise InputError("both orders must arrange the same vertex set")


@dataclass(frozen=True)
class OrientationPair:
    """A transitive orientation of a graph and one of its complement."""

    o: Orientation
    o_bar: Orientation

    def __post_init__(self) -> None:
        if self.o_bar.graph != self.o.graph.complement():
            raise InputError("second orientation must cover the complement")
        if not is_transitive(self.o.graph, self.o) or \
                not is_transitive(self.o_bar.graph, self.o_bar):
            raise InputError("both orientations must be transitive")


@dataclass(frozen=True)
class PrimeSymmetryClass:
    """Symmetry report for a prime permutation graph.

    subgroup is one of trivial, Z2-horizontal, Z2-vertical, Z2-rotation,
    Z2xZ2.  Size-2 orbit counts are keyed by the stabilizing involution's
    geometric label, or "free" when the stabilizer is trivial.
    """

    subgroup: str
    orbits_size_4: int
    orbits_size_2: tuple[tuple[str, int], ...]
    orbits_size_1: int


def is_permutation_graph(g: Graph) -> bool:
    """Both the graph and its complement admit transitive orientations."""
    return is_comparability(g) and is_comparability(g.complement())


def orientation_pairs(g: Graph, max_pairs: int = DEFAULT_PAIR_BOUND
                      ) -> tuple[OrientationPair, ...]:
    """Every (orientation, complement orientation) pair, in stream order."""
    t = tree_of(g)
    tc = tree_of(g.complement())
    total = count_orientations(t) * count_orientations(tc)
    if total > max_pairs:
        raise OracleBoundError(
            f"{total} orientation pairs exceeds max_pairs={max_pairs}")
    bars = list(transitive_orientations(g.complement()))
    return tuple(OrientationPair(o, ob)
                 for o in transitive_orientations(g) for ob in bars)


# -- the two-order representation -----------------------------------------

def _tournament_order(o: Orientation, other: Orientation) -> tuple[int, ...]:
    # an orientation and a complement orientation form a tournament; a
    # vertex's score (out-degree) is the popcount of its two out-masks, and
    # the scores are 0..n-1 exactly when the tournament is transitive
    # (Landau 1953), which is guaranteed: a violation is a bug, not bad input
    scores = [(a | b).bit_count() for a, b in zip(o.out, other.out)]
    n = len(scores)
    assert sorted(scores) == list(range(n)), "tournament scores not distinct"
    return tuple(sorted(range(n), key=lambda v: -scores[v]))


def build_representation(g: Graph, p: OrientationPair) -> LinearOrderPair:
    """Even's construction: L1 = O + O-bar, L2 = O + reversed(O-bar)."""
    if p.o.graph != g:
        raise InputError("pair does not belong to this graph")
    return LinearOrderPair(_tournament_order(p.o, p.o_bar),
                           _tournament_order(p.o, p.o_bar.reversed()))


def intersection_graph(pair: LinearOrderPair) -> Graph:
    """Vertices adjacent iff the two orders agree on their relative order."""
    n = len(pair.l1)
    pos1 = {v: i for i, v in enumerate(pair.l1)}
    pos2 = {v: i for i, v in enumerate(pair.l2)}
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (pos1[u] < pos1[v]) == (pos2[u] < pos2[v])]
    return Graph(n, edges)


def representation_to_json(pair: LinearOrderPair) -> str:
    return json.dumps({"l1": list(pair.l1), "l2": list(pair.l2)},
                      sort_keys=True)


def representation_svg(pair: LinearOrderPair, scale: int = 40) -> str:
    """Segment drawing: vertex v joins its position in L1 to that in L2."""
    n = len(pair.l1)
    pos1 = {v: i for i, v in enumerate(pair.l1)}
    pos2 = {v: i for i, v in enumerate(pair.l2)}
    width = scale * (n + 1)
    top, bottom = scale, 3 * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{4 * scale}" '
             f'viewBox="0 0 {width} {4 * scale}">']
    for v in range(n):
        x1 = scale * (pos1[v] + 1)
        x2 = scale * (pos2[v] + 1)
        parts.append(f'<line x1="{x1}" y1="{top}" x2="{x2}" y2="{bottom}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x1}" y="{top - 8}" '
                     f'text-anchor="middle" font-size="12">{v}</text>')
        parts.append(f'<text x="{x2}" y="{bottom + 16}" '
                     f'text-anchor="middle" font-size="12">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# -- the action on orientation pairs --------------------------------------

def act_pair(p: Permutation, pair: OrientationPair) -> OrientationPair:
    return OrientationPair(act(p, pair.o), act(p, pair.o_bar))


def pair_action_orbits(g: Graph, max_n: int = DEFAULT_VERTEX_BOUND,
                       max_pairs: int = DEFAULT_PAIR_BOUND
                       ) -> tuple[tuple[OrientationPair, ...], ...]:
    """Orbits of the automorphism action on all orientation pairs.

    The action is semiregular: no nonidentity automorphism fixes a pair,
    so every orbit has exactly |Aut| members (asserted).
    """
    pairs = orientation_pairs(g, max_pairs)
    index = {(p.o, p.o_bar): i for i, p in enumerate(pairs)}
    # the action is componentwise: move each orientation once per generator
    moved = cache(act)
    aut = brute_force_aut(g, max_n=max_n)
    gens = list(aut.generators) or [Permutation.identity(g.n)]
    seen = [False] * len(pairs)
    orbits = []
    for start, pair in enumerate(pairs):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        frontier = [pair]
        while frontier:
            current = frontier.pop()
            for s in gens:
                j = index[moved(s, current.o), moved(s, current.o_bar)]
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
                    frontier.append(pairs[j])
        members.sort()
        orbits.append(tuple(pairs[j] for j in members))
    size = aut.order()
    assert all(len(orbit) == size for orbit in orbits), \
        "pair action is not semiregular"
    return tuple(orbits)


# -- symmetry classes of prime graphs -------------------------------------

def _involution_label(sigma: Permutation, o0: Orientation,
                      ob0: Orientation) -> str:
    """Geometric reading of an involution from its effect on (O, O-bar).

    Reversing only the complement orientation mirrors the segment picture
    across the horizontal axis; reversing both mirrors across the
    vertical axis; reversing only O turns the picture by a half-turn.
    The reading is taken against one fixed pair, but which parts get
    reversed does not depend on that choice.
    """
    reverses_o = act(sigma, o0) != o0
    reverses_ob = act(sigma, ob0) != ob0
    assert reverses_o or reverses_ob, "nonidentity element fixed a pair"
    if not reverses_o:
        return "horizontal"
    if reverses_ob:
        return "vertical"
    return "rotation"


def prime_symmetry_class(g: Graph,
                         max_n: int = DEFAULT_VERTEX_BOUND) -> PrimeSymmetryClass:
    """Classify the automorphism group of a prime permutation graph."""
    if not is_prime_graph(g):
        raise InputError("graph is not prime")
    if not is_permutation_graph(g):
        raise InputError("graph is not a permutation graph")
    aut = brute_force_aut(g, max_n=max_n)
    order = aut.order()
    assert order in (1, 2, 4) and aut.exponent_divides_two(), \
        "prime permutation graph symmetry exceeds Z2 x Z2"
    if order == 1:
        return PrimeSymmetryClass("trivial", 0, (), g.n)
    o0 = prime_orientations(g)[0]
    ob0 = prime_orientations(g.complement())[0]
    involutions = [p for p in aut.elements() if not p.is_identity()]
    labels = {p: _involution_label(p, o0, ob0) for p in involutions}
    size4 = size1 = 0
    two_counts: dict[str, int] = {}
    for orbit in aut.orbits():
        if len(orbit) == 4:
            size4 += 1
        elif len(orbit) == 1:
            size1 += 1
        else:
            fixers = [p for p in involutions if p(orbit[0]) == orbit[0]]
            if not fixers:
                label = "free"
            else:
                assert len(fixers) == 1
                label = labels[fixers[0]]
                # a vertical reflection moves every segment off the axis,
                # so it cannot pin a size-2 orbit
                assert label != "vertical", \
                    "size-2 orbit stabilized by the vertical reflection"
            two_counts[label] = two_counts.get(label, 0) + 1
    if order == 2:
        subgroup = f"Z2-{labels[involutions[0]]}"
    else:
        subgroup = "Z2xZ2"
    return PrimeSymmetryClass(subgroup, size4,
                              tuple(sorted(two_counts.items())), size1)


# -- closure gadgets ------------------------------------------------------

@lru_cache(maxsize=None)
def _spine_data() -> dict:
    text = resources.files("comparability").joinpath(
        "data/spines.json").read_text()
    return json.loads(text)


def product_spine() -> tuple[Graph, tuple[int, int]]:
    """The frozen asymmetric spine and its two attachment vertices."""
    d = _spine_data()["product_spine"]
    return Graph(d["n"], [tuple(e) for e in d["edges"]]), tuple(d["attach"])


def rectangle_spine() -> tuple[Graph, tuple[int, ...], tuple[int, ...],
                               tuple[int, ...]]:
    """The frozen Klein-four spine and its three substitution orbits."""
    d = _spine_data()["rectangle_spine"]
    return (Graph(d["n"], [tuple(e) for e in d["edges"]]),
            tuple(d["orbit4"]), tuple(d["orbit2_a"]), tuple(d["orbit2_b"]))


def _require_permutation(*graphs: Graph) -> None:
    for g in graphs:
        if not is_permutation_graph(g):
            raise InputError("gadget inputs must be permutation graphs")


def gadget_product(x1: Graph, x2: Graph) -> Graph:
    """A permutation graph whose group is Aut(x1) x Aut(x2).

    Substitutes the inputs into two vertices of an asymmetric prime
    spine; the spine contributes no symmetry of its own.
    """
    _require_permutation(x1, x2)
    spine, (a, b) = product_spine()
    out, _ = substitute(spine, {a: x1, b: x2})
    return out


def gadget_wreath(y: Graph, k: int) -> Graph:
    """k disjoint copies of a connected graph: Aut(y) wr S_k."""
    if k < 1:
        raise InputError("need at least one copy")
    if not y.is_connected():
        raise InputError("the repeated graph must be connected")
    _require_permutation(y)
    return disjoint_union([y] * k)


def gadget_rectangle(x1: Graph, x2: Graph, x3: Graph) -> Graph:
    """A permutation graph with group (Aut(x1)^4 x Aut(x2)^2 x Aut(x3)^2)
    extended by Z2 x Z2.

    x1 fills the spine's size-4 orbit, x2 and x3 the two size-2 orbits;
    substituting identically inside each orbit keeps the full rectangle
    symmetry alive and nothing else appears.
    """
    _require_permutation(x1, x2, x3)
    spine, four, two_a, two_b = rectangle_spine()
    mapping = {v: x1 for v in four}
    mapping.update({v: x2 for v in two_a})
    mapping.update({v: x3 for v in two_b})
    out, _ = substitute(spine, mapping)
    return out


# -- spine discovery ------------------------------------------------------

def find_asymmetric_spine(max_n: int = 6) -> Graph:
    """First connected prime permutation graph with trivial group."""
    for n in range(4, max_n + 1):
        for g in nonisomorphic_graphs(n):
            if g.is_connected() and is_prime_graph(g) \
                    and is_permutation_graph(g) \
                    and brute_force_aut(g).order() == 1:
                return g
    raise InputError(f"no asymmetric spine up to {max_n} vertices")


def find_rectangle_spine(n: int = 8) -> tuple[Graph, tuple[int, ...],
                                              tuple[int, ...], tuple[int, ...]]:
    """First prime permutation graph with full rectangle symmetry, vertex
    orbits 4+2+2, and distinctly stabilized size-2 orbits."""
    for g in nonisomorphic_graphs(n):
        if not is_prime_graph(g) or not is_permutation_graph(g):
            continue
        aut = brute_force_aut(g)
        if aut.order() != 4 or not aut.exponent_divides_two():
            continue
        orbits = aut.orbits()
        if sorted(len(o) for o in orbits) != [2, 2, 4]:
            continue
        report = prime_symmetry_class(g)
        if len(report.orbits_size_2) != 2:
            continue
        four = next(o for o in orbits if len(o) == 4)
        two_a, two_b = [o for o in orbits if len(o) == 2]
        return g, four, two_a, two_b
    raise InputError(f"no rectangle spine on {n} vertices")
