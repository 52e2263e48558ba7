"""The dimension-4 gadget and the isomorphism reduction built on it.

Given a graph X, the gadget replaces every edge x_i x_j by a length-4
path p_i - q_ik - r_k - q_jk - p_j, so the p-vertices copy V(X), the
r-vertices copy E(X), and the q-vertices copy the incidences.  When X is
connected bipartite, four explicit linear orders intersect in exactly
the gadget's edge relation, which bounds its poset dimension by 4.

Every q and r has degree 2 while some p does not (unless X was a
cycle), so the three classes can be recovered from distances alone;
that makes Aut(gadget) a copy of Aut(X) and turns the construction into
an isomorphism reduction: route X through its vertex-edge incidence
graph first and the composite subdivides each edge of X into a path of
length 8, landing in dimension at most 4 because incidence graphs are
bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from .graphs import Graph, is_cycle_graph
from .oracles import DEFAULT_VERTEX_BOUND, brute_force_aut
from .perms import Permutation


@dataclass(frozen=True)
class GadgetGraph:
    """A gadget together with its vertex classes and incidence layout.

    incidence lists (q vertex, vertex index i, edge index k) triples;
    p_vertices[i] and r_vertices[k] are the endpoints of q's two edges.
    """

    graph: Graph
    p_vertices: tuple[int, ...]
    q_vertices: tuple[int, ...]
    r_vertices: tuple[int, ...]
    incidence: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        p, q, r = set(self.p_vertices), set(self.q_vertices), set(self.r_vertices)
        if len(p) + len(q) + len(r) != self.graph.n or \
                p | q | r != set(range(self.graph.n)):
            raise InputError("p, q, r must partition the vertices")
        if sorted(t[0] for t in self.incidence) != sorted(q):
            raise InputError("incidence must list each q vertex once")
        if len(q) != 2 * len(r):
            raise InputError("need exactly two q vertices per r vertex")
        expected = set()
        ends: dict[int, set[int]] = {k: set() for k in range(len(r))}
        for qv, i, k in self.incidence:
            if not 0 <= i < len(self.p_vertices) or not 0 <= k < len(r):
                raise InputError(f"incidence ({qv}, {i}, {k}) out of range")
            expected.add(tuple(sorted((self.p_vertices[i], qv))))
            expected.add(tuple(sorted((qv, self.r_vertices[k]))))
            ends[k].add(i)
        if any(len(e) != 2 for e in ends.values()):
            raise InputError("each r vertex needs two distinct p endpoints")
        if expected != set(self.graph.edges):
            raise InputError("graph edges do not match the incidence layout")

    @property
    def n(self) -> int:
        return len(self.p_vertices)

    @property
    def m(self) -> int:
        return len(self.r_vertices)

    def q_vertex(self, i: int, k: int) -> int:
        for qv, i2, k2 in self.incidence:
            if (i2, k2) == (i, k):
                return qv
        raise InputError(f"no incidence ({i}, {k})")

    def x_edge(self, k: int) -> tuple[int, int]:
        """Endpoint indices of the original edge the k-th r stands for."""
        a, b = sorted(i for _, i, k2 in self.incidence if k2 == k)
        return a, b

    def original_graph(self) -> Graph:
        return Graph(self.n, [self.x_edge(k) for k in range(self.m)])


@dataclass(frozen=True)
class ChainSet:
    """Four linear orders over the same gadget vertex set."""

    chains: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.chains) != 4:
            raise InputError("need exactly four chains")
        base = sorted(self.chains[0])
        for c in self.chains:
            if sorted(c) != base:
                raise InputError("chains must order the same vertex set")
        if base != list(range(len(base))):
            raise InputError("chains must cover vertices 0..n-1")

    def comparable_pairs(self) -> frozenset[tuple[int, int]]:
        """Pairs ordered the same way in all four chains."""
        pos = [{v: i for i, v in enumerate(c)} for c in self.chains]
        n = len(self.chains[0])
        return frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n)
            if len({p[u] < p[v] for p in pos}) == 1)


@dataclass(frozen=True)
class ChainCheckReport:
    """Mismatches between chain comparability and gadget edges, split by
    vertex class: "QR" within Q + R, "P" within P, "P-QR" across."""

    ok: bool
    missing: tuple[tuple[str, int, int], ...]
    extra: tuple[tuple[str, int, int], ...]


def incidence_graph(x: Graph) -> Graph:
    """Bipartite graph joining each vertex of x to its incident edges.

    Edge k becomes vertex x.n + k, with edges indexed lexicographically.
    """
    if not x.is_connected():
        raise InputError("incidence graph requires a connected input")
    edges = []
    for k, (u, v) in enumerate(x.edges):
        edges.append((u, x.n + k))
        edges.append((v, x.n + k))
    return Graph(x.n + x.num_edges, edges)


def construct_cx(x: Graph) -> GadgetGraph:
    """Replace each edge of x by a length-4 path through fresh q, r, q."""
    n, m = x.n, x.num_edges
    edges = []
    incidence = []
    for k, (u, v) in enumerate(x.edges):
        qu, qv = n + m + 2 * k, n + m + 2 * k + 1
        rk = n + k
        incidence.append((qu, u, k))
        incidence.append((qv, v, k))
        edges.extend([(u, qu), (qu, rk), (v, qv), (qv, rk)])
    return GadgetGraph(Graph(n + 3 * m, edges),
                       tuple(range(n)),
                       tuple(range(n + m, n + 3 * m)),
                       tuple(range(n, n + m)),
                       tuple(incidence))


# -- the four chains ------------------------------------------------------

def four_chains(cx: GadgetGraph,
                bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
                = None) -> ChainSet:
    """The four orders whose intersection is exactly the gadget's edges.

    Each chain lists one side's p-vertices, then that side's r_k q_{ik}
    blocks by edge index, then the other side's incidence strings
    p_j q_{jk} q_{jk'}...  Ascending and descending passes over the
    blocks cancel the unwanted comparabilities between them.
    """
    x = cx.original_graph()
    if not x.is_connected():
        raise InputError("chains require a connected original graph")
    if bipartition is None:
        bipartition = x.bipartition()
        if bipartition is None:
            raise InputError("original graph is not bipartite")
    side_a, side_b = bipartition
    if sorted(list(side_a) + list(side_b)) != list(range(x.n)):
        raise InputError("parts must partition the vertex set")
    in_a = set(side_a)
    for u, v in x.edges:
        if (u in in_a) == (v in in_a):
            raise InputError("every edge must cross the bipartition")

    p, r = cx.p_vertices, cx.r_vertices
    q_at = {(i, k): qv for qv, i, k in cx.incidence}
    edges_at = [sorted(k for (i, k) in q_at if i == v) for v in range(x.n)]
    for k in range(cx.m):
        a, b = cx.x_edge(k)
        assert (a in in_a) != (b in in_a), "r vertex not between the parts"

    def incidence_string(i: int) -> list[int]:
        return [p[i]] + [q_at[i, k] for k in edges_at[i]]

    def chain(first: set[int], up_blocks: bool, up_strings: bool
              ) -> tuple[int, ...]:
        out = [p[i] for i in range(x.n) if i in first]
        blocks = []
        for k in range(cx.m):
            i = next(i for i in cx.x_edge(k) if i in first)
            blocks.append([r[k], q_at[i, k]])
        for b in blocks if up_blocks else reversed(blocks):
            out.extend(b)
        rest = [i for i in range(x.n) if i not in first]
        for i in rest if up_strings else reversed(rest):
            out.extend(incidence_string(i))
        return tuple(out)

    in_b = set(range(x.n)) - in_a
    return ChainSet((chain(in_a, True, True), chain(in_a, False, False),
                     chain(in_b, True, True), chain(in_b, False, False)))


def _pair_category(cx: GadgetGraph, u: int, v: int) -> str:
    pset = set(cx.p_vertices)
    inside = (u in pset) + (v in pset)
    return ("QR", "P-QR", "P")[inside]


def chain_check_report(cs: ChainSet, cx: GadgetGraph) -> ChainCheckReport:
    """Compare the chains' comparability relation with the gadget edges."""
    if sorted(cs.chains[0]) != list(range(cx.graph.n)):
        raise InputError("chains do not cover the gadget's vertices")
    comparable = cs.comparable_pairs()
    edge_set = set(cx.graph.edges)
    missing = tuple(sorted((_pair_category(cx, u, v), u, v)
                           for u, v in edge_set - comparable))
    extra = tuple(sorted((_pair_category(cx, u, v), u, v)
                         for u, v in comparable - edge_set))
    return ChainCheckReport(not missing and not extra, missing, extra)


def verify_chain_intersection(cs: ChainSet, cx: GadgetGraph) -> bool:
    return chain_check_report(cs, cx).ok


# -- structure recovery and automorphisms ---------------------------------

def recover_pqr(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...],
                                   tuple[int, ...]]:
    """Recover the three vertex classes of an unlabeled gadget image.

    Starts from any vertex of degree other than 2 (such a vertex must be
    a p) and takes p-vertices as those at distance divisible by 4,
    q-vertices as their neighbors, r-vertices as the rest.  The classes
    are accepted only if they lay out g's edges exactly as a gadget does
    (checked by ``GadgetGraph``) over a simple original graph; then g is
    the gadget of that graph under the recovered labels.
    """
    if not g.is_connected():
        raise DomainError("gadgets of connected graphs are connected")
    anchor = next((v for v in range(g.n) if g.degree(v) != 2), None)
    if anchor is None:
        raise DomainError("all degrees are 2: a cycle's gadget "
                          "cannot be told apart from a plain cycle")
    dist = g.distances_from(anchor)
    pset = {v for v in range(g.n) if dist[v] % 4 == 0}
    qset = {u for v in pset for u in g.neighbors(v)}
    rset = set(range(g.n)) - pset - qset
    if pset & qset:
        raise DomainError("vertex classes overlap: not a gadget")
    p = tuple(sorted(pset))
    r = tuple(sorted(rset))
    p_index = {v: i for i, v in enumerate(p)}
    r_index = {v: k for k, v in enumerate(r)}
    incidence = []
    for qv in sorted(qset):
        nbrs = g.neighbors(qv)
        if len(nbrs) != 2:
            raise DomainError(f"q vertex {qv} has degree {len(nbrs)}")
        pn = [v for v in nbrs if v in pset]
        rn = [v for v in nbrs if v in rset]
        if len(pn) != 1 or len(rn) != 1:
            raise DomainError(f"q vertex {qv} not between a p and an r")
        incidence.append((qv, p_index[pn[0]], r_index[rn[0]]))
    try:
        witness = GadgetGraph(g, p, tuple(sorted(qset)), r, tuple(incidence))
        witness.original_graph()   # rejects two r vertices on one p pair
    except InputError as exc:
        raise DomainError(f"not a gadget: {exc}") from exc
    return p, tuple(sorted(qset)), r


def aut_preservation_check(x: Graph,
                           max_n: int = DEFAULT_VERTEX_BOUND) -> bool:
    """Check that the gadget's symmetries are exactly the symmetries of x.

    The gadget automorphisms that respect the p/q/r classes restrict to
    p-index permutations; that restriction must hit Aut(x) bijectively.
    Unless x is a cycle, every gadget automorphism respects the classes
    (they are distance-recoverable), so the groups agree outright.
    """
    if not x.is_connected():
        raise InputError("input must be connected")
    ax = set(brute_force_aut(x, max_n=max_n).elements())
    cx = construct_cx(x)
    ac = brute_force_aut(cx.graph, max_n=cx.graph.n).elements()
    pset = set(cx.p_vertices)
    preserving = [s for s in ac if {s(v) for v in pset} == pset]
    restricted = {Permutation(tuple(s(i) for i in range(x.n)))
                  for s in preserving}
    if len(restricted) != len(preserving) or restricted != ax:
        return False
    if not is_cycle_graph(x) and len(preserving) != len(ac):
        return False
    return True


def gi_reduction(x1: Graph, x2: Graph) -> tuple[Graph, Graph]:
    """Two graphs whose isomorphism question matches that of x1 and x2.

    Routes each input through its incidence graph before the gadget, so
    the output is the input with every edge subdivided into a length-8
    path; incidence graphs are bipartite, hence both outputs have poset
    dimension at most 4.  Cycles are accepted: their outputs are plain
    longer cycles, which still compare correctly against each other.
    """
    for x in (x1, x2):
        if not x.is_connected():
            raise InputError("reduction inputs must be connected")
    return (construct_cx(incidence_graph(x1)).graph,
            construct_cx(incidence_graph(x2)).graph)


# -- output formats -------------------------------------------------------

def chains_to_text(cs: ChainSet) -> str:
    """Four lines of whitespace-separated vertex sequences."""
    return "\n".join(" ".join(str(v) for v in c) for c in cs.chains) + "\n"


def gadget_to_dot(cx: GadgetGraph, name: str = "G") -> str:
    """DOT drawing with the p/q/r classes color-coded."""
    fill = {}
    for v in cx.p_vertices:
        fill[v] = "lightblue"
    for v in cx.q_vertices:
        fill[v] = "lightgray"
    for v in cx.r_vertices:
        fill[v] = "lightpink"
    lines = [f"graph {name} {{", "  node [style=filled];"]
    for v in range(cx.graph.n):
        lines.append(f'  {v} [fillcolor={fill[v]}];')
    for u, v in cx.graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
