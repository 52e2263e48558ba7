"""Exhaustive-search oracles: automorphisms, isomorphism, canonical forms,
and enumeration of all graphs up to isomorphism.

These are the ground truth the structural algorithms are checked against.
Searches prune by iterated degree refinement, which removes candidates an
exhaustive search would reject anyway; correctness is unaffected. Every
oracle refuses inputs beyond its configurable size bound.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

from .errors import OracleBoundError, InputError
from .graphs import Graph
from .perms import Permutation, PermutationGroup

DEFAULT_VERTEX_BOUND = 10


def _check_bound(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise OracleBoundError(
            f"{what} refuses n={n}: exceeds oracle bound max_n={max_n}")


# -- modules by pairwise closure -----------------------------------------

def _module_closure(g: Graph, u: int, v: int) -> int:
    """Bitmask of the smallest module containing {u, v}: any vertex that
    distinguishes two members must be absorbed."""
    mask = 1 << u | 1 << v
    changed = True
    while changed:
        changed = False
        for w in range(g.n):
            if mask >> w & 1:
                continue
            inter = g.adjacency_mask(w) & mask
            if inter != 0 and inter != mask:
                mask |= 1 << w
                changed = True
    return mask


def pairwise_maximal_modules(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Maximal modules other than V itself, for a graph whose complement
    and self are both connected, from the closure of every vertex pair.
    Overlapping closures merge into modules, and in this case a merge can
    never reach all of V. Blocks are ordered by (size, contents). Takes
    about n^4 steps; intended for small n only."""
    if not g.is_connected() or not g.complement().is_connected():
        raise InputError("graph and complement must both be connected")
    full = (1 << g.n) - 1
    merged: list[int] = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            group = _module_closure(g, u, v)
            if group == full:
                continue
            keep = []
            for other in merged:
                if group & other:
                    group |= other
                else:
                    keep.append(other)
            assert group != full, "overlapping proper modules covered V"
            keep.append(group)
            merged = keep
    covered = 0
    for m in merged:
        covered |= m
    merged.extend(1 << v for v in range(g.n) if not covered >> v & 1)
    blocks = [tuple(v for v in range(g.n) if m >> v & 1) for m in merged]
    return tuple(sorted(blocks, key=lambda b: (len(b), b)))


# -- iterated degree refinement ------------------------------------------

def refine_colors(g: Graph, init: tuple[int, ...] | None = None
                  ) -> tuple[int, ...]:
    """Stable coloring from iterated neighborhood refinement. Colors are
    dense ranks of (old color, sorted neighbor colors) signatures, so two
    isomorphic graphs always refine to the same color sequence."""
    if init is not None:
        return _refine(g, tuple(init))
    # kept on the graph, as its tree is, so it lives exactly as long
    if g._colors is None:
        g._colors = _refine(g, (0,) * g.n)
    return g._colors


def _refine(g: Graph, colors: tuple[int, ...]) -> tuple[int, ...]:
    for _, colors in _refine_rounds(g, colors):
        pass
    return colors


def _refine_rounds(g: Graph, colors: tuple[int, ...]):
    """Per refinement round, the vertex signatures and the colors they
    give; stops after the first round that splits no class."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    for _ in range(g.n):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
                for v in range(g.n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranking[s] for s in sigs)
        yield sigs, new
        if new == colors:
            return
        colors = new


def _color_classes(colors: tuple[int, ...]) -> list[list[int]]:
    by: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    return [by[c] for c in sorted(by)]


# -- isomorphism and automorphism search ---------------------------------

def _search_maps(g1: Graph, g2: Graph,
                 colors1: tuple[int, ...] | None,
                 colors2: tuple[int, ...] | None,
                 find_all: bool) -> list[tuple[int, ...]]:
    """Backtracking search for color-preserving isomorphisms g1 -> g2."""
    n = g1.n
    if n != g2.n or g1.num_edges != g2.num_edges:
        return []
    c1 = refine_colors(g1, colors1)
    c2 = refine_colors(g2, colors2)
    if sorted(c1) != sorted(c2):
        return []
    cands = [[u for u in range(n) if c2[u] == c1[v]] for v in range(n)]
    # map most constrained vertices first, preferring ones with an
    # already-mapped neighbor so adjacency prunes close to the root
    # (otherwise regular graphs with scattered numbering branch freely)
    order: list[int] = []
    pending = set(range(n))
    anchored: set[int] = set()
    while pending:
        pool = (anchored & pending) or pending
        v = min(pool, key=lambda v: (len(cands[v]), v))
        order.append(v)
        pending.discard(v)
        anchored.update(g1.neighbors(v))
    img = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def extend(i: int) -> bool:
        if i == n:
            found.append(tuple(img))
            return not find_all
        v = order[i]
        mv = g1.adjacency_mask(v)
        for u in cands[v]:
            if used[u]:
                continue
            mu = g2.adjacency_mask(u)
            ok = True
            for j in range(i):
                w = order[j]
                if bool(mv >> w & 1) != bool(mu >> img[w] & 1):
                    ok = False
                    break
            if ok:
                img[v] = u
                used[u] = True
                if extend(i + 1):
                    return True
                used[u] = False
                img[v] = -1
        return False

    extend(0)
    return found


def brute_force_iso(g1: Graph, g2: Graph, max_n: int = DEFAULT_VERTEX_BOUND,
                    colors1: tuple[int, ...] | None = None,
                    colors2: tuple[int, ...] | None = None
                    ) -> Permutation | None:
    """An isomorphism witness g1 -> g2, or None. Optional vertex colors
    constrain the search to color-preserving maps."""
    _check_bound(max(g1.n, g2.n), max_n, "brute_force_iso")
    maps = _search_maps(g1, g2, colors1, colors2, find_all=False)
    return Permutation(maps[0]) if maps else None


def brute_force_aut(g: Graph, max_n: int = DEFAULT_VERTEX_BOUND
                    ) -> PermutationGroup:
    """The full automorphism group, materialized; elements ordered by
    one-line notation."""
    _check_bound(g.n, max_n, "brute_force_aut")
    maps = _search_maps(g, g, None, None, find_all=True)
    els = [Permutation(m) for m in maps]
    return PermutationGroup.from_elements(g.n, els)


def are_isomorphic(g1: Graph, g2: Graph, max_n: int = DEFAULT_VERTEX_BOUND
                   ) -> bool:
    return brute_force_iso(g1, g2, max_n=max_n) is not None


def poset_automorphisms(n: int, arcs: frozenset[tuple[int, int]],
                        max_n: int = DEFAULT_VERTEX_BOUND
                        ) -> tuple[Permutation, ...]:
    """All permutations of 0..n-1 preserving a strict order relation
    exactly, by filtering all n! candidates. Independent of the graph
    automorphism machinery on purpose."""
    _check_bound(n, max_n, "poset_automorphisms")
    out = []
    for m in permutations(range(n)):
        if all(((m[x], m[y]) in arcs) for x, y in arcs):
            # arc count is preserved, so arc preservation implies exactness
            out.append(Permutation(m))
    return tuple(out)


# -- canonical labeling ---------------------------------------------------

def canonical_labeling(g: Graph, colors: tuple[int, ...] | None = None
                       ) -> tuple[str, tuple[int, ...]]:
    """Canonical key and a labeling realizing it.

    The key is identical for two graphs (with colors) iff they are
    color-isomorphic: candidates place refinement classes into fixed
    position blocks and the minimum adjacency encoding over candidates is
    taken. Returns (key, perm) with perm[v] = canonical position of v.
    """
    n = g.n
    base = tuple(colors) if colors is not None else (0,) * n
    final = refine_colors(g, base)
    classes = _color_classes(final)
    best_bits: int | None = None
    best_order: tuple[int, ...] | None = None
    for arrangement in product(*(permutations(c) for c in classes)):
        order: tuple[int, ...] = sum(arrangement, ())
        bits = 0
        for i in range(n):
            mi = g.adjacency_mask(order[i])
            for j in range(i + 1, n):
                bits = bits << 1 | (mi >> order[j] & 1)
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_order = order
    assert best_order is not None
    init_seq = tuple(base[v] for v in best_order)
    final_seq = tuple(final[v] for v in best_order)
    key = f"{n}|{init_seq}|{final_seq}|{best_bits:x}"
    perm = [0] * n
    for pos, v in enumerate(best_order):
        perm[v] = pos
    return key, tuple(perm)


def canonical_key(g: Graph, colors: tuple[int, ...] | None = None) -> str:
    return canonical_labeling(g, colors)[0]


# -- enumeration of all graphs up to isomorphism -------------------------

def _refinement_trace(g: Graph) -> tuple:
    """n, m and each refinement round's sorted vertex signatures: an
    isomorphism invariant, since colors are ranks of signatures."""
    return (g.n, g.num_edges) + tuple(
        tuple(sorted(sigs)) for sigs, _ in _refine_rounds(g, (0,) * g.n))


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, generated by extending
    the (n-1)-vertex list with every possible new-vertex neighborhood and
    discarding duplicates (refinement-trace buckets plus isomorphism checks).
    Deterministic order. Sizes follow 1, 2, 4, 11, 34, 156, 1044, 12346.
    """
    if n < 1:
        raise InputError("nonisomorphic_graphs needs n >= 1")
    if n == 1:
        return (Graph(1),)
    out: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    for g in nonisomorphic_graphs(n - 1):
        old_edges = g.edges
        for mask in range(1 << (n - 1)):
            edges = list(old_edges)
            edges.extend((v, n - 1) for v in range(n - 1) if mask >> v & 1)
            h = Graph(n, edges)
            key = _refinement_trace(h)
            bucket = buckets.setdefault(key, [])
            if any(_search_maps(h, other, None, None, False)
                   for other in bucket):
                continue
            bucket.append(h)
            out.append(h)
    return tuple(out)


def graphs_up_to(n: int) -> tuple[Graph, ...]:
    """All graphs with between 1 and n vertices, up to isomorphism."""
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(nonisomorphic_graphs(k))
    return tuple(out)
