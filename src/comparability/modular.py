"""Modular decomposition and the marker tree that encodes it.

One decomposition step partitions the vertex set into modules:

* disconnected graph          -> connected components (quotient edgeless)
* disconnected complement     -> co-components (quotient complete)
* both connected              -> inclusion-maximal proper modules
                                 (quotient prime)
* prime or degenerate graph   -> stop

Recursing yields the modular tree. Each composite step becomes an inner
node whose members are fresh quotient markers m_1..m_k; each child subtree
is entered through an attachment marker m'_i adjacent to exactly the root
node of that subtree, and a directed tree edge m_i -> m'_i links the two.
Leaf nodes hold original vertices; inner nodes hold only markers. The
original adjacency is recoverable from alternating normal/tree-edge paths
(see ``alternating_path_adjacent``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import json
from typing import Iterable, Sequence

from .errors import InputError
from .graphs import Edge, Graph, iter_bits

STOP = "stop"
MAXIMAL_MODULES = "maximal_modules"
COMPONENTS = "components"
COCOMPONENTS = "cocomponents"

PRIME = "prime"
COMPLETE = "complete"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class ModularPartition:
    """Result of one decomposition step: a kind tag plus the blocks,
    each block sorted, blocks ordered by (size, contents)."""
    kind: str
    blocks: tuple[tuple[int, ...], ...]


def _mask_to_block(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _block_order(mask: int) -> tuple[int, int]:
    # disjoint blocks: (size, lowest vertex) orders them as (size, contents)
    return mask.bit_count(), mask & -mask


def _components(adj: Sequence[int], vs: int, co: bool) -> list[int]:
    """Connected components of the subgraph induced on the vertex set
    `vs`, or of its complement when `co` is set, by breadth-first search
    over whole frontiers: each vertex enters one frontier once."""
    comps = []
    rest = vs
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            if co:
                # complement neighbours of the frontier: vs minus the
                # vertices adjacent to every frontier vertex
                common = vs
                for u in iter_bits(frontier):
                    common &= adj[u]
                frontier = vs & ~common & ~comp
            else:
                reach = 0
                for u in iter_bits(frontier):
                    reach |= adj[u]
                frontier = reach & vs & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _avoiding_modules(adj: Sequence[int], vs: int, v: int) -> list[int]:
    """The maximal modules of G[vs] that do not contain v; they partition
    vs minus v.

    Partition refinement from {N(v), non-N(v)}: a vertex w splits every
    part outside its own into the vertices it sees and those it does not.
    Each vertex acts once, and again whenever its own part splits, since
    only then can it split a part it could not split before; touched
    parts are found through the vertex -> part index, not by a scan.
    """
    rest = vs & ~(1 << v)
    near = adj[v] & rest
    parts = [p for p in (near, rest & ~near) if p]
    part_of = {}
    for i, p in enumerate(parts):
        for u in iter_bits(p):
            part_of[u] = i
    pending = rest
    while pending:
        low = pending & -pending
        pending ^= low
        w = low.bit_length() - 1
        nw = adj[w]
        touch = nw & rest & ~parts[part_of[w]]
        while touch:
            i = part_of[(touch & -touch).bit_length() - 1]
            part = parts[i]
            touch &= ~part
            inside = part & nw
            if inside == part:
                continue
            outside = part ^ inside
            if inside.bit_count() <= outside.bit_count():
                small, parts[i] = inside, outside
            else:
                small, parts[i] = outside, inside
            j = len(parts)
            parts.append(small)
            for u in iter_bits(small):
                part_of[u] = j
            pending |= part
    return parts


def _grow_module(adj: Sequence[int], vs: int, module: int, r: int,
                 new: int) -> int:
    """Smallest module of G[vs] containing the module `module` (which
    holds r) and the vertices `new`. A vertex outside splits the set iff
    it tells some member from r, so each member is examined once."""
    mask = module | new
    ar = adj[r]
    todo = new
    while todo:
        low = todo & -todo
        todo ^= low
        add = (adj[low.bit_length() - 1] ^ ar) & vs & ~mask
        if add:
            mask |= add
            if mask == vs:
                break
            todo |= add
    return mask


def _maximal_proper_modules(adj: Sequence[int], vs: int) -> list[int]:
    """Maximal modules other than vs itself, for a vertex set on which
    the graph and its complement are both connected. They partition vs.

    Pivot on the lowest vertex v. Every maximal module avoiding v is
    either inside v's maximal module Mv or is itself maximal; it lies in
    Mv exactly when the smallest module holding it and Mv's part found so
    far stays proper (otherwise that module meets two maximal modules,
    and over a prime quotient that forces all of vs).
    """
    v = (vs & -vs).bit_length() - 1
    parts = _avoiding_modules(adj, vs, v)
    mv = 1 << v
    for part in parts:
        if part & ~mv:
            grown = _grow_module(adj, vs, mv, v, part & ~mv)
            if grown != vs:
                mv = grown
    return [mv] + [p for p in parts if not p & mv]


def _step(adj: Sequence[int], vs: int) -> tuple[str, list[int]]:
    """One Gallai step on the vertex set `vs` of the graph with adjacency
    masks `adj`; STOP carries no blocks."""
    if vs & (vs - 1) == 0:
        return STOP, []
    edgeless = complete = True
    for u in iter_bits(vs):
        nu = adj[u] & vs
        edgeless = edgeless and not nu
        complete = complete and nu == vs ^ (1 << u)
        if not (edgeless or complete):
            break
    if edgeless or complete:
        return STOP, []
    comps = _components(adj, vs, co=False)
    if len(comps) > 1:
        return COMPONENTS, comps
    comps = _components(adj, vs, co=True)
    if len(comps) > 1:
        return COCOMPONENTS, comps
    blocks = _maximal_proper_modules(adj, vs)
    if len(blocks) == vs.bit_count():
        return STOP, []   # prime: every maximal module is a singleton
    return MAXIMAL_MODULES, blocks


def decomposition_step(g: Graph) -> ModularPartition:
    """Single Gallai step; see the module docstring for the case split."""
    if g.n == 0:
        raise InputError("decomposition_step needs at least one vertex")
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    kind, masks = _step(adj, (1 << g.n) - 1)
    if kind == STOP:
        return ModularPartition(STOP, tuple((v,) for v in range(g.n)))
    masks.sort(key=_block_order)
    return ModularPartition(kind, tuple(map(_mask_to_block, masks)))


def quotient(g: Graph, blocks: tuple[tuple[int, ...], ...]) -> Graph:
    """Quotient graph with one vertex per block, in block order."""
    from .graphs import is_module
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise InputError("empty block in partition")
        if not is_module(g, b):
            raise InputError(f"block {b} is not a module")
        if seen & set(b):
            raise InputError(f"block {b} overlaps another block")
        seen |= set(b)
    if seen != set(range(g.n)):
        raise InputError("blocks do not cover the vertex set")
    k = len(blocks)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)
             if g.has_edge(blocks[i][0], blocks[j][0])]
    return Graph(k, edges)


# -- the tree ------------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    id: int
    kind: str                        # prime | complete | independent
    is_leaf: bool
    members: tuple[int, ...]         # original vertices (leaf) or markers
    children: tuple[int, ...]        # child node ids, aligned with members
    attach_markers: tuple[int, ...]  # m'_i, aligned with children
    vertices_under: tuple[int, ...]  # original vertices below this node


@dataclass(frozen=True)
class ModularTree:
    n: int                     # original vertex count; markers start at n
    total_vertices: int
    root: int
    nodes: tuple[TreeNode, ...]
    normal_edges: frozenset[Edge]
    tree_edges: frozenset[tuple[int, int]]   # directed (m_i, m'_i)
    marker_origin: tuple[tuple[int, int], ...]  # (marker id, node id)
    # per vertex or marker id: the original vertices it stands for, as a mask
    block_masks: tuple[int, ...]
    # node id -> the node's two transitive orientations, filled lazily by
    # the orientations module; derived from the fields, so not compared
    prime_plans: dict | None = field(default=None, init=False, compare=False,
                                     repr=False)

    def is_marker(self, v: int) -> bool:
        return v >= self.n

    @cached_property
    def local_edges(self) -> tuple[tuple[Edge, ...], ...]:
        """Per node id, the normal edges joining two of its members. The
        other normal edges join an attachment marker, which belongs to no
        node, to the members of its child."""
        owner = {v: node.id for node in self.nodes for v in node.members}
        local: list[list[Edge]] = [[] for _ in self.nodes]
        for u, v in self.normal_edges:
            i = owner.get(u)
            if i is not None and owner.get(v) == i:
                local[i].append((u, v))
        return tuple(map(tuple, local))

    def node_graph(self, node_id: int) -> Graph:
        """Graph on the node's members, relabeled by member position."""
        pos = {v: i for i, v in enumerate(self.nodes[node_id].members)}
        return Graph(len(pos), [(pos[u], pos[v])
                                for u, v in self.local_edges[node_id]])

    @cached_property
    def choice_slots(self) -> tuple[tuple[int, ...],
                                    tuple[tuple[int, tuple[int, ...]], ...]]:
        """The nodes whose orientation is a free choice: the ids of prime
        nodes, and (id, members) of complete nodes with two or more
        members."""
        prime_ids = []
        complete_slots = []
        for node in self.nodes:
            if node.kind == PRIME:
                prime_ids.append(node.id)
            elif node.kind == COMPLETE and len(node.members) >= 2:
                complete_slots.append((node.id, node.members))
        return tuple(prime_ids), tuple(complete_slots)

    def out_masks(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Per original vertex, the heads of its arcs: a member pair (a, b)
        joins every vertex under a to every vertex under b. Heads are handed
        down from the members above a vertex, parents first (in id order)."""
        block = self.block_masks
        heads = [0] * self.total_vertices
        for a, b in pairs:
            heads[a] |= block[b]
        out = [0] * self.n
        above = [0] * len(self.nodes)
        for node in self.nodes:
            inherited = above[node.id]
            if node.is_leaf:
                for v in node.members:
                    out[v] = inherited | heads[v]
            else:
                for m, c in zip(node.members, node.children):
                    above[c] = inherited | heads[m]
        return tuple(out)

    @cached_property
    def _normal_adj(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.total_vertices)}
        for u, v in self.normal_edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def _tree_adj(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.total_vertices)}
        for u, v in self.tree_edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


_INNER_KIND = {MAXIMAL_MODULES: PRIME, COMPONENTS: INDEPENDENT,
               COCOMPONENTS: COMPLETE}


class _TreeBuilder:
    """Builds the tree top-down on vertex sets of the original graph,
    with an explicit stack in depth-first preorder (node ids and markers
    come out as a recursive build would number them)."""

    def __init__(self, g: Graph):
        self.adj = [g.adjacency_mask(v) for v in range(g.n)]
        self.next_vertex = g.n
        self.normal: set[Edge] = set()
        self.tree: set[tuple[int, int]] = set()
        self.origin: list[tuple[int, int]] = []
        self.block = [1 << v for v in range(g.n)]

    def _alloc(self, node_id: int, count: int) -> list[int]:
        out = list(range(self.next_vertex, self.next_vertex + count))
        self.next_vertex += count
        self.origin.extend((m, node_id) for m in out)
        return out

    def build(self, vs: int) -> list[TreeNode]:
        adj = self.adj
        # per node: kind, is_leaf, members, children, attach markers, vertices
        records: list[tuple] = []
        stack: list[tuple[int, tuple | None, int]] = [(vs, None, -1)]
        while stack:
            vs, parent, mprime = stack.pop()
            node_id = len(records)
            verts = _mask_to_block(vs)
            kind, masks = _step(adj, vs)
            if kind == STOP:
                edges = [(u, w) for u in verts
                         for w in iter_bits(adj[u] & vs & -(2 << u))]
                self.normal.update(edges)
                k = len(verts)
                node_kind = (COMPLETE if len(edges) == k * (k - 1) // 2
                             else INDEPENDENT if not edges else PRIME)
                record = (node_kind, True, verts, [], (), verts)
            else:
                masks.sort(key=_block_order)
                k = len(masks)
                markers = self._alloc(node_id, k)
                attach = self._alloc(node_id, k)
                self.block += masks + [0] * k
                reps = [(m & -m).bit_length() - 1 for m in masks]
                for i in range(k):
                    ai = adj[reps[i]]
                    for j in range(i + 1, k):
                        if ai >> reps[j] & 1:
                            self.normal.add((markers[i], markers[j]))
                    self.tree.add((markers[i], attach[i]))
                record = (_INNER_KIND[kind], False, tuple(markers), [],
                          tuple(attach), verts)
                stack.extend((masks[i], record, attach[i])
                             for i in reversed(range(k)))
            records.append(record)
            if parent is not None:
                parent[3].append(node_id)
                self.normal.update((min(mprime, w), max(mprime, w))
                                   for w in record[2])
        return [TreeNode(i, kind, leaf, members, tuple(children), attach,
                         verts)
                for i, (kind, leaf, members, children, attach, verts)
                in enumerate(records)]


def build_modular_tree(g: Graph) -> ModularTree:
    """The (unique) modular tree of a nonempty graph."""
    if g.n == 0:
        raise InputError("build_modular_tree needs at least one vertex")
    b = _TreeBuilder(g)
    nodes = b.build((1 << g.n) - 1)
    return ModularTree(g.n, b.next_vertex, 0, tuple(nodes),
                       frozenset(b.normal), frozenset(b.tree),
                       tuple(b.origin), tuple(b.block))


def tree_of(g: Graph) -> ModularTree:
    """The modular tree of g, built once per Graph object: every caller
    that asks about the same graph shares it."""
    if g._tree is None:
        g._tree = build_modular_tree(g)
    return g._tree


def is_prime_graph(g: Graph) -> bool:
    """Primality from the tree: at least 4 vertices and a root that is a
    prime leaf. Polynomial; ``graphs.is_prime`` is the 2^n oracle."""
    t = tree_of(g)
    root = t.nodes[t.root]
    return g.n >= 4 and root.is_leaf and root.kind == PRIME


def alternating_path_adjacent(t: ModularTree, x: int, y: int) -> bool:
    """True iff the tree contains a path x m_1 .. m_2k y whose interior is
    all markers and whose edges alternate normal, tree, normal, ..,
    normal. For original vertices this recovers adjacency in the source
    graph."""
    for v in (x, y):
        if not 0 <= v < t.n:
            raise InputError(f"vertex {v} is not an original vertex")
    if x == y:
        return False
    normal_adj = t._normal_adj
    tree_adj = t._tree_adj
    # state: (vertex, next edge kind); True = next hop is a normal edge
    seen = {(x, True)}
    stack: list[tuple[int, bool]] = [(x, True)]
    while stack:
        v, expect_normal = stack.pop()
        if expect_normal:
            for u in normal_adj[v]:
                if u == y:
                    return True
                if t.is_marker(u) and (u, False) not in seen:
                    seen.add((u, False))
                    stack.append((u, False))
        else:
            for u in tree_adj[v]:
                if (u, True) not in seen:
                    seen.add((u, True))
                    stack.append((u, True))
    return False


# -- serialization -------------------------------------------------------

def tree_to_json(t: ModularTree) -> str:
    data = {
        "vertex_count": t.n,
        "marker_count": t.total_vertices - t.n,
        "root": t.root,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind,
                "leaf": node.is_leaf,
                "members": list(node.members),
                "children": list(node.children),
                "attach_markers": list(node.attach_markers),
                "vertices": list(node.vertices_under),
            }
            for node in t.nodes
        ],
        "normal_edges": sorted(map(list, t.normal_edges)),
        "tree_edges": sorted(map(list, t.tree_edges)),
        "marker_origin": sorted(map(list, t.marker_origin)),
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def tree_to_dot(t: ModularTree) -> str:
    """DOT rendering: markers hollow, originals filled, tree edges dashed
    arrows."""
    lines = ["graph modular_tree {"]
    for v in range(t.total_vertices):
        if t.is_marker(v):
            lines.append(f'  {v} [shape=circle, style=solid, label="m{v}"];')
        else:
            lines.append(f"  {v} [shape=circle, style=filled, "
                         f"fillcolor=lightgray];")
    for u, v in sorted(t.normal_edges):
        lines.append(f"  {u} -- {v};")
    for u, v in sorted(t.tree_edges):
        lines.append(f"  {u} -- {v} [style=dashed, dir=forward];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- structural validation (test support) --------------------------------

def check_tree(t: ModularTree, g: Graph) -> None:
    """Assert every structural invariant of the tree against its source
    graph. Exponential checks included; call on small graphs only."""
    from .graphs import is_module, is_prime
    assert t.n == g.n
    leaves = [v for node in t.nodes if node.is_leaf for v in node.members]
    assert sorted(leaves) == list(range(g.n)), "leaf members must tile V"
    for node in t.nodes:
        if node.is_leaf:
            assert not node.children and not node.attach_markers
            assert all(v < t.n for v in node.members)
        else:
            assert all(v >= t.n for v in node.members)
            assert len(node.children) == len(node.members) == \
                len(node.attach_markers) >= 2
        local = t.node_graph(node.id)
        if node.kind == COMPLETE:
            assert local.num_edges == local.n * (local.n - 1) // 2
        elif node.kind == INDEPENDENT:
            assert local.num_edges == 0
        else:
            assert is_prime(local), f"node {node.id} marked prime is not"
        rel = {v: i for i, v in enumerate(sorted(node.vertices_under))}
        gsub = g.induced(node.vertices_under)
        for child_id in node.children:
            child = t.nodes[child_id]
            assert is_module(gsub, [rel[v] for v in child.vertices_under])
    # each attachment marker neighbors exactly its child root node
    adj = t._normal_adj
    for node in t.nodes:
        for child_id, mprime in zip(node.children, node.attach_markers):
            child = t.nodes[child_id]
            assert adj[mprime] == set(child.members)
    # tree edges form a perfect pairing of markers
    paired: set[int] = set()
    for a, b in t.tree_edges:
        assert a not in paired and b not in paired
        paired.update((a, b))
    assert paired == set(range(t.n, t.total_vertices))
    # adjacency is recoverable through alternating paths
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert alternating_path_adjacent(t, x, y) == g.has_edge(x, y)


def typed_tree_graph(t: ModularTree) -> tuple[Graph, tuple[int, ...]]:
    """Encode the tree as a vertex-colored simple graph for isomorphism
    testing: colors distinguish originals, quotient markers, attachment
    markers, and a dummy vertex planted on every tree edge."""
    attach = {b for _, b in t.tree_edges}
    colors = []
    for v in range(t.total_vertices):
        if v < t.n:
            colors.append(0)
        elif v in attach:
            colors.append(2)
        else:
            colors.append(1)
    edges = [tuple(e) for e in t.normal_edges]
    nxt = t.total_vertices
    for a, b in sorted(t.tree_edges):
        edges.append((a, nxt))
        edges.append((nxt, b))
        colors.append(3)
        nxt += 1
    return Graph(nxt, edges), tuple(colors)


def trees_isomorphic(t1: ModularTree, t2: ModularTree,
                     max_n: int = 40) -> bool:
    """Typed-tree isomorphism via the colored encoding."""
    from .oracles import brute_force_iso
    g1, c1 = typed_tree_graph(t1)
    g2, c2 = typed_tree_graph(t2)
    return brute_force_iso(g1, g2, max_n=max_n,
                           colors1=c1, colors2=c2) is not None
