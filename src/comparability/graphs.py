"""Undirected simple graphs on dense vertex ids 0..n-1.

Adjacency is kept both as a sorted edge tuple and as per-vertex integer
bitmasks; the masks make module tests and subset sweeps cheap. Vertex
labels, when present, are a sidecar and never affect structure.  A graph
never changes, so its complement and its modular tree are computed at
most once, on first use, and kept on the object.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
import weakref
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Edge = tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """The vertex ids whose bits are set in `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph. Loops, duplicate edges and directed pairs
    are rejected at construction time."""

    # _complement, _tree and _colors are filled lazily (complement(),
    # modular.tree_of(), oracles.refine_colors()); none changes what the
    # graph is. A complement refers back to its graph weakly (_origin): with
    # no reference cycle, dropping a graph frees both graphs and their trees
    __slots__ = ("n", "_edges", "_masks", "labels", "_hash",
                 "_complement", "_origin", "_tree", "_colors", "__weakref__")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (),
                 labels: Sequence[str] | None = None):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        norm: list[Edge] = []
        for e in edges:
            if len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} rejected")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise InputError(f"duplicate edge {a} rejected")
        self.n = n
        self._edges = tuple(norm)
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InputError("label list length must equal vertex count")
        self.labels = labels
        self._hash = hash((n, self._edges))
        self._complement: Graph | None = None
        self._origin: weakref.ref[Graph] | None = None
        self._tree = None
        self._colors: tuple[int, ...] | None = None

    # -- basic accessors -------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def adjacency_mask(self, v: int) -> int:
        return self._masks[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        m = self._masks[v]
        return tuple(u for u in range(self.n) if m >> u & 1)

    def degree(self, v: int) -> int:
        return bin(self._masks[v]).count("1")

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"vertex pair ({u}, {v}) out of range")
        return bool(self._masks[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self._edges == other._edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self._edges)!r})"

    # -- derived graphs --------------------------------------------------

    def complement(self) -> "Graph":
        co = self._complement or (self._origin and self._origin())
        if co is None:
            edges = [(u, v) for u, v in combinations(range(self.n), 2)
                     if not self._masks[u] >> v & 1]
            co = Graph(self.n, edges, self.labels)
            co._origin = weakref.ref(self)
            self._complement = co
        return co

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices, relabeled to 0..k-1 in
        ascending vertex order."""
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise InputError(f"vertex set {vs} out of range")
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in self._edges
                 if u in pos and v in pos]
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in vs]
        return Graph(len(vs), edges, labels)

    def relabel(self, mapping: Sequence[int]) -> "Graph":
        """Image of the graph under v -> mapping[v] (a bijection)."""
        if sorted(mapping) != list(range(self.n)):
            raise InputError("relabeling is not a bijection on vertex ids")
        edges = [(mapping[u], mapping[v]) for u, v in self._edges]
        labels = None
        if self.labels is not None:
            labels = [""] * self.n
            for v in range(self.n):
                labels[mapping[v]] = self.labels[v]
        return Graph(self.n, edges, labels)

    # -- connectivity ----------------------------------------------------

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            queue = deque([s])
            seen[s] = True
            while queue:
                v = queue.popleft()
                comp.append(v)
                m = self._masks[v]
                for u in range(self.n):
                    if m >> u & 1 and not seen[u]:
                        seen[u] = True
                        queue.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Two-coloring, or None if an odd cycle exists. Per component the
        side containing the smallest vertex id goes into the first part."""
        color = [-1] * self.n
        a: list[int] = []
        b: list[int] = []
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for u in self.neighbors(v):
                    if color[u] == -1:
                        color[u] = 1 - color[v]
                        queue.append(u)
                    elif color[u] == color[v]:
                        return None
        for v in range(self.n):
            (a if color[v] == 0 else b).append(v)
        return tuple(a), tuple(b)

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def distances_from(self, source: int) -> tuple[int, ...]:
        """BFS distances; unreachable vertices get -1."""
        if not 0 <= source < self.n:
            raise InputError(f"vertex {source} out of range")
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in self.neighbors(v):
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return tuple(dist)

    # -- convenience constructors ---------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, combinations(range(n), 2))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError(f"cycle needs at least 3 vertices, got {n}")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def is_cycle_graph(g: Graph) -> bool:
    """True for C_n (connected and 2-regular)."""
    return (g.n >= 3 and g.is_connected()
            and all(g.degree(v) == 2 for v in range(g.n)))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    n = 0
    edges: list[Edge] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


# -- modules -------------------------------------------------------------

def is_module(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every vertex outside the set sees all of it or none of it."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    for w in range(g.n):
        if mask >> w & 1:
            continue
        inter = g.adjacency_mask(w) & mask
        if inter != 0 and inter != mask:
            return False
    return True


def all_modules(g: Graph) -> list[tuple[int, ...]]:
    """Every module, by exhausting all 2^n vertex subsets. Oracle-grade:
    intended for small n only."""
    out = []
    for mask in range(1, 1 << g.n):
        ok = True
        for w in range(g.n):
            if mask >> w & 1:
                continue
            inter = g.adjacency_mask(w) & mask
            if inter != 0 and inter != mask:
                ok = False
                break
        if ok:
            out.append(tuple(v for v in range(g.n) if mask >> v & 1))
    return out


def is_prime(g: Graph) -> bool:
    """No module other than singletons and the whole vertex set. Graphs on
    fewer than 4 vertices are never prime."""
    if g.n < 4:
        return False
    for mask in range(3, (1 << g.n) - 1):
        k = bin(mask).count("1")
        if k < 2:
            continue
        ok = True
        for w in range(g.n):
            if mask >> w & 1:
                continue
            inter = g.adjacency_mask(w) & mask
            if inter != 0 and inter != mask:
                ok = False
                break
        if ok:
            return False
    return True


def is_degenerate(g: Graph) -> bool:
    """Complete or edgeless (every vertex subset is a module)."""
    return g.num_edges == 0 or g.num_edges == g.n * (g.n - 1) // 2


def substitute(base: Graph, replacements: Mapping[int, Graph]
               ) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Replace each vertex v of `base` by the graph replacements[v]
    (default K_1), joining blocks completely whenever the base vertices are
    adjacent. Returns the composed graph and the block of new vertex ids
    that each base vertex became."""
    for v in replacements:
        if not 0 <= v < base.n:
            raise InputError(f"substitution target {v} out of range")
    blocks: dict[int, tuple[int, ...]] = {}
    edges: list[Edge] = []
    off = 0
    for v in range(base.n):
        sub = replacements.get(v)
        size = sub.n if sub is not None else 1
        blocks[v] = tuple(range(off, off + size))
        if sub is not None:
            edges.extend((off + a, off + b) for a, b in sub.edges)
        off += size
    for u, v in base.edges:
        edges.extend((a, b) for a in blocks[u] for b in blocks[v])
    return Graph(off, edges), blocks


# -- text formats --------------------------------------------------------

def from_edge_list_text(text: str) -> Graph:
    """Parse the plain edge-list format: a header line "n m" followed by m
    lines "u v" with 0-based vertex ids."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty input: expected a header line 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(f"header must be two integers, got {lines[0]!r}")
    if len(lines) - 1 != m:
        raise InputError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(f"edge line must be two integers, got {ln!r}")
    return Graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string (short form, n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise InputError(f"invalid graph6 character in {s!r}")
    n = data[0]
    if n == 63:
        raise InputError("graph6 long form (n >= 63) not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 != need:
        raise InputError(
            f"graph6 payload length {len(data) - 1} != expected {need} for n={n}")
    bits = []
    for b in data[1:]:
        bits.extend((b >> k & 1) for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    if g.n >= 63:
        raise InputError("graph6 long form (n >= 63) not supported")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        label = f' [label="{g.labels[v]}"]' if g.labels else ""
        lines.append(f"  {v}{label};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
