"""Seeded input families and the ground truth each one carries.

Every generator takes a ``random.Random`` and returns a ``Graph`` record:
the vertex count, the sorted edge tuple, and whatever the construction
already knows about the graph. Checkers use that knowledge as ground
truth, so none of them needs an exponential search:

* two random linear orders: the orders themselves, whose common
  intervals give the modular tree (strong modules of a permutation graph
  are the strong common intervals of a realizer), and for prime graphs
  the four realizers that bound the automorphism group;
* shuffled substitution trees: the tree they were composed from;
* connected bipartite graphs: only the edges, which the dim-4 and
  reduce checkers rebuild their expectations from.

Nothing here imports the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

COMPLETE, INDEPENDENT, PRIME = "complete", "independent", "prime"


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    truth: dict = field(default_factory=dict, compare=False, hash=False)

    def edge_list_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def shuffled(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# -- two linear orders ------------------------------------------------------

def order_graph_edges(l1, l2) -> tuple[tuple[int, int], ...]:
    """Vertices adjacent iff both orders place them the same way round."""
    pos2 = {v: i for i, v in enumerate(l2)}
    edges = []
    for i, u in enumerate(l1):
        pu = pos2[u]
        for v in l1[i + 1:]:
            if pu < pos2[v]:
                edges.append((u, v))
    return _norm(edges)


@dataclass(frozen=True)
class Node:
    """A node of a modular tree: its kind, its children (vertex ids for
    singletons, nested ``Node`` otherwise) and the vertices below it."""
    kind: str
    children: tuple
    vertices: frozenset


def interval_tree(l1, l2) -> Node | int:
    """Modular tree of the permutation graph of (l1, l2), from the strong
    common intervals of the two orders. Returns a vertex id for n = 1."""
    pos2 = {v: i for i, v in enumerate(l2)}
    pi = [pos2[v] for v in l1]

    def build(a: int, b: int):
        if a == b:
            return l1[a]
        blocks = _linear_blocks(pi, a, b, increasing=True)
        kind = COMPLETE
        if len(blocks) == 1:
            blocks = _linear_blocks(pi, a, b, increasing=False)
            kind = INDEPENDENT
        if len(blocks) == 1:
            blocks = _prime_blocks(pi, a, b)
            kind = PRIME
        children = tuple(build(s, e) for s, e in blocks)
        return Node(kind, children, frozenset(l1[a:b + 1]))

    return build(0, len(l1) - 1)


def _linear_blocks(pi, a, b, increasing):
    """Split [a, b] wherever everything left of the cut lies below (or,
    when decreasing, above) everything right of it."""
    sign = 1 if increasing else -1
    suffix = [0] * (b - a + 2)
    suffix[b - a + 1] = math.inf
    for k in range(b, a - 1, -1):
        suffix[k - a] = min(suffix[k - a + 1], sign * pi[k])
    blocks, start, best = [], a, -math.inf
    for k in range(a, b):
        best = max(best, sign * pi[k])
        if best < suffix[k + 1 - a]:
            blocks.append((start, k))
            start = k + 1
    blocks.append((start, b))
    return blocks


def _prime_blocks(pi, a, b):
    """Maximal proper common intervals of a prime node; they tile [a, b]."""
    longest = {}
    for s in range(a, b + 1):
        lo = hi = pi[s]
        longest[s] = s
        for e in range(s + 1, b + 1):
            lo, hi = min(lo, pi[e]), max(hi, pi[e])
            if hi - lo == e - s and (s, e) != (a, b):
                longest[s] = e
    blocks, s = [], a
    while s <= b:
        blocks.append((s, longest[s]))
        s = longest[s] + 1
    return blocks


def is_prime_tree(tree) -> bool:
    return isinstance(tree, Node) and tree.kind == PRIME and \
        all(isinstance(c, int) for c in tree.children)


def prime_symmetries(l1, l2) -> dict[str, tuple[int, ...]]:
    """Automorphisms of a prime permutation graph, keyed by the geometric
    move of the segment picture they realize. A prime permutation graph
    has exactly four realizers, so each automorphism maps (l1, l2) onto
    one of them; the move is kept when it is induced by a relabeling."""
    n = len(l1)
    moves = {"horizontal": (l2, l1),
             "vertical": (l1[::-1], l2[::-1]),
             "rotation": (l2[::-1], l1[::-1])}
    found = {}
    for label, (t1, t2) in moves.items():
        sigma = [0] * n
        for a, b in zip(l1, t1):
            sigma[a] = b
        if all(sigma[a] == b for a, b in zip(l2, t2)):
            found[label] = tuple(sigma)
    return found


def symmetry_class(found: dict) -> str:
    if not found:
        return "trivial"
    if len(found) == 1:
        return "Z2-" + next(iter(found))
    return "Z2xZ2"


def two_order_graph(rng, n: int, prime: bool = False) -> Graph:
    """Permutation graph of two random linear orders; with prime=True the
    orders are redrawn until the graph is prime (a simple permutation)."""
    while True:
        l1, l2 = shuffled(rng, n), shuffled(rng, n)
        tree = interval_tree(l1, l2)
        if not prime or is_prime_tree(tree):
            return _realized(l1, l2, tree)


def path_graph(rng, n: int) -> Graph:
    """P_n under a random labeling; for n >= 4 it is prime, with the
    labeling's two end-to-end readings as its only automorphisms."""
    perm = shuffled(rng, n)
    l1, l2 = ([perm[v] for v in order] for order in _path_realizer(n))
    return _realized(l1, l2, interval_tree(l1, l2))


def _realized(l1, l2, tree) -> Graph:
    truth = {"tree": tree}
    if is_prime_tree(tree):
        truth["symmetries"] = prime_symmetries(l1, l2)
    return Graph(len(l1), order_graph_edges(l1, l2), truth)


def _path_realizer(n: int) -> tuple[list[int], list[int]]:
    """Two orders whose agreement graph is the path 0 - 1 - .. - n-1:
    0 2 1 4 3 6 5 .. and the pairs (2k, 2k+1) from the last one down."""
    l1 = [0]
    for i in range(1, n, 2):
        l1.extend([i + 1, i] if i + 1 < n else [i])
    l2 = []
    for k in range((n - 1) // 2, -1, -1):
        l2.extend(v for v in (2 * k, 2 * k + 1) if v < n)
    return l1, l2


# -- substitution trees -----------------------------------------------------

@dataclass(frozen=True)
class Template:
    """A small prime graph used as a prime node of a substitution tree."""
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    comparability: bool
    co_comparability: bool

    @property
    def permutation(self) -> bool:
        return self.comparability and self.co_comparability

    @cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return _automorphisms(self.n, self.edges)


def _cycle(n):
    return _norm((i, (i + 1) % n) for i in range(n))


def _complement(n, edges):
    have = set(edges)
    return tuple((u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in have)


# Prime graphs on 4..8 vertices, pairwise non-isomorphic. The last three
# are not permutation graphs: C5 is neither comparability nor
# co-comparability, C6 is bipartite (comparability only) and its
# complement, the prism, is co-comparability only.
TEMPLATES = (
    Template("P4", 4, ((0, 1), (1, 2), (2, 3)), True, True),
    Template("P5", 5, ((0, 1), (1, 2), (2, 3), (3, 4)), True, True),
    Template("bull", 5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4)), True, True),
    Template("house", 5, _complement(5, ((0, 1), (1, 2), (2, 3), (3, 4))),
             True, True),
    Template("R6", 6, order_graph_edges([0, 1, 2, 3, 4, 5],
                                        [2, 4, 0, 5, 1, 3]), True, True),
    Template("R7", 7, order_graph_edges([0, 1, 2, 3, 4, 5, 6],
                                        [3, 0, 5, 2, 6, 1, 4]), True, True),
    Template("R8", 8, order_graph_edges([0, 1, 2, 3, 4, 5, 6, 7],
                                        [2, 5, 0, 7, 3, 1, 6, 4]), True, True),
    Template("C5", 5, _cycle(5), False, False),
    Template("C6", 6, _cycle(6), True, False),
    Template("prism", 6, _complement(6, _cycle(6)), False, True),
)


def _automorphisms(n, edges) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of a small graph, by backtracking on degrees."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    found = []

    def extend(m: list[int]):
        i = len(m)
        if i == n:
            found.append(tuple(m))
            return
        for j in range(n):
            if j in m or len(adj[j]) != len(adj[i]):
                continue
            if all((k in adj[i]) == (m[k] in adj[j]) for k in range(i)):
                m.append(j)
                extend(m)
                m.pop()

    extend([])
    return tuple(found)


# A shape is ("v",) for a vertex, (kind, children) for a complete or
# independent node, and ("prime", template index, children) otherwise.
LEAF = ("v",)


# Prime nodes sit only over at most this many vertices, so the modular
# tree is found by many shallow component and co-component steps and
# small module closures, and its cost follows n rather than the seed.
PRIME_SPAN = 20


def random_shape(rng, size: int, parent: str | None = None):
    """A substitution tree with `size` vertices. Degenerate nodes have at
    most seven members and never repeat their parent's kind, so the shape
    is the graph's modular tree; siblings are often copies of each other."""
    if size == 1:
        return LEAF
    kinds = [k for k in (COMPLETE, INDEPENDENT) if k != parent]
    fits = [i for i, t in enumerate(TEMPLATES) if t.n <= size]
    if fits and size <= PRIME_SPAN and rng.random() < 0.5:
        index = rng.choice(fits)
        return (PRIME, index,
                _children(rng, size, TEMPLATES[index].n, PRIME))
    kind = rng.choice(kinds)
    k = rng.randint(2, min(7, size))
    return (kind, _children(rng, size, k, kind))


def _children(rng, size: int, k: int, kind: str) -> tuple:
    if rng.random() < 0.45:
        # copies of one subtree, plus one extra child for the remainder
        part = size // k
        rest = size - part * k
        if rest and k == 7 and kind != PRIME:
            k, part, rest = 6, size // 6, size - 6 * (size // 6)
        one = random_shape(rng, part, kind)
        out = [one] * k
        if rest:
            if kind == PRIME:
                out[-1] = random_shape(rng, part + rest, kind)
            else:
                out.append(random_shape(rng, rest, kind))
        return tuple(out)
    cuts = sorted(rng.sample(range(1, size), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    return tuple(random_shape(rng, s, kind) for s in sizes)


# Edge density of substitution graphs (edges over vertex pairs). Its
# extremes follow the root's kind and make aut several times cheaper or
# dearer, so shapes outside the band are redrawn.
DENSITY = (0.25, 0.5)


def substitution_graph(rng, n: int, permutation: bool | None = None
                       ) -> Graph:
    """Graph of a random substitution tree on n vertices, shuffled labels.
    Redrawn while its density is outside DENSITY, until it is (or is not)
    a permutation graph when `permutation` asks so, and while perm would
    answer with a representation (the seed's text perm then runs a 2^n
    primality sweep)."""
    while True:
        shape = random_shape(rng, n)
        low, high = DENSITY
        if not low <= _edge_count(shape)[1] / (n * (n - 1) / 2) <= high:
            continue
        facts = shape_facts(shape)
        if permutation not in (None, facts["permutation"]):
            continue
        if not facts["permutation"] or facts["pairs"] > 20000:
            break
    labels = shuffled(rng, n)
    edges: list[tuple[int, int]] = []
    tree = _realize(shape, iter(labels), edges)
    return Graph(n, _norm(edges), {"tree": tree, **facts})


def _edge_count(shape) -> tuple[int, int]:
    """(vertices, edges) of a shape's graph."""
    if shape == LEAF:
        return 1, 0
    parts = [_edge_count(c) for c in shape[-1]]
    sizes = [size for size, _ in parts]
    edges = sum(e for _, e in parts)
    if shape[0] == COMPLETE:
        edges += (sum(sizes) ** 2 - sum(x * x for x in sizes)) // 2
    elif shape[0] == PRIME:
        template = TEMPLATES[shape[1]]
        edges += sum(sizes[i] * sizes[j] for i, j in template.edges)
    return sum(sizes), edges


def _realize(shape, labels, edges):
    """Assign vertex ids to the shape's leaves, emit its edges and return
    its tree as ``Node`` values."""
    if shape == LEAF:
        return next(labels)
    children = tuple(_realize(c, labels, edges) for c in shape[-1])
    under = [c.vertices if isinstance(c, Node) else frozenset((c,))
             for c in children]
    if shape[0] == COMPLETE:
        pairs = [(i, j) for i in range(len(under))
                 for j in range(i + 1, len(under))]
    elif shape[0] == INDEPENDENT:
        pairs = []
    else:
        pairs = TEMPLATES[shape[1]].edges
    for i, j in pairs:
        edges.extend((u, v) for u in under[i] for v in under[j])
    return Node(shape[0], children, frozenset().union(*under))


def shape_facts(shape) -> dict:
    """Ground truth read off a substitution tree."""
    code_order = _canonical(shape)
    nodes = list(_nodes(shape))
    primes = [TEMPLATES[s[1]] for s in nodes if s[0] == PRIME]
    degenerate = [len(s[-1]) for s in nodes if s[0] != PRIME]
    orientations = 2 ** len(primes) * math.prod(
        math.factorial(len(s[-1])) for s in nodes if s[0] == COMPLETE)
    return {
        "aut_order": code_order[1],
        "comparability": all(t.comparability for t in primes),
        "permutation": all(t.permutation for t in primes),
        "orientations": orientations,
        "pairs": 4 ** len(primes) * math.prod(
            math.factorial(k) for k in degenerate),
    }


def _nodes(shape):
    if shape != LEAF:
        yield shape
        for c in shape[-1]:
            yield from _nodes(c)


def _canonical(shape) -> tuple[str, int]:
    """Canonical code and automorphism group order of a shape."""
    if shape == LEAF:
        return "v", 1
    parts = [_canonical(c) for c in shape[-1]]
    codes = [c for c, _ in parts]
    order = math.prod(o for _, o in parts)
    if shape[0] != PRIME:
        counts: dict[str, int] = {}
        for c in codes:
            counts[c] = counts.get(c, 0) + 1
        for c in counts.values():
            order *= math.factorial(c)
        return f"{shape[0][0]}({','.join(sorted(codes))})", order
    index = shape[1]
    auts = TEMPLATES[index].automorphisms
    stabilizer = sum(all(codes[s[i]] == codes[i] for i in range(len(codes)))
                     for s in auts)
    best = min(tuple(codes[s[i]] for i in range(len(codes))) for s in auts)
    return f"p{index}({','.join(best)})", order * stabilizer


# -- connected bipartite graphs ---------------------------------------------

def bipartite_graph(rng, n: int) -> Graph:
    """Connected bipartite graph: a random tree across two random sides,
    plus 0.3 n further cross edges (fewer only if the sides are full)."""
    sides = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
    order = shuffled(rng, n)
    side = {v: sides[i] for i, v in enumerate(order)}
    placed = {0: [order[0]], 1: [order[1]]}
    edges = {(min(order[0], order[1]), max(order[0], order[1]))}
    for v in order[2:]:
        u = rng.choice(placed[1 - side[v]])
        edges.add((min(u, v), max(u, v)))
        placed[side[v]].append(v)
    want = len(edges) + int(0.3 * n)
    a, b = placed[0], placed[1]
    while len(edges) < want and len(edges) < len(a) * len(b):
        u, v = rng.choice(a), rng.choice(b)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, _norm(edges))


def relabeled(rng, g: Graph) -> Graph:
    """An isomorphic copy under a random relabeling."""
    perm = shuffled(rng, g.n)
    return Graph(g.n, _norm((perm[u], perm[v]) for u, v in g.edges))


def near_miss(rng, g: Graph) -> Graph:
    """A connected non-isomorphic neighbour: one new edge moves the degree
    sequence (the edge count differs), so no relabeling can match."""
    have = set(g.edges)
    while True:
        u, v = sorted(rng.sample(range(g.n), 2))
        if (u, v) not in have:
            return Graph(g.n, _norm(have | {(u, v)}))

