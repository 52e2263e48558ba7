"""Automorphism groups assembled from the modular tree.

The automorphism group of a graph equals the automorphism group of its
modular tree, which factors recursively: independent automorphisms of
the child subtrees, extended by color-preserving automorphisms of the
root quotient permuting isomorphic subtrees.  Degenerate quotients give
wreath products over isomorphism classes; prime quotients contribute a
group of order at most four on permutation graphs, assembled as a
semidirect product with Z2^2 in the largest case.

Group shapes are reported twice: as a structural expression over a small
grammar (trivial, symmetric, direct product, wreath, Z2^2 semidirect)
and as a concrete permutation group on the graph's vertices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

from .errors import InputError, OracleBoundError
from .graphs import Graph, iter_bits
from .modular import PRIME, ModularTree
from .oracles import DEFAULT_VERTEX_BOUND, brute_force_aut, canonical_labeling
from .perms import Permutation, PermutationGroup


# -- the expression grammar -----------------------------------------------

class GroupExpr:
    """Base of the group-shape grammar; use the smart constructors."""

    def order(self) -> int:
        raise NotImplementedError

    def _json_obj(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Trivial(GroupExpr):
    def order(self) -> int:
        return 1

    def __str__(self) -> str:
        return "1"

    def _json_obj(self):
        return {"kind": "trivial"}


@dataclass(frozen=True)
class Sym(GroupExpr):
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("symmetric group needs k >= 1")

    def order(self) -> int:
        return math.factorial(self.k)

    def __str__(self) -> str:
        return f"S{self.k}"

    def _json_obj(self):
        return {"kind": "sym", "k": self.k}


@dataclass(frozen=True)
class DirectProduct(GroupExpr):
    factors: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise InputError("direct product needs at least two factors")

    def order(self) -> int:
        return math.prod(f.order() for f in self.factors)

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)

    def _json_obj(self):
        return {"kind": "product",
                "factors": [f._json_obj() for f in self.factors]}


@dataclass(frozen=True)
class Wreath(GroupExpr):
    base: GroupExpr
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InputError("wreath product needs k >= 1")

    def order(self) -> int:
        return self.base.order() ** self.k * math.factorial(self.k)

    def __str__(self) -> str:
        return f"({self.base} wr S{self.k})"

    def _json_obj(self):
        return {"kind": "wreath", "base": self.base._json_obj(), "k": self.k}


@dataclass(frozen=True)
class SemidirectZ22(GroupExpr):
    """(G1^4 x G2^2 x G3^2) semidirect Z2^2, times a fixed part G4.

    Z2^2 acts on the four G1 slots as on rectangle corners ordered
    (x, h(x), v(x), hv(x)): h is (1 2)(3 4), v is (1 3)(2 4).  h also
    swaps the G2 pair and fixes G3; v swaps G3 and fixes G2; the fixed
    part is never moved.
    """

    g1: GroupExpr
    g2: GroupExpr
    g3: GroupExpr
    fixed: GroupExpr

    def order(self) -> int:
        return (self.g1.order() ** 4 * self.g2.order() ** 2 *
                self.g3.order() ** 2 * self.fixed.order() * 4)

    def __str__(self) -> str:
        return (f"Z2^2-semidirect[G1={self.g1}; G2={self.g2}; "
                f"G3={self.g3}; fixed={self.fixed}]")

    def _json_obj(self):
        return {"kind": "semidirect_z22", "g1": self.g1._json_obj(),
                "g2": self.g2._json_obj(), "g3": self.g3._json_obj(),
                "fixed": self.fixed._json_obj()}


@dataclass(frozen=True)
class Opaque(GroupExpr):
    """A group the grammar cannot express; only its order is kept."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("group order must be positive")

    def order(self) -> int:
        return self.size

    def __str__(self) -> str:
        return f"Opaque({self.size})"

    def _json_obj(self):
        return {"kind": "opaque", "order": self.size}


def sym(k: int) -> GroupExpr:
    return Trivial() if k == 1 else Sym(k)


def direct_product(factors) -> GroupExpr:
    """Normalized product: flattened, units dropped, factors sorted."""
    flat: list[GroupExpr] = []
    for f in factors:
        if isinstance(f, DirectProduct):
            flat.extend(f.factors)
        elif not isinstance(f, Trivial):
            flat.append(f)
    flat.sort(key=lambda f: (f.order(), str(f)))
    if not flat:
        return Trivial()
    if len(flat) == 1:
        return flat[0]
    return DirectProduct(tuple(flat))


def wreath(base: GroupExpr, k: int) -> GroupExpr:
    if k == 1:
        return base
    if isinstance(base, Trivial):
        return Sym(k)
    return Wreath(base, k)


def realize(expr: GroupExpr) -> int:
    """Structural order of an expression, exact in big integers."""
    return expr.order()


def expr_to_json(expr: GroupExpr) -> str:
    return json.dumps(expr._json_obj(), sort_keys=True)


def expr_from_json(text: str) -> GroupExpr:
    def build(obj):
        kind = obj.get("kind")
        if kind == "trivial":
            return Trivial()
        if kind == "sym":
            return Sym(obj["k"])
        if kind == "product":
            return DirectProduct(tuple(build(f) for f in obj["factors"]))
        if kind == "wreath":
            return Wreath(build(obj["base"]), obj["k"])
        if kind == "semidirect_z22":
            return SemidirectZ22(build(obj["g1"]), build(obj["g2"]),
                                 build(obj["g3"]), build(obj["fixed"]))
        if kind == "opaque":
            return Opaque(obj["order"])
        raise InputError(f"unknown expression kind: {kind!r}")

    try:
        return build(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed group expression: {exc}") from exc


# -- abstract materialization ---------------------------------------------

class AbstractGroup:
    """Element tuples with an explicit multiplication, for algebra checks."""

    def __init__(self, elements, mul: Callable, identity):
        self.elements = tuple(elements)
        self.mul = mul
        self.identity = identity

    def order(self) -> int:
        return len(self.elements)


def _perm_compose(p, q):
    return tuple(p[i] for i in q)


def materialize(expr: GroupExpr, max_size: int = 20000) -> AbstractGroup:
    """Build every element of a small expression.

    Elements are nested tuples mirroring the expression shape, so the
    advertised factor structure and the action are directly inspectable.
    """
    total = expr.order()
    if total > max_size:
        raise OracleBoundError(
            f"group of order {total} exceeds materialization bound "
            f"max_size={max_size}")
    if isinstance(expr, Trivial):
        return AbstractGroup([()], lambda a, b: (), ())
    if isinstance(expr, Sym):
        identity = tuple(range(expr.k))
        return AbstractGroup(itertools.permutations(range(expr.k)),
                             _perm_compose, identity)
    if isinstance(expr, DirectProduct):
        parts = [materialize(f, max_size) for f in expr.factors]

        def mul(a, b, parts=parts):
            return tuple(p.mul(x, y) for p, x, y in zip(parts, a, b))

        return AbstractGroup(itertools.product(*(p.elements for p in parts)),
                             mul, tuple(p.identity for p in parts))
    if isinstance(expr, Wreath):
        base = materialize(expr.base, max_size)
        k = expr.k
        tops = list(itertools.permutations(range(k)))

        def mul(a, b, base=base):
            (f1, s1), (f2, s2) = a, b
            inv = [0] * k
            for i, v in enumerate(s1):
                inv[v] = i
            moved = tuple(f2[inv[i]] for i in range(k))
            return (tuple(base.mul(x, y) for x, y in zip(f1, moved)),
                    _perm_compose(s1, s2))

        elements = ((f, s)
                    for f in itertools.product(*([base.elements] * k))
                    for s in tops)
        return AbstractGroup(elements, mul,
                             ((base.identity,) * k, tuple(range(k))))
    if isinstance(expr, SemidirectZ22):
        g1 = materialize(expr.g1, max_size)
        g2 = materialize(expr.g2, max_size)
        g3 = materialize(expr.g3, max_size)
        g4 = materialize(expr.fixed, max_size)

        def twist(h, n):
            a, b, c, d = n
            if h[0]:
                a = (a[1], a[0], a[3], a[2])
                b = (b[1], b[0])
            if h[1]:
                a = (a[2], a[3], a[0], a[1])
                c = (c[1], c[0])
            return a, b, c, d

        def mul(x, y):
            (n1, h1), (n2, h2) = x, y
            a1, b1, c1, d1 = n1
            a2, b2, c2, d2 = twist(h1, n2)
            n = (tuple(g1.mul(p, q) for p, q in zip(a1, a2)),
                 tuple(g2.mul(p, q) for p, q in zip(b1, b2)),
                 tuple(g3.mul(p, q) for p, q in zip(c1, c2)),
                 g4.mul(d1, d2))
            return n, (h1[0] ^ h2[0], h1[1] ^ h2[1])

        normals = itertools.product(
            itertools.product(*([g1.elements] * 4)),
            itertools.product(*([g2.elements] * 2)),
            itertools.product(*([g3.elements] * 2)),
            g4.elements)
        elements = ((n, h) for n in normals
                    for h in ((0, 0), (1, 0), (0, 1), (1, 1)))
        identity = (((g1.identity,) * 4, (g2.identity,) * 2,
                     (g3.identity,) * 2, g4.identity), (0, 0))
        return AbstractGroup(elements, mul, identity)
    raise InputError(f"cannot materialize {expr}")


# -- colored root quotients -----------------------------------------------

@dataclass(frozen=True)
class ColoredGraph:
    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.n:
            raise InputError("need exactly one color per vertex")


def color_preserving_aut(r: ColoredGraph,
                         max_n: int = DEFAULT_VERTEX_BOUND) -> PermutationGroup:
    """Automorphisms of the graph that fix every color class setwise."""
    full = brute_force_aut(r.graph, max_n=max_n)
    kept = [p for p in full.elements()
            if all(r.colors[p(v)] == r.colors[v] for v in range(r.graph.n))]
    return PermutationGroup.from_elements(r.graph.n, kept)


# -- one bottom-up pass over the tree ---------------------------------------

def _dense_ranks(codes: tuple[int, ...]) -> tuple[int, ...]:
    order = {c: i for i, c in enumerate(sorted(set(codes)))}
    return tuple(order[c] for c in codes)


def _leaf_expr(aut: PermutationGroup) -> GroupExpr:
    """Shape of a prime leaf's group: known small cases, else opaque."""
    order = aut.order()
    if order == 1:
        return Trivial()
    if order == 2:
        return Sym(2)
    if order == 4 and aut.exponent_divides_two():
        return DirectProduct((Sym(2), Sym(2)))
    return Opaque(order)


def _klein_expr(a: PermutationGroup,
                child_exprs: list[GroupExpr]) -> GroupExpr | None:
    """The rectangle assembly for a prime quotient with Klein-four group.

    Size-2 orbits are typed by which involution fixes them.  The grammar
    only hosts two such types (the pairs swapped exactly by h and the
    pairs swapped exactly by v), so three distinct types mean no
    expression exists and the caller falls back to an opaque marker.
    """
    involutions = [p for p in a.elements() if not p.is_identity()]
    orbits = a.orbits()
    four = [o for o in orbits if len(o) == 4]
    twos = [o for o in orbits if len(o) == 2]
    ones = [o for o in orbits if len(o) == 1]
    stab_types: dict[Permutation, list[tuple[int, ...]]] = {}
    for o in twos:
        fixers = [p for p in involutions if p(o[0]) == o[0]]
        assert len(fixers) == 1
        stab_types.setdefault(fixers[0], []).append(o)
    if len(stab_types) > 2:
        return None
    # h swaps the G2 pairs (v fixes them); v swaps the G3 pairs
    used = sorted(stab_types)
    g2_orbits = stab_types.get(used[0], []) if used else []
    g3_orbits = stab_types.get(used[1], []) if len(used) > 1 else []
    g1 = direct_product([child_exprs[min(o)] for o in four])
    g2 = direct_product([child_exprs[min(o)] for o in g2_orbits])
    g3 = direct_product([child_exprs[min(o)] for o in g3_orbits])
    fixed = direct_product([child_exprs[o[0]] for o in ones])
    return SemidirectZ22(g1, g2, g3, fixed)


def _prime_quotient_expr(a: PermutationGroup,
                         child_exprs: list[GroupExpr]) -> GroupExpr:
    order = a.order()
    if order == 1:
        return direct_product(child_exprs)
    if order == 2:
        sigma = next(p for p in a.elements() if not p.is_identity())
        pairs = [o for o in a.orbits() if len(o) == 2]
        fixed = [o[0] for o in a.orbits() if len(o) == 1]
        assert all(sigma(o[0]) == o[1] for o in pairs)
        swapped = direct_product([child_exprs[o[0]] for o in pairs])
        return direct_product([wreath(swapped, 2)] +
                              [child_exprs[i] for i in fixed])
    if order == 4 and a.exponent_divides_two():
        expr = _klein_expr(a, child_exprs)
        if expr is not None:
            return expr
    total = order * math.prod(e.order() for e in child_exprs)
    return Opaque(total)


def _assemble(t: ModularTree, max_n: int):
    """One pass over the tree, children before parents, left to right.

    Each node gets (expr, code, ref, gens); a child's entry is dropped
    once its parent has used it.  code is a small int that two subtrees
    share iff they are isomorphic, keyed on (leaf or inner, kind, key,
    sorted child codes): key is a prime node's colored canonical key and
    None otherwise.  A leaf's members count as children of code -1.
    ref orders the vertices under the node so that the positional map
    between the refs of two subtrees of one code is an isomorphism.
    gens are generator maps holding only the vertices they move.  Only
    prime nodes reach the oracles, which refuse any past max_n.

    Returns the root's expr and gens, and its children's code ranks.
    """
    order = []
    stack = [t.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(t.nodes[node_id].children)
    table: dict[tuple, int] = {}
    done: dict[int, tuple] = {}
    for node_id in reversed(order):
        node = t.nodes[node_id]
        if node.is_leaf:
            parts = [(Trivial(), -1, (v,), []) for v in node.members]
        else:
            parts = [done.pop(c) for c in node.children]
        child_exprs, child_codes, child_refs, child_gens = zip(*parts)
        colors = _dense_ranks(child_codes)
        if node.kind == PRIME:
            ng = t.node_graph(node_id)
            a = color_preserving_aut(ColoredGraph(ng, colors), max_n=max_n)
            expr = (_leaf_expr(a) if node.is_leaf
                    else _prime_quotient_expr(a, child_exprs))
            key, canon = canonical_labeling(ng, colors)
            slots = sorted(range(ng.n), key=canon.__getitem__)
            quotient_gens = [{i: p(i) for i in range(ng.n) if p(i) != i}
                             for p in a.generators]
        else:
            # children of one code are isomorphic and the quotient is
            # complete or edgeless, so each class is permuted freely
            classes: dict[int, list[int]] = {}
            for i, c in enumerate(child_codes):
                classes.setdefault(c, []).append(i)
            expr = direct_product(wreath(child_exprs[cls[0]], len(cls))
                                  for cls in classes.values())
            quotient_gens = []
            for cls in classes.values():
                if len(cls) >= 2:
                    quotient_gens.append({cls[0]: cls[1], cls[1]: cls[0]})
                if len(cls) > 2:
                    quotient_gens.append(dict(zip(cls, cls[1:] + cls[:1])))
            key = None
            slots = sorted(range(len(parts)), key=child_codes.__getitem__)
        code = table.setdefault(
            (node.is_leaf, node.kind, key, tuple(sorted(child_codes))),
            len(table))
        ref = tuple(v for i in slots for v in child_refs[i])
        gens = [gmap for gs in child_gens for gmap in gs]
        gens.extend({v: child_refs[j][pos]
                     for i, j in rho.items()
                     for pos, v in enumerate(child_refs[i])}
                    for rho in quotient_gens)
        done[node_id] = expr, code, ref, gens
    # the root comes last, so the loop leaves its entry and colors behind
    return expr, gens, colors


def subtree_isomorphism_classes(t: ModularTree) -> ColoredGraph:
    """Root node graph, markers colored by child-subtree isomorphism class.

    A leaf root has no subtrees hanging off it; its vertices all get
    color zero.  The classes come from the pass that assembles the
    group, so a prime node past the default oracle bound is refused
    with OracleBoundError.
    """
    return ColoredGraph(t.node_graph(t.root),
                        _assemble(t, DEFAULT_VERTEX_BOUND)[2])


def aut_tree(t: ModularTree,
             max_n: int = DEFAULT_VERTEX_BOUND
             ) -> tuple[GroupExpr, PermutationGroup]:
    """Group of the graph behind a modular tree, in both report forms.

    The concrete permutation group acts on the original (non-marker)
    vertices; its elements are exactly the graph's automorphisms.  The
    expression describes the same group structurally and realize() on it
    matches the concrete order.
    """
    expr, gens, _ = _assemble(t, max_n)
    # the adjacency, rebuilt from the tree alone, not from the input graph
    local = [e for edges in t.local_edges for e in edges]
    adj = t.out_masks(local + [(b, a) for a, b in local])
    perms = []
    for gmap in gens:
        p = Permutation(tuple(gmap.get(v, v) for v in range(t.n)))
        # a bijection mapping every edge to an edge is an automorphism,
        # and an edge with both ends fixed maps to itself
        assert all(adj[p(u)] >> p(w) & 1
                   for u in gmap for w in iter_bits(adj[u])), \
            "assembled generator is not an automorphism"
        perms.append(p)
    return expr, PermutationGroup(t.n, perms)
