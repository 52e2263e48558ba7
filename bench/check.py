"""Answer checkers, one per subcommand and output format.

Each checker takes the query's input graphs (with the ground truth their
generator attached), the exit code and the captured stdout, and returns
None when the answer is right or a one-line reason when it is wrong.
Exit code 3 (an oracle bound refusal) is classified before any checker
runs, so checkers only see answers.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

from gen import COMPLETE, PRIME, Graph, Node, order_graph_edges, symmetry_class


# -- expectations read off a modular tree ----------------------------------

def _tree_nodes(tree):
    if isinstance(tree, Node):
        yield tree
        for c in tree.children:
            yield from _tree_nodes(c)


def expected_nodes(tree) -> tuple[set, int]:
    """(kind, vertex set, member count) of every node the program should
    print for more than one vertex, and the number of one-vertex leaves
    it prints (singleton children of inner nodes; a lone vertex is one)."""
    if not isinstance(tree, Node):
        return set(), 1
    nodes, singles = set(), 0
    for node in _tree_nodes(tree):
        nodes.add((node.kind, node.vertices, len(node.children)))
        if not all(isinstance(c, int) for c in node.children):
            singles += sum(isinstance(c, int) for c in node.children)
    return nodes, singles


def orientation_count(tree) -> int:
    """Two per prime node, k! per complete node with k members."""
    count = 1
    for node in _tree_nodes(tree):
        if node.kind == PRIME:
            count *= 2
        elif node.kind == COMPLETE:
            count *= math.factorial(len(node.children))
    return count


def aut_order(g: Graph) -> int:
    truth = g.truth
    if "aut_order" in truth:
        return truth["aut_order"]
    return 1 + len(truth["symmetries"])


# -- per-subcommand checkers -----------------------------------------------

def check_decompose_text(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    nodes, singles = expected_nodes(g.truth["tree"])
    want = Counter((kind, k, len(vs) == k) for kind, vs, k in nodes)
    want[(COMPLETE, 1, True)] += singles
    want_leaves = {(kind, vs) for kind, vs, k in nodes if len(vs) == k}
    got, got_leaves = Counter(), set()
    for line in out.splitlines():
        m = re.fullmatch(r"node (\d+) (\w+): ([\d ]+)", line)
        if not m:
            return f"unparsable line {line[:60]!r}"
        members = [int(v) for v in m.group(3).split()]
        leaf = all(v < g.n for v in members)
        got[(m.group(2), len(members), leaf)] += 1
        if leaf and len(members) > 1:
            got_leaves.add((m.group(2), frozenset(members)))
    if got != want:
        return "node kinds or sizes differ from the construction"
    if got_leaves != want_leaves:
        return "leaf members differ from the construction"
    return None


def check_decompose_json(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    data = json.loads(out)
    nodes, singles = expected_nodes(g.truth["tree"])
    got = {(nd["kind"], frozenset(nd["vertices"]), len(nd["members"]))
           for nd in data["nodes"] if len(nd["vertices"]) > 1}
    got_singles = sum(len(nd["vertices"]) == 1 for nd in data["nodes"])
    if data["vertex_count"] != g.n:
        return "wrong vertex count"
    if got != nodes or got_singles != singles:
        return "node kinds, sizes or vertex sets differ from the construction"
    return None


def check_orientation_count(g: Graph, code: int, out: str) -> str | None:
    truth = g.truth
    if not truth.get("comparability", True):
        return None if code == 1 else \
            f"exit {code} on a non-comparability graph"
    if code != 0:
        return f"exit {code}"
    want = truth.get("orientations") or orientation_count(truth["tree"])
    return None if out.strip() == str(want) else \
        f"count {out.strip()[:40]} != {want}"


def check_aut(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    m = re.search(r"^order: (\d+)$", out, re.M)
    if not m:
        return "no order line"
    want = aut_order(g)
    return None if int(m.group(1)) == want else \
        f"order {m.group(1)[:40]} != {want}"


def _rebuilds(g: Graph, l1, l2) -> bool:
    return sorted(l1) == list(range(g.n)) == sorted(l2) and \
        order_graph_edges(l1, l2) == g.edges


def check_perm_text(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if not g.truth.get("permutation", True):
        return None if out == "not a permutation graph\n" else \
            "a non-permutation graph was not reported as such"
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] != "permutation graph":
        return "unparsable perm answer"
    l1 = [int(v) for v in lines[1].removeprefix("l1:").split()]
    l2 = [int(v) for v in lines[2].removeprefix("l2:").split()]
    if not _rebuilds(g, l1, l2):
        return "l1/l2 do not rebuild the input graph"
    if "symmetries" in g.truth:
        want = f"prime symmetry: {symmetry_class(g.truth['symmetries'])}"
        if lines[3:] != [want]:
            return f"expected {want!r}"
    elif lines[3:]:
        return "symmetry reported for a graph that is not prime"
    return None


def check_perm_svg(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    xs = re.findall(r'<line x1="(\d+)" y1="\d+" x2="(\d+)"', out)
    if len(xs) != g.n:
        return f"{len(xs)} segments for {g.n} vertices"
    l1 = sorted(range(g.n), key=lambda v: int(xs[v][0]))
    l2 = sorted(range(g.n), key=lambda v: int(xs[v][1]))
    if len({x for x, _ in xs}) != g.n or len({x for _, x in xs}) != g.n:
        return "segment ends collide"
    return None if _rebuilds(g, l1, l2) else \
        "segments do not rebuild the input graph"


def gadget(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """The dim-4 path gadget of g, labeled as the program documents it:
    p_i = i, r_k = n + k and q = n + m + 2k, n + m + 2k + 1 for the two
    ends of edge k (edges in sorted order)."""
    n, m = g.n, len(g.edges)
    edges = []
    for k, (u, v) in enumerate(g.edges):
        qu, qv, rk = n + m + 2 * k, n + m + 2 * k + 1, n + k
        edges.extend([(u, qu), (qu, rk), (v, qv), (qv, rk)])
    return n + 3 * m, sorted((min(e), max(e)) for e in edges)


def chains_cut_out(size: int, edges, chains) -> str | None:
    """None iff the four chains are orders of the same vertex set whose
    common comparabilities are exactly the given edges."""
    if len(chains) != 4 or any(sorted(c) != list(range(size)) for c in chains):
        return "chains are not four orders of the gadget's vertices"
    full = (1 << size) - 1
    below = [full] * size
    above = [full] * size
    for chain in chains:
        seen = 0
        for v in chain:
            below[v] &= seen
            above[v] &= full ^ seen ^ (1 << v)
            seen |= 1 << v
    adj = [0] * size
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if any(below[v] | above[v] != adj[v] for v in range(size)):
        return "chain intersection differs from the gadget's edges"
    return None


def check_dim4_text(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    size, edges = gadget(g)
    head = f"{size} {len(edges)}"
    if not lines or lines[0] != head:
        return f"gadget header {lines[0][:40] if lines else ''!r} != {head!r}"
    body = lines[1:1 + len(edges)]
    got = [tuple(int(x) for x in ln.split()) for ln in body]
    if got != edges:
        return "gadget edges differ from the construction"
    rest = lines[1 + len(edges):]
    if len(rest) != 5 or rest[4] != "verification PASS":
        return "expected four chains and a PASS line"
    chains = [[int(v) for v in ln.split()] for ln in rest[:4]]
    return chains_cut_out(size, edges, chains)


def check_dim4_json(g: Graph, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    data = json.loads(out)
    size, edges = gadget(g)
    n, m = g.n, len(g.edges)
    if data["vertices"] != size or data["verified"] is not True:
        return "wrong vertex count or not verified"
    if [tuple(e) for e in data["edges"]] != edges:
        return "gadget edges differ from the construction"
    if (data["p"], data["r"], data["q"]) != (
            list(range(n)), list(range(n, n + m)),
            list(range(n + m, n + 3 * m))):
        return "p/q/r classes differ from the construction"
    return chains_cut_out(size, edges, data["chains"])


def subdivides(x: Graph, text: str) -> bool:
    """True iff the edge list is x with every edge replaced by a path of
    eight edges whose inner vertices are new (ids >= x.n)."""
    steps = 8
    lines = text.splitlines()
    size, count = (int(t) for t in lines[0].split())
    m = len(x.edges)
    if size != x.n + (steps - 1) * m or count != steps * m:
        return False
    adj: list[list[int]] = [[] for _ in range(size)]
    for ln in lines[1:]:
        u, v = (int(t) for t in ln.split())
        adj[u].append(v)
        adj[v].append(u)
    degree = Counter(v for e in x.edges for v in e)
    if any(len(adj[v]) != degree[v] for v in range(x.n)) or \
            any(len(adj[v]) != 2 for v in range(x.n, size)):
        return False
    ends = []
    for v in range(x.n):
        for w in adj[v]:
            prev, cur = v, w
            for _ in range(steps - 1):
                if cur < x.n:
                    return False
                prev, cur = cur, adj[cur][0] if adj[cur][1] == prev \
                    else adj[cur][1]
            if cur >= x.n:
                return False
            ends.append((min(v, cur), max(v, cur)))
    return sorted(ends) == sorted(x.edges * 2)


def check_reduce(pair: tuple[Graph, Graph], code: int, out: str,
                 out_dir: Path, isomorphic: bool) -> str | None:
    if code != 0:
        return f"exit {code}"
    manifest = json.loads(out)
    written = json.loads((out_dir / "manifest.json").read_text())
    if written != manifest:
        return "manifest file differs from stdout"
    for i, x in enumerate(pair, 1):
        if manifest[f"vertices_{i}"] != x.n + 7 * len(x.edges):
            return f"vertices_{i} is wrong"
        text = (out_dir / manifest[f"output_{i}"]).read_text()
        if not subdivides(x, text):
            return f"output {i} is not an 8-subdivision of input {i}"
    if manifest["oracle_checked"]:
        if manifest["isomorphic"] is not isomorphic:
            return f"isomorphic={manifest['isomorphic']} but {isomorphic}"
    elif manifest["isomorphic"] is not None:
        return "isomorphism claimed without a check"
    return None
