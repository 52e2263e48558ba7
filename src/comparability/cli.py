"""Command-line front end for the decomposition and gadget pipelines.

One subcommand per pipeline, reading a graph file (edge list or graph6,
auto-detected) and writing data to stdout.  JSON output has sorted keys
and no volatile fields, so identical invocations produce identical
bytes; messages go to stderr.  Exit codes: 0 success, 1 domain error,
2 input error, 3 oracle bound refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .dim4 import (
    chains_to_text, construct_cx, four_chains, gadget_to_dot, gi_reduction,
    verify_chain_intersection,
)
from .errors import DomainError, InputError, OracleBoundError
from .graphs import (
    Graph, from_edge_list_text, from_graph6, to_edge_list_text,
)
from .groups import aut_tree, realize
from .modular import (
    build_modular_tree, is_prime_graph, tree_of, tree_to_dot, tree_to_json,
)
from .oracles import DEFAULT_VERTEX_BOUND, brute_force_aut, brute_force_iso
from .orientations import count_orientations, transitive_orientations
from .permgraphs import (
    OrientationPair, build_representation, is_permutation_graph,
    prime_symmetry_class, representation_svg,
)


@dataclass(frozen=True)
class Config:
    oracle_bound: int
    output_format: str

    def __post_init__(self) -> None:
        if self.oracle_bound < 1:
            raise InputError("oracle bound must be at least 1")


def load_graph(path: str) -> Graph:
    """Read a graph file; a leading 'n m' integer pair means edge-list
    format, anything else is treated as graph6."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise InputError(f"empty input: {path} holds no graph data")
    head = text.strip().splitlines()[0].split()
    if len(head) == 2:
        try:
            int(head[0]), int(head[1])
            return from_edge_list_text(text)
        except ValueError:
            pass
    return from_graph6(text)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _require_format(config: Config, allowed: tuple[str, ...]) -> None:
    if config.output_format not in allowed:
        raise InputError(
            f"format {config.output_format!r} not supported here; "
            f"choose from {', '.join(allowed)}")


def cmd_decompose(args, config: Config) -> int:
    t = build_modular_tree(load_graph(args.input))
    _require_format(config, ("text", "json", "dot"))
    if config.output_format == "json":
        print(tree_to_json(t))
    elif config.output_format == "dot":
        print(tree_to_dot(t), end="")
    else:
        for node in sorted(t.nodes, key=lambda nd: nd.id):
            members = " ".join(str(v) for v in node.members)
            print(f"node {node.id} {node.kind}: {members}")
    return 0


def cmd_aut(args, config: Config) -> int:
    g = load_graph(args.input)
    _require_format(config, ("text", "json"))
    expr, group = aut_tree(build_modular_tree(g), max_n=config.oracle_bound)
    order = realize(expr)
    verified = None
    if args.verify:
        oracle = set(brute_force_aut(g, max_n=config.oracle_bound).elements())
        verified = set(group.elements()) == oracle
    if config.output_format == "json":
        out = {"expression": str(expr), "order": order}
        if verified is not None:
            out["verified"] = verified
        _emit_json(out)
    else:
        print(f"expression: {expr}")
        print(f"order: {order}")
        if verified is not None:
            print(f"verified: {'yes' if verified else 'NO'}")
    return 0 if verified in (None, True) else 1


def cmd_orientations(args, config: Config) -> int:
    g = load_graph(args.input)
    _require_format(config, ("text", "json"))
    t = tree_of(g)
    if args.count:
        n = count_orientations(t)
        _emit_json({"count": n}) if config.output_format == "json" \
            else print(n)
        return 0
    arcs_lists = [o.sorted_arcs() for o in transitive_orientations(g)]
    if config.output_format == "json":
        _emit_json({"count": len(arcs_lists),
                    "orientations": [[list(a) for a in arcs]
                                     for arcs in arcs_lists]})
    else:
        for arcs in arcs_lists:
            print(" ".join(f"{u}>{v}" for u, v in arcs))
    return 0


def cmd_perm(args, config: Config) -> int:
    g = load_graph(args.input)
    _require_format(config, ("text", "json", "svg"))
    if not is_permutation_graph(g):
        if config.output_format == "json":
            _emit_json({"permutation": False})
        elif config.output_format == "svg":
            raise DomainError("no representation: not a permutation graph")
        else:
            print("not a permutation graph")
        return 0
    # the first orientation of each side: the first of orientation_pairs
    # without enumerating the rest
    pair = OrientationPair(next(transitive_orientations(g)),
                           next(transitive_orientations(g.complement())))
    rep = build_representation(g, pair)
    if config.output_format == "svg":
        print(representation_svg(rep))
        return 0
    symmetry = None
    if is_prime_graph(g):
        report = prime_symmetry_class(g, max_n=config.oracle_bound)
        symmetry = {"subgroup": report.subgroup,
                    "orbits_size_4": report.orbits_size_4,
                    "orbits_size_2": [list(t) for t in report.orbits_size_2],
                    "orbits_size_1": report.orbits_size_1}
    if config.output_format == "json":
        out = {"permutation": True, "l1": list(rep.l1), "l2": list(rep.l2)}
        if symmetry is not None:
            out["symmetry"] = symmetry
        _emit_json(out)
    else:
        print("permutation graph")
        print("l1: " + " ".join(str(v) for v in rep.l1))
        print("l2: " + " ".join(str(v) for v in rep.l2))
        if symmetry is not None:
            print(f"prime symmetry: {symmetry['subgroup']}")
    return 0


def cmd_dim4(args, config: Config) -> int:
    g = load_graph(args.input)
    _require_format(config, ("text", "json", "dot"))
    cx = construct_cx(g)
    if config.output_format == "dot":
        print(gadget_to_dot(cx), end="")
        return 0
    chains = None
    verified = None
    if g.is_connected() and g.bipartition() is not None:
        cs = four_chains(cx)
        chains = cs.chains
        verified = verify_chain_intersection(cs, cx)
    if config.output_format == "json":
        _emit_json({"chains": [list(c) for c in chains] if chains else None,
                    "edges": [list(e) for e in cx.graph.edges],
                    "p": list(cx.p_vertices), "q": list(cx.q_vertices),
                    "r": list(cx.r_vertices),
                    "vertices": cx.graph.n, "verified": verified})
    else:
        print(to_edge_list_text(cx.graph), end="")
        if chains is not None:
            print(chains_to_text(cs), end="")
            print(f"verification {'PASS' if verified else 'FAIL'}")
        else:
            print("chains unavailable: input not connected bipartite")
    return 0 if verified in (None, True) else 1


def cmd_reduce(args, config: Config) -> int:
    x1, x2 = load_graph(args.input1), load_graph(args.input2)
    g1, g2 = gi_reduction(x1, x2)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "reduced_1.txt").write_text(to_edge_list_text(g1))
    (out_dir / "reduced_2.txt").write_text(to_edge_list_text(g2))
    try:
        iso = brute_force_iso(x1, x2, max_n=config.oracle_bound) is not None
        checked = True
    except OracleBoundError:
        iso, checked = None, False
    manifest = {"isomorphic": iso, "oracle_checked": checked,
                "output_1": "reduced_1.txt", "output_2": "reduced_2.txt",
                "vertices_1": g1.n, "vertices_2": g2.n}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True) + "\n")
    _emit_json(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comparability",
        description="Modular trees, automorphism groups, orientations, "
                    "permutation representations, and dimension-4 gadgets.")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "dot", "svg"),
                        help="output format (not every command supports all)")
    parser.add_argument("--oracle-bound", type=int,
                        default=DEFAULT_VERTEX_BOUND, metavar="N",
                        help="largest n the brute-force oracles accept")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="modular tree of a graph")
    p.add_argument("input")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("aut", help="automorphism group expression")
    p.add_argument("input")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute-force oracle")
    p.set_defaults(run=cmd_aut)

    p = sub.add_parser("orientations", help="transitive orientations")
    p.add_argument("input")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true")
    p.set_defaults(run=cmd_orientations)

    p = sub.add_parser("perm", help="permutation graph recognition")
    p.add_argument("input")
    p.set_defaults(run=cmd_perm)

    p = sub.add_parser("dim4", help="dimension-4 gadget and chains")
    p.add_argument("input")
    p.set_defaults(run=cmd_dim4)

    p = sub.add_parser("reduce", help="isomorphism-preserving reduction")
    p.add_argument("input1")
    p.add_argument("input2")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(run=cmd_reduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = Config(args.oracle_bound, args.format)
        return args.run(args, config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
