"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import json
import random
import sys

import pytest

from comparability import graphs, oracles, orientations
from comparability.cli import load_graph, main
from comparability.errors import InputError
from comparability.graphs import (
    Graph, from_edge_list_text, substitute, to_edge_list_text, to_graph6,
)
from comparability.modular import build_modular_tree, tree_to_json
from comparability.permgraphs import LinearOrderPair, intersection_graph


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(to_edge_list_text(g))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_graph_auto_detects(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("3 2\n0 1\n1 2\n")
    assert load_graph(str(p)) == Graph.path(3)
    p6 = tmp_path / "g.g6"
    p6.write_text(to_graph6(Graph.complete(4)) + "\n")
    assert load_graph(str(p6)) == Graph.complete(4)
    with pytest.raises(InputError):
        load_graph(str(tmp_path / "missing.txt"))


def test_decompose_text(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose",
                       write_graph(tmp_path, "p4", Graph.path(4)))
    assert code == 0
    assert out == "node 0 prime: 0 1 2 3\n"
    code, out, _ = run(capsys, "decompose",
                       write_graph(tmp_path, "p3", Graph.path(3)))
    assert code == 0
    assert out.splitlines()[0] == "node 0 complete: 3 4"
    assert len(out.splitlines()) == 3


def test_decompose_json_and_dot(tmp_path, capsys):
    path = write_graph(tmp_path, "p3", Graph.path(3))
    code, out, _ = run(capsys, "--format", "json", "decompose", path)
    assert code == 0
    assert out == tree_to_json(build_modular_tree(Graph.path(3))) + "\n"
    code, out, _ = run(capsys, "--format", "dot", "decompose", path)
    assert code == 0 and out.startswith("graph modular_tree {")


def test_decompose_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "decompose", str(empty))
    assert code == 2 and not out and "empty input" in err


def test_aut_text_and_verified_json(tmp_path, capsys):
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    code, out, _ = run(capsys, "aut", write_graph(tmp_path, "g", two_k2))
    assert code == 0
    assert out == "expression: (S2 wr S2)\norder: 8\n"

    p6 = tmp_path / "k4.g6"
    p6.write_text(to_graph6(Graph.complete(4)))
    code, out, _ = run(capsys, "--format", "json", "aut", "--verify", str(p6))
    assert code == 0
    assert json.loads(out) == {"expression": "S4", "order": 24,
                               "verified": True}


def test_aut_on_a_deep_threshold_graph(tmp_path, capsys):
    # vertex i joins every earlier vertex when i is odd, which gives a
    # modular tree 598 levels deep
    n = 600
    g = Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])
    code, out, err = run(capsys, "aut", write_graph(tmp_path, "thr", g))
    assert code == 0 and not err
    assert out == "expression: S2\norder: 2\n"


def test_orientations_count_and_list(tmp_path, capsys):
    code, out, _ = run(capsys, "orientations", "--count",
                       write_graph(tmp_path, "k4", Graph.complete(4)))
    assert (code, out) == (0, "24\n")
    code, out, _ = run(capsys, "orientations", "--list",
                       write_graph(tmp_path, "p4", Graph.path(4)))
    assert code == 0
    assert out == "0>1 2>1 2>3\n1>0 1>2 3>2\n"


def test_orientations_non_comparability_exit_1(tmp_path, capsys):
    code, out, err = run(capsys, "orientations", "--count",
                         write_graph(tmp_path, "c5", Graph.cycle(5)))
    assert code == 1 and not out
    assert "not a comparability graph" in err


def test_perm_outputs(tmp_path, capsys):
    path = write_graph(tmp_path, "p4", Graph.path(4))
    code, out, _ = run(capsys, "--format", "json", "perm", path)
    assert code == 0
    data = json.loads(out)
    assert data["permutation"] is True
    assert data["l1"] == [0, 2, 1, 3] and data["l2"] == [2, 3, 0, 1]
    assert data["symmetry"]["subgroup"] == "Z2-vertical"

    code, out, _ = run(capsys, "--format", "svg", "perm", path)
    assert code == 0 and out.startswith("<svg ")

    c5 = write_graph(tmp_path, "c5", Graph.cycle(5))
    code, out, _ = run(capsys, "perm", c5)
    assert (code, out) == (0, "not a permutation graph\n")
    code, _, err = run(capsys, "--format", "svg", "perm", c5)
    assert code == 1 and "not a permutation graph" in err


def test_dim4_text_json_dot(tmp_path, capsys):
    path = write_graph(tmp_path, "k2", Graph.complete(2))
    code, out, _ = run(capsys, "dim4", path)
    assert code == 0
    assert out == ("5 4\n0 3\n1 4\n2 3\n2 4\n"
                   "0 2 3 1 4\n0 2 3 1 4\n1 2 4 0 3\n1 2 4 0 3\n"
                   "verification PASS\n")
    code, out, _ = run(capsys, "--format", "json", "dim4", path)
    data = json.loads(out)
    assert code == 0 and data["verified"] is True and data["vertices"] == 5
    code, out, _ = run(capsys, "--format", "dot", "dim4", path)
    assert code == 0 and out.count("fillcolor=lightblue") == 2


def test_dim4_non_bipartite_has_no_chains(tmp_path, capsys):
    code, out, _ = run(capsys, "dim4",
                       write_graph(tmp_path, "k4", Graph.complete(4)))
    assert code == 0
    assert out.endswith("chains unavailable: input not connected bipartite\n")


def test_reduce_writes_pair_and_manifest(tmp_path, capsys):
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    a = write_graph(tmp_path, "a", k13)
    b = write_graph(tmp_path, "b", Graph.path(4))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "reduce", a, b, "--output-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert json.loads(out) == manifest
    assert manifest["isomorphic"] is False and manifest["oracle_checked"]
    g1 = from_edge_list_text((out_dir / "reduced_1.txt").read_text())
    g2 = from_edge_list_text((out_dir / "reduced_2.txt").read_text())
    assert g1.n == manifest["vertices_1"] == 25
    assert g2.n == manifest["vertices_2"] == 25


def test_reduce_isomorphic_inputs(tmp_path, capsys):
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    a = write_graph(tmp_path, "a", k13)
    b = write_graph(tmp_path, "b", k13.relabel([2, 0, 3, 1]))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "reduce", a, b, "--output-dir", str(out_dir))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_reduce_beyond_bound_reports_unchecked(tmp_path, capsys):
    path = write_graph(tmp_path, "p11", Graph.path(11))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "reduce", path, path,
                       "--output-dir", str(out_dir))
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is None and data["oracle_checked"] is False


def test_exit_codes(tmp_path, capsys):
    path = write_graph(tmp_path, "p4", Graph.path(4))
    code, _, err = run(capsys, "--format", "svg", "decompose", path)
    assert code == 2 and "not supported" in err
    code, _, err = run(capsys, "--oracle-bound", "0", "aut", path)
    assert code == 2 and "at least 1" in err
    p11 = write_graph(tmp_path, "p11", Graph.path(11))
    code, _, err = run(capsys, "aut", p11)
    assert code == 3 and "oracle bound" in err


def test_reruns_are_byte_identical(tmp_path, capsys):
    path = write_graph(tmp_path, "p4", Graph.path(4))
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--format", "json", "perm", path)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# -- no exhaustive search on a CLI path -----------------------------------

def _simple_permutation(rng, n):
    """A random permutation with no interval of 2..n-1 positions holding
    an interval of values; its permutation graph is prime (n >= 4)."""
    while True:
        pi = list(range(n))
        rng.shuffle(pi)
        if not any(max(pi[i:j + 1]) - min(pi[i:j + 1]) == j - i
                   for i in range(n) for j in range(i + 1, n)
                   if j - i + 1 < n):
            return pi


def _permutation_graph(pi):
    n = len(pi)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if pi[u] < pi[v]])


@pytest.fixture
def no_sweeps(monkeypatch):
    """Every exhaustive oracle raises if anything calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive sweep on a CLI path")

    sweeps = (graphs.is_prime, graphs.all_modules,
              oracles.pairwise_maximal_modules,
              orientations.brute_force_transitive_orientations)
    for name, module in list(sys.modules.items()):
        if name == "comparability" or name.startswith("comparability."):
            for attr, value in list(vars(module).items()):
                if any(value is sweep for sweep in sweeps):
                    monkeypatch.setattr(module, attr, refuse)


def test_cli_paths_run_no_exhaustive_sweep(tmp_path, capsys, no_sweeps):
    prime = _permutation_graph(_simple_permutation(random.Random(7), 200))
    cases = {"p22": (Graph.path(22), "prime", 2),
             "prime200": (prime, "prime", 2),
             "k8": (Graph.complete(8), "complete", 40320)}
    for name, (g, kind, count) in cases.items():
        path = write_graph(tmp_path, name, g)
        members = " ".join(map(str, range(g.n)))
        assert run(capsys, "decompose", path)[:2] == \
            (0, f"node 0 {kind}: {members}\n")
        assert run(capsys, "orientations", "--count", path)[:2] == \
            (0, f"{count}\n")
        code, out, _ = run(capsys, "--format", "svg", "perm", path)
        assert code == 0 and out.startswith("<svg ")
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "--format", fmt, "perm", path)
            if name != "k8":
                assert code == 3 and not out
                assert f"brute_force_aut refuses n={g.n}" in err
            elif fmt == "json":
                data = json.loads(out)
                rebuilt = intersection_graph(
                    LinearOrderPair(tuple(data["l1"]), tuple(data["l2"])))
                assert code == 0 and rebuilt == g and "symmetry" not in data
            else:
                assert code == 0 and out.startswith("permutation graph\n")


def test_cli_paths_build_no_arc_set(tmp_path, capsys, monkeypatch):
    # orientations stay per-vertex masks from forcing to output: the
    # frozenset of arc tuples is only ever built on request
    def refuse(self):
        raise AssertionError("arc set built on a CLI path")

    monkeypatch.setattr(orientations.Orientation, "arcs", property(refuse))
    subst, _ = substitute(Graph.path(4), {0: Graph.complete(3),
                                          3: Graph.empty(2)})
    prime = _permutation_graph(_simple_permutation(random.Random(7), 60))
    for name, g in {"p5": Graph.path(5), "subst": subst,
                    "prime60": prime}.items():
        path = write_graph(tmp_path, name, g)
        for argv in (["perm", path], ["--format", "svg", "perm", path],
                     ["orientations", path, "--count"], ["aut", path]):
            code, out, err = run(capsys, *argv)
            # past the oracle bound, a prime node's symmetry class and
            # group are refused
            if name == "prime60" and argv[0] in ("perm", "aut"):
                assert code == 3 and "refuses n=60" in err, argv
            else:
                assert code == 0 and out and not err, argv
