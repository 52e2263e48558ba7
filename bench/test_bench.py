"""Tests of the benchmark itself: inputs, checkers, deadline, spans.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SLOTS, QueryStream  # noqa: E402


def round_files(tmp: Path, workload: str, seed: int) -> dict[str, bytes]:
    stream = QueryStream(workload, seed, tmp)
    stream.next_round()
    return {p.name: p.read_bytes() for p in sorted(tmp.rglob("*.txt"))}


@pytest.mark.parametrize("workload", sorted(SLOTS))
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = round_files(tmp_path / "a", workload, 7)
    again = round_files(tmp_path / "b", workload, 7)
    other = round_files(tmp_path / "c", workload, 8)
    assert first and first == again
    assert first != other


def test_path_realizer_gives_the_path():
    for n in range(1, 12):
        l1, l2 = gen._path_realizer(n)
        assert gen.order_graph_edges(l1, l2) == \
            tuple((i, i + 1) for i in range(n - 1))


def test_inputs_of_a_run_are_distinct(tmp_path):
    stream = QueryStream("prime", 3, tmp_path)
    for _ in range(3):
        stream.next_round()
    texts = [p.read_text() for p in tmp_path.rglob("*.txt")]
    assert len(texts) == len(set(texts)) == 3 * stream.next_qid // 3


def queries(tmp_path, workload, command, seed=1):
    stream = QueryStream(workload, seed, tmp_path)
    return [q for q in stream.next_round() if q.command == command]


def bump(pattern: str):
    """Corruption that adds one to the number captured by `pattern`."""
    return lambda out: re.sub(
        pattern, lambda m: m.group(0).replace(
            m.group(1), str(int(m.group(1)) + 1)), out, count=1)


def swap_kind(out: str) -> str:
    other = {"prime": "complete", "complete": "independent",
             "independent": "prime"}
    return re.sub(r"prime|complete|independent",
                  lambda m: other[m.group(0)], out, count=1)


def swap_first_two(prefix: str):
    """Swap the first two numbers after `prefix`."""
    return lambda out: re.sub(re.escape(prefix) + r"(\d+)(\D+)(\d+)",
                              lambda m: prefix + m.group(3) + m.group(2)
                              + m.group(1), out, count=1)


def reverse_first_chain(out: str) -> str:
    data = json.loads(out)
    data["chains"][0].reverse()
    return json.dumps(data, sort_keys=True)


def swap_segment_ends(out: str) -> str:
    """Swap the lower ends of the first two segments."""
    ends = re.findall(r'x2="(\d+)"', out)
    swapped = iter([ends[1], ends[0]])
    return re.sub(r'x2="(\d+)"', lambda m: f'x2="{next(swapped)}"', out,
                  count=2)


CORRUPTIONS = {
    ("prime", "orientations"): bump(r"(\d+)"),
    ("prime", "perm-svg"): swap_segment_ends,
    ("prime", "perm"): swap_first_two("l1: "),
    ("prime", "decompose"): swap_kind,
    ("tree-mix", "aut"): bump(r"order: (\d+)"),
    ("tree-mix", "decompose-json"): swap_kind,
    ("gadget", "dim4-json"): reverse_first_chain,
    ("gadget", "reduce-iso"): bump(r'"vertices_1": (\d+)'),
}


@pytest.mark.parametrize("workload,command", sorted(CORRUPTIONS))
def test_corrupted_answer_is_counted_failed(tmp_path, workload, command):
    q = min(queries(tmp_path, workload, command), key=lambda q: q.n)
    honest = q.check
    assert run.execute(q).status == "answered"
    corrupt = CORRUPTIONS[workload, command]
    q.check = lambda code, out: honest(code, corrupt(out))
    record = run.execute(q)
    assert record.status == "failed" and record.detail


def test_failed_query_is_reported_with_its_inputs(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    q = queries(tmp_path / ".bench_work", "prime", "orientations")[0]
    q.check = lambda code, out: "wrong on purpose"
    (record,) = run.execute_all([q], time.perf_counter() + 60)
    assert record.status == "failed"
    kept = sorted((tmp_path / ".bench_failures").iterdir())
    assert len(kept) == 1 and kept[0].read_text() == \
        Path(q.argv[1]).read_text()
    assert "FAILED orientations" in capsys.readouterr().out


def test_query_past_the_deadline_is_stopped_and_failed(tmp_path):
    slow = max(queries(tmp_path, "prime", "perm"), key=lambda q: q.n)
    record = run.execute(slow, deadline=0.05)
    assert record.status == "failed" and "deadline" in record.detail
    assert record.seconds < 1.0
    quick = min(queries(tmp_path / "b", "prime", "perm"), key=lambda q: q.n)
    assert run.execute(quick).status == "answered"


def test_refusal_is_not_a_failure(tmp_path):
    (q,) = queries(tmp_path, "prime", "aut")
    assert run.execute(q).status == "refused"


def test_ground_truth_matches_the_program_on_small_graphs():
    from comparability.graphs import Graph
    from comparability.groups import aut_tree
    from comparability.modular import build_modular_tree
    from comparability.permgraphs import prime_symmetry_class

    rng = random.Random(11)
    for _ in range(40):
        g = gen.substitution_graph(rng, rng.randint(6, 14))
        tree = build_modular_tree(Graph(g.n, g.edges))
        got = {(nd.kind, frozenset(nd.vertices_under), len(nd.members))
               for nd in tree.nodes if len(nd.vertices_under) > 1}
        assert got == check.expected_nodes(g.truth["tree"])[0]
        assert aut_tree(tree)[0].order() == g.truth["aut_order"]
    for _ in range(40):
        g = gen.two_order_graph(rng, rng.randint(4, 9), prime=True)
        report = prime_symmetry_class(Graph(g.n, g.edges))
        assert report.subgroup == gen.symmetry_class(g.truth["symmetries"])


def test_substitution_group_orders_match_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(12)
    checked = 0
    while checked < 15:
        g = gen.substitution_graph(rng, rng.randint(6, 12))
        if g.truth["aut_order"] > 500:
            continue
        x = nx.Graph()
        x.add_nodes_from(range(g.n))
        x.add_edges_from(g.edges)
        count = sum(1 for _ in GraphMatcher(x, x).isomorphisms_iter())
        assert count == g.truth["aut_order"]
        checked += 1


def test_span_derivation_counts_nested_calls_once():
    # query(0..10) > f(1..9) > f(2..4), g(5..6)
    recorded = [[0, 0, None, spans.QUERY, 0.0, 10.0, "ok"],
                [0, 1, 0, "groups.aut_tree", 1.0, 9.0, "refused"],
                [0, 2, 1, "groups.aut_tree", 2.0, 4.0, "ok"],
                [0, 3, 1, "graphs.is_prime", 5.0, 6.0, "ok"]]
    out = spans.derive(recorded, {})
    assert out["groups.aut_tree.calls"] == 2
    assert out["groups.aut_tree.busy_s"] == 8.0
    assert out["groups.aut_tree.self_s"] == 5.0 + 2.0
    assert out["groups.aut_tree.refused"] == 1
    assert out["groups.aut_tree.answered_ratio"] == 0.0
    assert out["graphs.is_prime.busy_s"] == 1.0
    assert out["query.self_s"] == 2.0


def test_tracer_sees_layers_and_restores_them(tmp_path):
    import comparability.cli as cli
    original = cli.build_modular_tree
    q = min(queries(tmp_path, "tree-mix", "aut"), key=lambda q: q.n)
    with spans.Tracer() as tracer:
        assert run.execute(q, tracer=tracer).status == "answered"
    assert cli.build_modular_tree is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == spans.QUERY
    assert {"cli.load_graph", "modular.build_modular_tree",
            "groups.aut_tree"} <= set(names)
    assert tracer.counts["modular.tree_nodes"] > 0
